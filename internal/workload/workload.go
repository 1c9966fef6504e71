// Package workload provides the reference kernels and input generators
// used across the ECOSCALE experiments — the application classes the
// paper names: dense linear algebra and stencils for the HPC core,
// Monte-Carlo financial simulation (the Maxeler use case, ref [18]),
// decision-tree learning (the HC-CART use case, ref [17]), n-body, and
// reductions. Every kernel exists in the HLS kernel language (so it can
// be synthesized to hardware and interpreted in software from the same
// source) together with a native Go golden model for verification.
package workload

import (
	"fmt"
	"math"
	"sync"

	"ecoscale/internal/hls"
	"ecoscale/internal/sim"
)

// Workload couples a kernel with its argument builder and golden model.
type Workload struct {
	Name   string
	Source string
	// DefaultDir is a sensible hardware implementation point.
	DefaultDir hls.Directives
	// Make builds arguments for problem size n: buffers first (matching
	// the kernel's parameter order) and the scalar bindings.
	Make func(n int, rng *sim.RNG) ([]hls.Value, map[string]float64)
	// Golden computes the expected output natively and returns the
	// buffer index to compare plus the expected values.
	Golden func(args []hls.Value, n int) (check int, want []float64)
}

// Registry returns all workloads, in a stable order.
func Registry() []Workload {
	return []Workload{VecAdd, Dot, MatMul, Stencil2D, MonteCarlo, CARTSplit, NBody, Reduce, FIR, SpMV}
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range Registry() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown kernel %q", name)
}

// kernels memoizes Kernel by source, so every caller shares one parsed
// kernel and hls.Run compiles it once.
var kernels sync.Map // string → *hls.Kernel

// Kernel returns the workload's parsed kernel. It is shared: callers
// must not modify it.
func (w Workload) Kernel() *hls.Kernel {
	if k, ok := kernels.Load(w.Source); ok {
		return k.(*hls.Kernel)
	}
	k, _ := kernels.LoadOrStore(w.Source, hls.MustParse(w.Source))
	return k.(*hls.Kernel)
}

// RunSW executes the workload in software for size n and verifies the
// result against the golden model, returning the dynamic op stats.
func (w Workload) RunSW(n int, rng *sim.RNG) (hls.RunStats, error) {
	args, _ := w.Make(n, rng)
	st, err := hls.Run(w.Kernel(), args)
	if err != nil {
		return st, err
	}
	if w.Golden != nil {
		idx, want := w.Golden(args, n)
		got := args[idx].Buf
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*math.Max(1, math.Abs(want[i])) {
				return st, fmt.Errorf("workload %s: output[%d] = %v, want %v", w.Name, i, got[i], want[i])
			}
		}
	}
	return st, nil
}

// VecAdd: C = A + B.
var VecAdd = Workload{
	Name: "vecadd",
	Source: `
kernel vecadd(global float* A, global float* B, global float* C, int N) {
    for (i = 0; i < N; i++) {
        C[i] = A[i] + B[i];
    }
}`,
	DefaultDir: hls.Directives{Unroll: 4, MemPorts: 8, Share: 1, Pipeline: true},
	Make: func(n int, rng *sim.RNG) ([]hls.Value, map[string]float64) {
		a, b := randBuf(n, rng), randBuf(n, rng)
		return []hls.Value{hls.B(a), hls.B(b), hls.B(make([]float64, n)), hls.S(float64(n))},
			map[string]float64{"N": float64(n)}
	},
	Golden: func(args []hls.Value, n int) (int, []float64) {
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			want[i] = args[0].Buf[i] + args[1].Buf[i]
		}
		return 2, want
	},
}

// Dot: out[0] = A·B.
var Dot = Workload{
	Name: "dot",
	Source: `
kernel dot(global float* A, global float* B, global float* out, int N) {
    float acc = 0.0;
    for (i = 0; i < N; i++) {
        acc = acc + A[i] * B[i];
    }
    out[0] = acc;
}`,
	DefaultDir: hls.Directives{Unroll: 4, MemPorts: 8, Share: 1, Pipeline: true},
	Make: func(n int, rng *sim.RNG) ([]hls.Value, map[string]float64) {
		return []hls.Value{hls.B(randBuf(n, rng)), hls.B(randBuf(n, rng)), hls.B(make([]float64, 1)), hls.S(float64(n))},
			map[string]float64{"N": float64(n)}
	},
	Golden: func(args []hls.Value, n int) (int, []float64) {
		var s float64
		for i := 0; i < n; i++ {
			s += args[0].Buf[i] * args[1].Buf[i]
		}
		return 2, []float64{s}
	},
}

// MatMul: C = A×B for N×N matrices.
var MatMul = Workload{
	Name: "matmul",
	Source: `
kernel matmul(global float* A, global float* B, global float* C, int N) {
    for (i = 0; i < N; i++) {
        for (j = 0; j < N; j++) {
            float acc = 0.0;
            for (k = 0; k < N; k++) {
                acc = acc + A[i*N+k] * B[k*N+j];
            }
            C[i*N+j] = acc;
        }
    }
}`,
	DefaultDir: hls.Directives{Unroll: 4, MemPorts: 8, Share: 1, Pipeline: true},
	Make: func(n int, rng *sim.RNG) ([]hls.Value, map[string]float64) {
		return []hls.Value{hls.B(randBuf(n*n, rng)), hls.B(randBuf(n*n, rng)), hls.B(make([]float64, n*n)), hls.S(float64(n))},
			map[string]float64{"N": float64(n)}
	},
	Golden: func(args []hls.Value, n int) (int, []float64) {
		a, b := args[0].Buf, args[1].Buf
		want := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += a[i*n+k] * b[k*n+j]
				}
				want[i*n+j] = s
			}
		}
		return 2, want
	},
}

// Stencil2D: one Jacobi sweep of a 5-point stencil over an N×N grid
// (interior only).
var Stencil2D = Workload{
	Name: "stencil2d",
	Source: `
kernel stencil2d(global float* A, global float* B, int N) {
    for (i = 1; i < N - 1; i++) {
        for (j = 1; j < N - 1; j++) {
            B[i*N+j] = 0.25 * (A[(i-1)*N+j] + A[(i+1)*N+j] + A[i*N+j-1] + A[i*N+j+1]);
        }
    }
}`,
	DefaultDir: hls.Directives{Unroll: 2, MemPorts: 8, Share: 1, Pipeline: true},
	Make: func(n int, rng *sim.RNG) ([]hls.Value, map[string]float64) {
		return []hls.Value{hls.B(randBuf(n*n, rng)), hls.B(make([]float64, n*n)), hls.S(float64(n))},
			map[string]float64{"N": float64(n)}
	},
	Golden: func(args []hls.Value, n int) (int, []float64) {
		a := args[0].Buf
		want := make([]float64, n*n)
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				want[i*n+j] = 0.25 * (a[(i-1)*n+j] + a[(i+1)*n+j] + a[i*n+j-1] + a[i*n+j+1])
			}
		}
		return 1, want
	},
}

// MonteCarlo: European call option pricing over N pre-generated standard
// normal draws G (the curve-based Monte-Carlo financial simulation of
// ref [18]); out[0] = mean discounted payoff.
var MonteCarlo = Workload{
	Name: "montecarlo",
	Source: `
kernel montecarlo(global float* G, global float* out, int N) {
    float s0 = 100.0;
    float strike = 105.0;
    float r = 0.05;
    float sigma = 0.2;
    float t = 1.0;
    float drift = (r - 0.5 * sigma * sigma) * t;
    float vol = sigma * sqrt(t);
    float acc = 0.0;
    for (i = 0; i < N; i++) {
        float st = s0 * exp(drift + vol * G[i]);
        float payoff = max(st - strike, 0.0);
        acc = acc + payoff;
    }
    out[0] = exp(0.0 - r * t) * acc / N;
}`,
	DefaultDir: hls.Directives{Unroll: 2, MemPorts: 4, Share: 1, Pipeline: true},
	Make: func(n int, rng *sim.RNG) ([]hls.Value, map[string]float64) {
		g := make([]float64, n)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		return []hls.Value{hls.B(g), hls.B(make([]float64, 1)), hls.S(float64(n))},
			map[string]float64{"N": float64(n)}
	},
	Golden: func(args []hls.Value, n int) (int, []float64) {
		g := args[0].Buf
		var acc float64
		drift := (0.05 - 0.5*0.2*0.2) * 1.0
		vol := 0.2
		for i := 0; i < n; i++ {
			st := 100 * math.Exp(drift+vol*g[i])
			if st > 105 {
				acc += st - 105
			}
		}
		return 1, []float64{math.Exp(-0.05) * acc / float64(n)}
	},
}

// CARTSplit evaluates a candidate decision-tree split (the HC-CART
// workload of ref [17]): for feature column X with binary labels Y it
// counts class-1 membership on each side of the threshold and emits the
// weighted Gini impurity in out[0], plus the side counts.
var CARTSplit = Workload{
	Name: "cartsplit",
	Source: `
kernel cartsplit(global float* X, global float* Y, global float* out, int N, float thresh) {
    float nl = 0.0;
    float nr = 0.0;
    float pl = 0.0;
    float pr = 0.0;
    for (i = 0; i < N; i++) {
        if (X[i] < thresh) {
            nl = nl + 1.0;
            pl = pl + Y[i];
        } else {
            nr = nr + 1.0;
            pr = pr + Y[i];
        }
    }
    float gl = 0.0;
    float gr = 0.0;
    if (nl > 0.0) {
        float fl = pl / nl;
        gl = 2.0 * fl * (1.0 - fl);
    }
    if (nr > 0.0) {
        float fr = pr / nr;
        gr = 2.0 * fr * (1.0 - fr);
    }
    out[0] = (nl * gl + nr * gr) / N;
    out[1] = nl;
    out[2] = nr;
}`,
	DefaultDir: hls.Directives{Unroll: 2, MemPorts: 4, Share: 1, Pipeline: true},
	Make: func(n int, rng *sim.RNG) ([]hls.Value, map[string]float64) {
		x := randBuf(n, rng)
		y := make([]float64, n)
		for i := range y {
			// Noisy label correlated with the feature.
			if x[i]+0.2*rng.NormFloat64() > 0.5 {
				y[i] = 1
			}
		}
		return []hls.Value{hls.B(x), hls.B(y), hls.B(make([]float64, 3)), hls.S(float64(n)), hls.S(0.5)},
			map[string]float64{"N": float64(n), "thresh": 0.5}
	},
	Golden: func(args []hls.Value, n int) (int, []float64) {
		x, y := args[0].Buf, args[1].Buf
		var nl, nr, pl, pr float64
		for i := 0; i < n; i++ {
			if x[i] < 0.5 {
				nl++
				pl += y[i]
			} else {
				nr++
				pr += y[i]
			}
		}
		gini := func(p, n float64) float64 {
			if n == 0 {
				return 0
			}
			f := p / n
			return 2 * f * (1 - f)
		}
		return 2, []float64{(nl*gini(pl, nl) + nr*gini(pr, nr)) / float64(n), nl, nr}
	},
}

// NBody: one O(N²) gravitational acceleration update in 2D; AX/AY
// receive per-body accelerations (softened).
var NBody = Workload{
	Name: "nbody",
	Source: `
kernel nbody(global float* PX, global float* PY, global float* AX, global float* AY, int N) {
    for (i = 0; i < N; i++) {
        float ax = 0.0;
        float ay = 0.0;
        for (j = 0; j < N; j++) {
            float dx = PX[j] - PX[i];
            float dy = PY[j] - PY[i];
            float d2 = dx*dx + dy*dy + 0.01;
            float inv = 1.0 / (d2 * sqrt(d2));
            ax = ax + dx * inv;
            ay = ay + dy * inv;
        }
        AX[i] = ax;
        AY[i] = ay;
    }
}`,
	DefaultDir: hls.Directives{Unroll: 2, MemPorts: 4, Share: 1, Pipeline: true},
	Make: func(n int, rng *sim.RNG) ([]hls.Value, map[string]float64) {
		return []hls.Value{hls.B(randBuf(n, rng)), hls.B(randBuf(n, rng)),
				hls.B(make([]float64, n)), hls.B(make([]float64, n)), hls.S(float64(n))},
			map[string]float64{"N": float64(n)}
	},
	Golden: func(args []hls.Value, n int) (int, []float64) {
		px, py := args[0].Buf, args[1].Buf
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			var ax float64
			for j := 0; j < n; j++ {
				dx := px[j] - px[i]
				dy := py[j] - py[i]
				d2 := dx*dx + dy*dy + 0.01
				ax += dx / (d2 * math.Sqrt(d2))
			}
			want[i] = ax
		}
		return 2, want
	},
}

// Reduce: out[0] = Σ A.
var Reduce = Workload{
	Name: "reduce",
	Source: `
kernel reduce(global float* A, global float* out, int N) {
    float acc = 0.0;
    for (i = 0; i < N; i++) {
        acc = acc + A[i];
    }
    out[0] = acc;
}`,
	DefaultDir: hls.Directives{Unroll: 8, MemPorts: 8, Share: 1, Pipeline: true},
	Make: func(n int, rng *sim.RNG) ([]hls.Value, map[string]float64) {
		return []hls.Value{hls.B(randBuf(n, rng)), hls.B(make([]float64, 1)), hls.S(float64(n))},
			map[string]float64{"N": float64(n)}
	},
	Golden: func(args []hls.Value, n int) (int, []float64) {
		var s float64
		for _, v := range args[0].Buf {
			s += v
		}
		return 1, []float64{s}
	},
}

// FIR: 16-tap finite-impulse-response filter. The coefficients are
// staged into an on-chip local array (BRAM scratchpad), so the steady
// state reads one global word per output — the data-storage partitioning
// §4.3 automates.
var FIR = Workload{
	Name: "fir",
	Source: `
kernel fir(global float* X, global float* H, global float* Y, int N) {
    local float h[16];
    for (k = 0; k < 16; k++) {
        h[k] = H[k];
    }
    for (i = 0; i < N - 16; i++) {
        float acc = 0.0;
        for (k = 0; k < 16; k++) {
            acc = acc + X[i+k] * h[k];
        }
        Y[i] = acc;
    }
}`,
	DefaultDir: hls.Directives{Unroll: 2, MemPorts: 4, Share: 1, Pipeline: true},
	Make: func(n int, rng *sim.RNG) ([]hls.Value, map[string]float64) {
		if n < 17 {
			n = 17
		}
		return []hls.Value{hls.B(randBuf(n, rng)), hls.B(randBuf(16, rng)),
				hls.B(make([]float64, n)), hls.S(float64(n))},
			map[string]float64{"N": float64(n)}
	},
	Golden: func(args []hls.Value, n int) (int, []float64) {
		if n < 17 {
			n = 17
		}
		x, h := args[0].Buf, args[1].Buf
		want := make([]float64, n)
		for i := 0; i+16 < n; i++ {
			var acc float64
			for k := 0; k < 16; k++ {
				acc += x[i+k] * h[k]
			}
			want[i] = acc
		}
		return 2, want
	},
}

// SpMV: sparse matrix-vector product in CSR form, y = A·x — the
// irregular-access application class §2 says the PGAS model serves
// ("applications with irregular communication patterns"). The column
// indices drive indirect loads x[col[j]], the pattern E16 measures over
// UNIMEM. Fixed shape: n rows, 8 nonzeros per row.
var SpMV = Workload{
	Name: "spmv",
	Source: `
kernel spmv(global float* V, global float* COL, global float* X, global float* Y, int N) {
    for (i = 0; i < N; i++) {
        float acc = 0.0;
        for (j = 0; j < 8; j++) {
            acc = acc + V[i*8+j] * X[COL[i*8+j]];
        }
        Y[i] = acc;
    }
}`,
	DefaultDir: hls.Directives{Unroll: 2, MemPorts: 8, Share: 1, Pipeline: true},
	Make: func(n int, rng *sim.RNG) ([]hls.Value, map[string]float64) {
		if n < 8 {
			n = 8
		}
		v := randBuf(n*8, rng)
		col := make([]float64, n*8)
		for i := range col {
			col[i] = float64(rng.Intn(n))
		}
		return []hls.Value{hls.B(v), hls.B(col), hls.B(randBuf(n, rng)),
				hls.B(make([]float64, n)), hls.S(float64(n))},
			map[string]float64{"N": float64(n)}
	},
	Golden: func(args []hls.Value, n int) (int, []float64) {
		if n < 8 {
			n = 8
		}
		v, col, x := args[0].Buf, args[1].Buf, args[2].Buf
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			var acc float64
			for j := 0; j < 8; j++ {
				acc += v[i*8+j] * x[int(col[i*8+j])]
			}
			want[i] = acc
		}
		return 3, want
	},
}

func randBuf(n int, rng *sim.RNG) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.Float64()
	}
	return b
}
