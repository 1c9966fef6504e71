package hls

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunVecAdd(t *testing.T) {
	k := MustParse(srcVecAdd)
	a := []float64{1, 2, 3, 4}
	b := []float64{10, 20, 30, 40}
	c := make([]float64, 4)
	st, err := Run(k, []Value{B(a), B(b), B(c), S(4)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if c[i] != a[i]+b[i] {
			t.Errorf("c[%d] = %v", i, c[i])
		}
	}
	if st.Loads != 8 || st.Stores != 4 {
		t.Errorf("loads/stores = %d/%d, want 8/4", st.Loads, st.Stores)
	}
	if st.Ops == 0 {
		t.Error("no ops counted")
	}
}

func TestRunDot(t *testing.T) {
	k := MustParse(srcDot)
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	out := make([]float64, 1)
	if _, err := Run(k, []Value{B(a), B(b), B(out), S(3)}); err != nil {
		t.Fatal(err)
	}
	if out[0] != 32 {
		t.Errorf("dot = %v, want 32", out[0])
	}
}

func TestRunMatMul(t *testing.T) {
	k := MustParse(srcMatMul)
	n := 4
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) + 1
		b[i] = float64(i%5) + 1
	}
	if _, err := Run(k, []Value{B(a), B(b), B(c), S(float64(n))}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want float64
			for kk := 0; kk < n; kk++ {
				want += a[i*n+kk] * b[kk*n+j]
			}
			if math.Abs(c[i*n+j]-want) > 1e-9 {
				t.Fatalf("C[%d,%d] = %v, want %v", i, j, c[i*n+j], want)
			}
		}
	}
}

func TestRunIfElse(t *testing.T) {
	k := MustParse(`
kernel relu(global float* A, int N) {
    for (i = 0; i < N; i++) {
        if (A[i] < 0.0) { A[i] = 0.0; }
    }
}`)
	a := []float64{-1, 2, -3, 4}
	if _, err := Run(k, []Value{B(a), S(4)}); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 0, 4}
	for i := range a {
		if a[i] != want[i] {
			t.Errorf("a[%d] = %v, want %v", i, a[i], want[i])
		}
	}
}

func TestRunBuiltins(t *testing.T) {
	k := MustParse(`
kernel f(global float* A, int N) {
    A[0] = sqrt(16.0);
    A[1] = exp(0.0);
    A[2] = log(1.0);
    A[3] = abs(0.0 - 5.0);
    A[4] = min(3.0, 7.0);
    A[5] = max(3.0, 7.0);
    A[6] = floor(2.9);
}`)
	a := make([]float64, 7)
	if _, err := Run(k, []Value{B(a), S(0)}); err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 1, 0, 5, 3, 7, 2}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("A[%d] = %v, want %v", i, a[i], want[i])
		}
	}
}

func TestRunLogicalShortCircuit(t *testing.T) {
	// RHS of && would divide by zero; short-circuit must skip it.
	k := MustParse(`
kernel f(global float* A, int N) {
    if (N > 0 && 1 / N > 0) { A[0] = 1.0; }
    if (N == 0 || 1 / N > 0) { A[1] = 1.0; }
}`)
	a := make([]float64, 2)
	if _, err := Run(k, []Value{B(a), S(0)}); err != nil {
		t.Fatalf("short-circuit failed: %v", err)
	}
	if a[0] != 0 || a[1] != 1 {
		t.Errorf("a = %v", a)
	}
}

func TestRunIntTruncation(t *testing.T) {
	k := MustParse(`
kernel f(global float* A, int N) {
    int half = N / 2;
    A[0] = half;
    A[1] = N % 3;
}`)
	a := make([]float64, 2)
	if _, err := Run(k, []Value{B(a), S(7)}); err != nil {
		t.Fatal(err)
	}
	if a[0] != 3.5 { // int division of float64 7/2 — declared int truncates
		// 7/2 = 3.5 then int decl truncates to 3
		t.Logf("half stored as %v", a[0])
	}
	if a[0] != 3 {
		t.Errorf("int decl did not truncate: %v", a[0])
	}
	if a[1] != 1 {
		t.Errorf("7 %% 3 = %v", a[1])
	}
}

// TestRunErrors pins every runtime error's exact text. Where one source
// could fail two ways, the row fixes which check fires first.
func TestRunErrors(t *testing.T) {
	defer SetMaxIterations(1000)()
	one := func() []Value { return []Value{B(make([]float64, 1)), S(3)} }
	cases := map[string]struct {
		src  string
		args []Value
		want string
	}{
		"arg count":       {srcVecAdd, []Value{S(1)}, "hls: kernel vecadd takes 4 args, got 1"},
		"buffer expected": {srcVecAdd, []Value{S(1), S(2), S(3), S(4)}, "hls: arg 0 (A) must be a buffer"},
		"oob": {`kernel f(global float* A, int N) { A[N] = 1.0; }`,
			[]Value{B(make([]float64, 2)), S(5)}, `hls: index 5 out of range for buffer "A" (len 2)`},
		"negative index": {`kernel f(global float* A, int N) { A[0] = A[0 - N]; }`,
			one(), `hls: index -3 out of range for buffer "A" (len 1)`},
		"div zero": {`kernel f(global float* A, int N) { A[0] = 1.0 / (N - N); }`,
			one(), "hls: division by zero"},
		"mod zero": {`kernel f(global float* A, int N) { A[0] = 5 % (N - N); }`,
			one(), "hls: modulo by zero"},
		"mod fractional": {`kernel f(global float* A, int N) { A[0] = 5 % 0.5; }`,
			one(), "hls: modulo by zero"},
		"undef var": {`kernel f(global float* A, int N) { A[0] = q; }`,
			one(), `hls: undefined variable "q"`},
		"undef on untaken branch": {`kernel f(global float* A, int N) { if (N > 10) { float z = 1.0; } A[0] = z; }`,
			one(), `hls: undefined variable "z"`},
		"buffer as scalar": {`kernel f(global float* A, int N) { A[0] = A + 1.0; }`,
			one(), `hls: buffer "A" used as scalar`},
		"sqrt neg": {`kernel f(global float* A, int N) { A[0] = sqrt(0.0 - 1.0); }`,
			one(), "hls: sqrt of negative -1"},
		"log nonpos": {`kernel f(global float* A, int N) { A[0] = log(0.0); }`,
			one(), "hls: log of non-positive 0"},
		"scalar as buffer": {`kernel f(global float* A, int N) { A[0] = N[0]; }`,
			one(), `hls: "N" is not a buffer`},
		"not a buffer before index": {`kernel f(global float* A, int N) { A[0] = N[q]; }`,
			one(), `hls: "N" is not a buffer`},
		"value before target": {`kernel f(global float* A, int N) { Q[q] = r; }`,
			one(), `hls: undefined variable "r"`},
		"local shadows buffer": {`kernel f(global float* A, int N) { local float A[4]; }`,
			one(), `hls: local array "A" shadows a buffer`},
		"local shadows scalar": {`kernel f(global float* A, int N) { local float N[4]; }`,
			one(), `hls: local array "N" shadows a scalar`},
		"iteration budget": {`kernel f(global float* A, int N) { for (i = 0; i < 1; i = i * 1) { A[0] = i; } }`,
			one(), "hls: kernel exceeded 1000 loop iterations"},
	}
	for name, c := range cases {
		k, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		_, err = Run(k, c.args)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", name, err, c.want)
		}
	}
}

// The iteration bound covers the whole Run, not each loop: a nest whose
// loops each stay under it must still be stopped once their product
// exceeds it, and a nest that fits must still finish.
func TestRunInfiniteLoopGuard(t *testing.T) {
	old := maxIterations
	maxIterations = 1000
	defer func() { maxIterations = old }()
	nested := MustParse(`kernel f(global float* A, int N) {
    for (i = 0; i < N; i++) {
        for (j = 0; j < N; j++) {
            A[0] = A[0] + 1.0;
        }
    }
}`)
	runaway := map[string]struct {
		k *Kernel
		n float64
	}{
		"non-terminating": {MustParse(`kernel f(global float* A, int N) { for (i = 0; i < 1; i = i * 1) { A[0] = i; } }`), 0},
		"900x900 nest":    {nested, 900},
	}
	for name, c := range runaway {
		if _, err := Run(c.k, []Value{B(make([]float64, 1)), S(c.n)}); err == nil {
			t.Errorf("%s: loop over a 1000-iteration budget did not error", name)
		}
	}
	a := make([]float64, 1)
	if _, err := Run(nested, []Value{B(a), S(30)}); err != nil { // 30 + 30*30 = 930
		t.Errorf("30x30 nest within budget: %v", err)
	}
	if a[0] != 900 {
		t.Errorf("30x30 nest: A[0] = %v, want 900", a[0])
	}
}

// Property: vecadd through the interpreter equals Go-native addition for
// arbitrary inputs — the reference-semantics check.
func TestInterpreterMatchesNativeProperty(t *testing.T) {
	k := MustParse(srcVecAdd)
	prop := func(raw []float64) bool {
		n := len(raw)
		if n == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := append([]float64(nil), raw...)
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i)
		}
		c := make([]float64, n)
		if _, err := Run(k, []Value{B(a), B(b), B(c), S(float64(n))}); err != nil {
			return false
		}
		for i := range c {
			if c[i] != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
