package workload

import (
	"fmt"
	"math"
	"testing"

	"ecoscale/internal/fabric"
	"ecoscale/internal/hls"
	"ecoscale/internal/sim"
)

// runSW executes w in software for size n and verifies the result
// against the golden model, returning the dynamic op stats.
func runSW(w Workload, n int, rng *sim.RNG) (hls.RunStats, error) {
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

// TestAllKernelsParseSynthesizeAndVerify is the core soundness check:
// every workload kernel parses, synthesizes under its default
// directives, runs in software, and matches its native golden model.
func TestAllKernelsParseSynthesizeAndVerify(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, w := range Registry() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			k := w.Kernel()
			if k.Name != w.Name {
				t.Errorf("kernel name %q != workload name %q", k.Name, w.Name)
			}
			im, err := hls.Synthesize(k, w.DefaultDir)
			if err != nil {
				t.Fatalf("synthesize: %v", err)
			}
			if im.Area.IsZero() {
				t.Error("zero-area implementation")
			}
			n := 16
			if w.Name == "matmul" || w.Name == "stencil2d" {
				n = 8
			}
			if _, err := runSW(w, n, rng); err != nil {
				t.Fatalf("runSW: %v", err)
			}
		})
	}
}

// TestCycleModelsEvaluate checks every kernel's HW cycle model evaluates
// at its binding set (needed by the runtime's oracle and benches).
func TestCycleModelsEvaluate(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, w := range Registry() {
		im, err := hls.Synthesize(w.Kernel(), w.DefaultDir)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		_, bindings := w.Make(16, rng)
		cycles, err := im.Cycles(bindings)
		if err != nil {
			t.Errorf("%s: cycle model failed: %v", w.Name, err)
			continue
		}
		if cycles <= 0 {
			t.Errorf("%s: non-positive cycles %d", w.Name, cycles)
		}
	}
}

// TestHWSpeedupExistsSomewhere: at least the streaming kernels must have
// an implementation that beats the CPU model at large N — otherwise
// every dispatch experiment degenerates.
func TestHWSpeedupExistsSomewhere(t *testing.T) {
	cpu := hls.DefaultCPUModel()
	rng := sim.NewRNG(2)
	for _, w := range []Workload{VecAdd, Reduce, Dot} {
		im, err := hls.Fastest(w.Kernel(), fabric.DefaultConfig().PerRegion.Scale(32), map[string]float64{"N": 65536})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		st, err := runSW(w, 4096, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Scale the measured op mix to N=65536.
		factor := 65536.0 / 4096.0
		stBig := hls.RunStats{
			Ops:   uint64(float64(st.Ops) * factor),
			Loads: uint64(float64(st.Loads) * factor), Stores: uint64(float64(st.Stores) * factor),
		}
		hwT, err := im.Time(map[string]float64{"N": 65536})
		if err != nil {
			t.Fatal(err)
		}
		if hwT >= cpu.Time(stBig) {
			t.Errorf("%s: best HW (%v) does not beat CPU (%v) at N=64K", w.Name, hwT, cpu.Time(stBig))
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("matmul")
	if err != nil || w.Name != "matmul" {
		t.Errorf("ByName failed: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestMonteCarloConverges(t *testing.T) {
	// The MC price with many paths should approach Black-Scholes
	// (~8.02 for S=100, K=105, r=5%, σ=20%, T=1).
	rng := sim.NewRNG(3)
	args, _ := MonteCarlo.Make(200000, rng)
	if _, err := hls.Run(MonteCarlo.Kernel(), args); err != nil {
		t.Fatal(err)
	}
	price := args[1].Buf[0]
	if price < 7.5 || price > 8.6 {
		t.Errorf("MC price = %v, want ~8.0", price)
	}
}

func TestCARTSplitSeparates(t *testing.T) {
	rng := sim.NewRNG(4)
	args, _ := CARTSplit.Make(2000, rng)
	if _, err := hls.Run(CARTSplit.Kernel(), args); err != nil {
		t.Fatal(err)
	}
	out := args[2].Buf
	// The 0.5 threshold on a correlated feature must produce impurity
	// well below the 0.5 maximum, and use both sides.
	if out[0] >= 0.35 {
		t.Errorf("gini = %v, split is uninformative", out[0])
	}
	if out[1] == 0 || out[2] == 0 {
		t.Error("split put everything on one side")
	}
	if out[1]+out[2] != 2000 {
		t.Errorf("counts %v+%v != N", out[1], out[2])
	}
}
