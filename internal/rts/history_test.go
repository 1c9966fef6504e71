package rts

import (
	"math"
	"math/rand"
	"testing"

	"ecoscale/internal/perfmodel"
	"ecoscale/internal/sim"
)

// refFit is the batch fit History's models must reproduce: a ridge
// regression over the rows in the order they were added, nil when there
// are fewer than 4 rows or the fit fails.
func refFit(xs [][]float64, ys []float64) *perfmodel.Regression {
	if len(xs) < 4 {
		return nil
	}
	reg := &perfmodel.Regression{Lambda: 1e-6}
	if err := reg.Fit(xs, ys); err != nil {
		return nil
	}
	return reg
}

// sameModel reports whether two models are both nil or bit-for-bit equal.
func sameModel(a, b *perfmodel.Regression) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if len(a.W) != len(b.W) || math.Float64bits(a.B) != math.Float64bits(b.B) {
		return false
	}
	for i := range a.W {
		if math.Float64bits(a.W[i]) != math.Float64bits(b.W[i]) {
			return false
		}
	}
	return true
}

// keptRows is the test's own copy of what History was given for one
// (kernel, device) pair.
type keptRows struct {
	xs [][]float64
	ts []float64
}

func (k *keptRows) add(r Record) {
	k.xs = append(k.xs, r.Features)
	k.ts = append(k.ts, float64(r.Duration))
}

// checkHistory compares every model and counter of h against the records
// kept by the test.
func checkHistory(t *testing.T, step int, h *History, kept map[string]map[Device]*keptRows, n int) {
	t.Helper()
	if h.Len() != n {
		t.Fatalf("step %d: Len = %d, want %d", step, h.Len(), n)
	}
	for kernel, byDev := range kept {
		var total sim.Time
		for _, dev := range []Device{DeviceCPU, DeviceHW} {
			k := byDev[dev]
			if k == nil {
				k = &keptRows{}
			}
			for _, d := range k.ts {
				total += sim.Time(d)
			}
			if got := h.Samples(kernel, dev); got != len(k.xs) {
				t.Fatalf("step %d: Samples(%s, %s) = %d, want %d", step, kernel, dev, got, len(k.xs))
			}
			if !sameModel(h.Model(kernel, dev), refFit(k.xs, k.ts)) {
				t.Fatalf("step %d: Model(%s, %s) differs from a batch fit", step, kernel, dev)
			}
		}
		if got := h.TotalTime(kernel); got != total {
			t.Fatalf("step %d: TotalTime(%s) = %d, want %d", step, kernel, got, total)
		}
	}
}

func TestHistoryModelMatchesFit(t *testing.T) {
	t.Run("interleaved", testHistoryInterleaved)
	t.Run("ragged-collinear", testHistoryRaggedCollinear)
}

// testHistoryInterleaved adds seeded records for two kernels on both
// devices and checks every model and counter after each Add.
func testHistoryInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := NewHistory()
	kept := map[string]map[Device]*keptRows{"fir": {}, "scale": {}, "idle": {}}
	kernels := []string{"fir", "scale"}
	for i := 0; i < 300; i++ {
		kernel, dev := kernels[rng.Intn(len(kernels))], Device(rng.Intn(2))
		ops := float64(64 + rng.Intn(1<<16))
		mem := float64(16 + rng.Intn(1<<12))
		r := Record{Kernel: kernel, Device: dev, Features: []float64{ops, mem},
			Duration: sim.Time(3*ops + 7*mem + float64(rng.Intn(1000)))}
		h.Add(r)
		if kept[kernel][dev] == nil {
			kept[kernel][dev] = &keptRows{}
		}
		kept[kernel][dev].add(r)
		checkHistory(t, i, h, kept, i+1)
	}
	if h.Model("fir", DeviceHW) == nil || h.Model("scale", DeviceCPU) == nil {
		t.Fatal("no model after 300 samples")
	}
	if h.Model("idle", DeviceCPU) != nil || h.TotalTime("idle") != 0 {
		t.Error("model or time for a kernel never recorded")
	}
}

// testHistoryRaggedCollinear checks the cases where no model exists:
// fewer than 4 samples, a ragged Features width and a singular system.
func testHistoryRaggedCollinear(t *testing.T) {
	add := func(h *History, kernel string, f []float64, d sim.Time) {
		h.Add(Record{Kernel: kernel, Device: DeviceCPU, Features: f, Duration: d})
	}
	h := NewHistory()
	for i := 0; i < 3; i++ {
		add(h, "x", []float64{float64(i), float64(2 * i * i)}, sim.Time(10+i))
		if h.Model("x", DeviceCPU) != nil {
			t.Fatalf("model from %d samples (min is 4)", i+1)
		}
	}
	add(h, "x", []float64{3, 18}, 13)
	if h.Model("x", DeviceCPU) == nil {
		t.Fatal("no model from 4 independent samples")
	}
	// One row of another width poisons the pair for good.
	add(h, "x", []float64{4, 32, 1}, 14)
	for i := 5; i < 10; i++ {
		add(h, "x", []float64{float64(i), float64(2 * i * i)}, sim.Time(10+i))
		if h.Model("x", DeviceCPU) != nil {
			t.Fatalf("model after a ragged row (%d samples)", i+1)
		}
	}
	if h.Samples("x", DeviceCPU) != 10 || h.Len() != 10 {
		t.Errorf("Samples = %d, Len = %d, want 10, 10", h.Samples("x", DeviceCPU), h.Len())
	}
	// Identical power-of-two features: the ridge term vanishes next to
	// AᵀA and the system is singular.
	const big = 1 << 20
	var xs [][]float64
	var ys []float64
	for i := 0; i < 6; i++ {
		f := []float64{big, big}
		add(h, "flat", f, sim.Time(100+i))
		xs, ys = append(xs, f), append(ys, float64(100+i))
	}
	if refFit(xs, ys) != nil {
		t.Fatal("reference fit of collinear rows succeeded; the case does not test a failed fit")
	}
	if h.Model("flat", DeviceCPU) != nil {
		t.Error("model from collinear features")
	}
	if got := h.TotalTime("x"); got != 10+11+12+13+14+15+16+17+18+19 {
		t.Errorf("TotalTime(x) = %d", got)
	}
}

func TestHistoryZeroAlloc(t *testing.T) {
	h := NewHistory()
	f := []float64{1, 2}
	for i := 0; i < 8; i++ {
		f[0], f[1] = float64(100+17*i), float64(3*i*i)
		h.Add(Record{Kernel: "k", Device: DeviceHW, Features: f, Duration: sim.Time(50 + i*i)})
	}
	if h.Model("k", DeviceHW) == nil {
		t.Fatal("no model from 8 samples")
	}
	if a := testing.AllocsPerRun(100, func() {
		h.Model("k", DeviceHW)
		h.Samples("k", DeviceHW)
		h.TotalTime("k")
	}); a != 0 {
		t.Errorf("model lookups on an unchanged history allocate %v times, want 0", a)
	}
	r := Record{Kernel: "k", Device: DeviceHW, Features: f, Duration: 77}
	if a := testing.AllocsPerRun(100, func() { h.Add(r) }); a != 0 {
		t.Errorf("Add to an existing pair allocates %v times, want 0", a)
	}
}
