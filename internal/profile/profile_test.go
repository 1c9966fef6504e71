package profile

import (
	"math/rand"
	"strings"
	"testing"

	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

func span(cat string, start, end int64, name string, pid int) trace.Span {
	return trace.Span{Name: name, Cat: cat, Start: start, End: end, PID: pid}
}

// TestCriticalPathAttribution pins the sweep's choices on a hand-built
// scenario: work beats transfers beats queueing, gaps become idle, and
// the segments exactly tile the window.
func TestCriticalPathAttribution(t *testing.T) {
	spans := []trace.Span{
		span(trace.CatQueue, 0, 90, "k", 1),
		span(trace.CatCompute, 10, 50, "k", 1),
		span(trace.CatDMA, 40, 80, "stream-read", 1),
		span(trace.CatTask, 0, 100, "k", 1), // envelope: widens window only
	}
	cp := CriticalPath(spans)
	if cp.Start != 0 || cp.End != 100 {
		t.Fatalf("window [%d,%d], want [0,100]", cp.Start, cp.End)
	}
	want := map[Category]int64{Compute: 40, NoC: 30, Queue: 20, Idle: 10}
	for c, ps := range want {
		if got := cp.CategoryTime(c); got != ps {
			t.Errorf("%v: %d ps, want %d", c, got, ps)
		}
	}
	var sum int64
	for c := Category(0); c < numCategories; c++ {
		sum += cp.CategoryTime(c)
	}
	if sum != cp.Makespan() {
		t.Errorf("category times sum to %d, makespan %d", sum, cp.Makespan())
	}
}

// TestCriticalPathTilesWindow fuzzes random span sets and checks the
// invariants the report depends on: segments are contiguous, cover the
// window exactly, and per-category times equal segment sums.
func TestCriticalPathTilesWindow(t *testing.T) {
	cats := []string{trace.CatQueue, trace.CatCompute, trace.CatDMA,
		trace.CatCoh, trace.CatSMMU, trace.CatReconfig, trace.CatSteal, trace.CatTask}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		spans := make([]trace.Span, n)
		for i := range spans {
			start := int64(rng.Intn(1000))
			spans[i] = span(cats[rng.Intn(len(cats))], start, start+int64(rng.Intn(200)), "x", rng.Intn(3))
		}
		cp := CriticalPath(spans)
		if cp.Makespan() == 0 {
			continue
		}
		if len(cp.Segments) == 0 {
			t.Fatalf("trial %d: no segments over window %d", trial, cp.Makespan())
		}
		if cp.Segments[0].Start != cp.Start || cp.Segments[len(cp.Segments)-1].End != cp.End {
			t.Fatalf("trial %d: segments do not span window", trial)
		}
		var sum int64
		for i, s := range cp.Segments {
			if s.End <= s.Start {
				t.Fatalf("trial %d: empty segment %+v", trial, s)
			}
			if i > 0 && cp.Segments[i-1].End != s.Start {
				t.Fatalf("trial %d: gap between segments %d and %d", trial, i-1, i)
			}
			sum += s.Dur()
		}
		if sum != cp.Makespan() {
			t.Fatalf("trial %d: segments sum %d != makespan %d", trial, sum, cp.Makespan())
		}
	}
}

// TestCriticalPathDeterminism: same spans, same path, byte-identical
// report.
func TestCriticalPathDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spans := make([]trace.Span, 300)
	cats := []string{trace.CatQueue, trace.CatCompute, trace.CatDMA, trace.CatSMMU}
	for i := range spans {
		start := int64(rng.Intn(5000))
		spans[i] = span(cats[i%len(cats)], start, start+int64(rng.Intn(400)), "x", i%4)
	}
	a, b := CriticalPath(spans), CriticalPath(spans)
	if len(a.Segments) != len(b.Segments) {
		t.Fatal("segment counts differ")
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			t.Fatalf("segment %d differs: %+v vs %+v", i, a.Segments[i], b.Segments[i])
		}
	}
}

func TestWhatIf(t *testing.T) {
	spans := []trace.Span{
		span(trace.CatCompute, 0, 40, "k", 1),
		span(trace.CatTask, 0, 100, "k", 1),
	}
	cp := CriticalPath(spans)
	if got := cp.WhatIf(Compute, 2); got != 0.8 {
		t.Errorf("WhatIf(Compute, 2) = %v, want 0.8", got)
	}
	if got := cp.WhatIf(NoC, 2); got != 1 {
		t.Errorf("WhatIf(NoC, 2) = %v, want 1 (no NoC time)", got)
	}
}

func TestLaneUtilization(t *testing.T) {
	spans := []trace.Span{
		span(trace.CatCompute, 0, 50, "k", 1),
		span(trace.CatCompute, 25, 75, "k", 1), // overlaps: union 75, peak 2
		span(trace.CatDMA, 10, 20, "s", 2),
	}
	lanes := LaneUtilization(spans, 0, 100)
	if len(lanes) != 2 {
		t.Fatalf("%d lanes, want 2", len(lanes))
	}
	cpu := lanes[0]
	if cpu.PID != 1 || cpu.Track != "busy cpu" || cpu.BusyPs != 75 || cpu.Peak != 2 {
		t.Errorf("cpu lane: %+v", cpu)
	}
	if lanes[1].BusyPs != 10 || lanes[1].Peak != 1 {
		t.Errorf("dma lane: %+v", lanes[1])
	}
}

// TestEmitCounterTracks checks coalescing and that the Chrome export
// carries ph:"C" events.
func TestEmitCounterTracks(t *testing.T) {
	tr := trace.NewTracer()
	tr.Add(span(trace.CatCompute, 0, 50, "k", 1))
	tr.Add(span(trace.CatCompute, 50, 80, "k", 1)) // back-to-back: no dip to 0 spike at 50
	EmitCounterTracks(tr)
	cs := tr.CounterSamples()
	if len(cs) != 3 {
		t.Fatalf("%d samples, want 3 (0→1, 50→1, 80→0)", len(cs))
	}
	if cs[1].At != 50 || cs[1].Value != 1 {
		t.Errorf("coalesced sample at 50: %+v", cs[1])
	}
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"ph":"C"`) {
		t.Error("export missing counter events")
	}
}

// TestSamplerDoesNotPerturb runs the same event pattern with and
// without the sampler and checks event count and final time match,
// while the sampler still collected samples and gauges.
func TestSamplerDoesNotPerturb(t *testing.T) {
	run := func(withSampler bool) (uint64, sim.Time, *Sampler) {
		eng := sim.NewEngine(1)
		depth := 0
		for i := 0; i < 100; i++ {
			d := sim.Time(i) * sim.Microsecond
			eng.At(d, func() { depth++ })
		}
		var sp *Sampler
		if withSampler {
			reg := trace.NewRegistry()
			sp = NewSampler(eng, 10*sim.Microsecond, reg, nil)
			sp.AddProbe("depth", 0, func() float64 { return float64(depth) })
			sp.Arm()
		}
		end := eng.RunUntilIdle()
		return eng.EventsRun(), end, sp
	}
	ran0, end0, _ := run(false)
	ran1, end1, sp := run(true)
	if ran0 != ran1 {
		t.Errorf("event counts differ: %d vs %d", ran0, ran1)
	}
	if end0 != end1 {
		t.Errorf("final times differ: %v vs %v", end0, end1)
	}
	if sp.Samples() < 9 {
		t.Errorf("only %d samples", sp.Samples())
	}
	g := sp.Reg.Gauge("prof.depth")
	if !g.Seen() || g.TimeWeightedMean() <= 0 {
		t.Errorf("gauge not populated: %+v", g)
	}
	if !strings.Contains(sp.Table().String(), "depth") {
		t.Error("sampler table missing probe row")
	}
}

// TestBottleneckReportStable renders the report twice from one profiler
// input and expects byte-identical output.
func TestBottleneckReportStable(t *testing.T) {
	mk := func() *Profiler {
		eng := sim.NewEngine(3)
		tr := trace.NewTracer()
		tr.SetProcessName(1, "worker 0")
		tr.Add(span(trace.CatQueue, 0, 30, "k", 1))
		tr.Add(span(trace.CatCompute, 30, 90, "k", 1))
		tr.Add(span(trace.CatDMA, 60, 120, "stream-write", 1))
		p := New(eng, tr, trace.NewRegistry(), 0)
		return p
	}
	a, b := mk().BottleneckReport(), mk().BottleneckReport()
	if a != b {
		t.Fatalf("reports differ:\n%s\n---\n%s", a, b)
	}
	for _, want := range []string{"critical path by category", "compute", "noc", "worker 0"} {
		if !strings.Contains(a, want) {
			t.Errorf("report missing %q:\n%s", want, a)
		}
	}
}
