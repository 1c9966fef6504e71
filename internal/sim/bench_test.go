package sim_test

// Kernel micro-benchmarks and the two kernel gates built on them.
//
// Each workload shape is written once, as a constructor that sets up an
// engine for n events and returns the timed part. The BenchmarkEngine*/
// BenchmarkResource* group measures the production kernel; the
// BenchmarkHeapRef* group measures the frozen container/heap reference
// kernel on the same shapes:
//
//	go test -run X -bench 'Engine|Resource' -benchmem ./internal/sim
//	go test -run X -bench 'HeapRef'         -benchmem ./internal/sim
//
// TestKernelZeroAlloc requires exactly 0 allocations on the steady-state
// paths, and BenchmarkKernelSpeedup (`make bench-smoke`) fails when the
// production kernel's speedup over heapref drops below its floor.

import (
	"runtime"
	"testing"
	"time"

	"ecoscale/internal/sim"
	"ecoscale/internal/sim/heapref"
)

// tickState drives a self-rescheduling event chain through the zero-alloc
// AtCall/AfterCall path: one static function, one pooled argument.
type tickState struct {
	e     *sim.Engine
	n     int
	limit int
	delay sim.Time
}

func tickFn(a any) {
	s := a.(*tickState)
	s.n++
	if s.n < s.limit {
		s.e.AfterCall(s.delay, tickFn, s)
	}
}

func deepTickFn(a any) {
	s := a.(*tickState)
	s.n++
	if s.n < s.limit {
		s.e.AfterCall(sim.Time(1+s.n&63), deepTickFn, s)
	}
}

// useState drives a self-sustaining stream of Resource.UseCall operations.
type useState struct {
	r     *sim.Resource
	n     int
	limit int
}

func useTickFn(a any) {
	s := a.(*useState)
	s.n++
	if s.n < s.limit {
		s.r.UseCall(10, useTickFn, s)
	}
}

// The shapes below each build one engine and return a function that runs
// n events on it. The returned function may be called again: every call
// restarts the workload on the same, by then warmed-up, engine.

// engineScheduleFire is the canonical steady-state hot path: one
// schedule and one fire per event with a near-empty queue.
func engineScheduleFire(n int) func() {
	e := sim.NewEngine(1)
	s := &tickState{e: e, limit: n, delay: 1}
	return func() {
		s.n = 0
		e.AfterCall(1, tickFn, s)
		e.RunUntilIdle()
	}
}

// engineDeepQueue keeps ~1024 events in flight over 64 staggered delays.
// Some delays collide in the lane table, so both the lane rings and a
// loaded 4-ary heap carry events.
func engineDeepQueue(n int) func() {
	e := sim.NewEngine(1)
	s := &tickState{e: e, limit: n}
	return func() {
		s.n = 0
		for i := 0; i < 1024; i++ {
			e.AfterCall(sim.Time(1+i&63), deepTickFn, s)
		}
		e.RunUntilIdle()
	}
}

// engineOneDelay keeps 1024 events in flight on a single delay, E2's
// shape: after the staggered start every event rides one delay lane, so
// the heap holds only the lane head and the rest wait in its ring.
func engineOneDelay(n int) func() {
	e := sim.NewEngine(1)
	s := &tickState{e: e, limit: n, delay: 1024}
	return func() {
		s.n = 0
		for i := 0; i < 1024; i++ {
			e.AtCall(e.Now()+sim.Time(i), tickFn, s)
		}
		e.RunUntilIdle()
	}
}

// engineCancel measures the O(1) lazy-cancel path: per event, two
// schedules, one cancel, and one fire (which also prunes the stale entry).
func engineCancel(n int) func() {
	e := sim.NewEngine(1)
	fn := func(any) {}
	return func() {
		for i := 0; i < n; i++ {
			e.AtCall(e.Now()+1, fn, nil)
			dead := e.AtCall(e.Now()+2, fn, nil)
			e.Cancel(dead)
			e.Step()
		}
	}
}

// resourceUse keeps streams Use streams on a resource of the given
// capacity. With more streams than capacity every grant goes through the
// waiter ring, whose cells are a one-time warm-up cost.
func resourceUse(n, capacity, streams int) func() {
	e := sim.NewEngine(1)
	r := sim.NewResource(e, "port", capacity)
	s := &useState{r: r, limit: n}
	return func() {
		s.n = 0
		for i := 0; i < streams; i++ {
			r.UseCall(10, useTickFn, s)
		}
		e.RunUntilIdle()
	}
}

// resourceUseClosure is resourceUse through the closure adapter Use: one
// closure, built once, keeps streams Use streams on the resource.
func resourceUseClosure(n, capacity, streams int) func() {
	e := sim.NewEngine(1)
	r := sim.NewResource(e, "port", capacity)
	c := 0
	var tick func()
	tick = func() {
		c++
		if c < n {
			r.Use(10, tick)
		}
	}
	return func() {
		c = 0
		for i := 0; i < streams; i++ {
			r.Use(10, tick)
		}
		e.RunUntilIdle()
	}
}

// --- the same shapes on the container/heap reference kernel ---

func heapRefScheduleFire(n int) func() {
	e := heapref.NewEngine()
	c := 0
	var tick func()
	tick = func() {
		c++
		if c < n {
			e.After(1, tick)
		}
	}
	return func() {
		c = 0
		e.After(1, tick)
		e.RunUntilIdle()
	}
}

func heapRefDeepQueue(n int) func() {
	e := heapref.NewEngine()
	c := 0
	var tick func()
	tick = func() {
		c++
		if c < n {
			e.After(sim.Time(1+c&63), tick)
		}
	}
	return func() {
		c = 0
		for i := 0; i < 1024; i++ {
			e.After(sim.Time(1+i&63), tick)
		}
		e.RunUntilIdle()
	}
}

func heapRefCancel(n int) func() {
	e := heapref.NewEngine()
	fn := func() {}
	return func() {
		for i := 0; i < n; i++ {
			e.At(e.Now()+1, fn)
			dead := e.At(e.Now()+2, fn)
			e.Cancel(dead)
			e.Step()
		}
	}
}

// benchShape times one run of shape over b.N events, excluding set-up.
func benchShape(b *testing.B, shape func(n int) func()) {
	run := shape(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	run()
}

func BenchmarkEngineScheduleFire(b *testing.B) { benchShape(b, engineScheduleFire) }

// BenchmarkEngineScheduleFireClosure is the schedule→fire chain through
// the closure-based After; the closure is created once, so this isolates
// the dispatch cost rather than per-event boxing.
func BenchmarkEngineScheduleFireClosure(b *testing.B) {
	e := sim.NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(1, tick)
	e.RunUntilIdle()
}

func BenchmarkEngineDeepQueue(b *testing.B) { benchShape(b, engineDeepQueue) }

func BenchmarkEngineOneDelay(b *testing.B) { benchShape(b, engineOneDelay) }

func BenchmarkEngineCancel(b *testing.B) { benchShape(b, engineCancel) }

// BenchmarkResourceUseContended keeps 8 Use streams on a capacity-4
// resource: every grant goes through the waiter ring.
func BenchmarkResourceUseContended(b *testing.B) {
	benchShape(b, func(n int) func() { return resourceUse(n, 4, 8) })
}

// BenchmarkResourceUseUncontended grants every Use immediately (4 streams
// on capacity 8): acquire→hold→release→notify with no waiter traffic.
func BenchmarkResourceUseUncontended(b *testing.B) {
	benchShape(b, func(n int) func() { return resourceUse(n, 8, 4) })
}

func BenchmarkHeapRefScheduleFire(b *testing.B) { benchShape(b, heapRefScheduleFire) }

func BenchmarkHeapRefDeepQueue(b *testing.B) { benchShape(b, heapRefDeepQueue) }

func BenchmarkHeapRefCancel(b *testing.B) { benchShape(b, heapRefCancel) }

// TestKernelZeroAlloc enforces the zero-alloc contract of docs/perf.md:
// once an engine is warmed up, a thousand events on each steady-state
// path allocate nothing at all.
func TestKernelZeroAlloc(t *testing.T) {
	const events = 1000
	for _, c := range []struct {
		name  string
		shape func(n int) func()
	}{
		{"schedule_fire", engineScheduleFire},
		{"schedule_cancel_fire", engineCancel},
		{"deep_queue_1024", engineDeepQueue},
		{"one_delay_1024", engineOneDelay},
		{"resource_use_contended", func(n int) func() { return resourceUse(n, 4, 8) }},
		{"resource_use_closure", func(n int) func() { return resourceUseClosure(n, 4, 8) }},
	} {
		// AllocsPerRun makes one warm-up call, then measures one call of
		// the whole workload, so any allocation at all fails.
		if got := testing.AllocsPerRun(1, c.shape(events)); got != 0 {
			t.Errorf("%s: %v allocations over %d warmed-up events, want 0", c.name, got, events)
		}
	}
}

// speedupFloors are the lowest accepted production-over-heapref speedups:
// 85% of the lowest ratio of ten `make bench-smoke` passes on a 2-CPU
// host (schedule_fire 2.28, schedule_cancel_fire 2.05). A floor is never
// lowered: deep_queue_1024's lowest ratio there, 1.40, would give 1.19,
// so it keeps its earlier floor of 1.25.
var speedupFloors = []struct {
	name            string
	floor           float64
	engine, heapRef func(n int) func()
}{
	{"schedule_fire", 1.93, engineScheduleFire, heapRefScheduleFire},
	{"deep_queue_1024", 1.25, engineDeepQueue, heapRefDeepQueue},
	{"schedule_cancel_fire", 1.74, engineCancel, heapRefCancel},
}

// BenchmarkKernelSpeedup gates the production kernel against the frozen
// heapref kernel on the same host and in the same run, so the host
// cancels out of the ratio. Each shape runs 200k events per kernel in
// three interleaved rounds; the best round of each kernel counts. It
// reports every ratio and fails when one is below its floor. It is a
// benchmark rather than a test so that `go test ./...`, which runs
// packages concurrently, never depends on timing:
//
//	go test -run '^$' -bench '^BenchmarkKernelSpeedup$' -benchtime 1x ./internal/sim
func BenchmarkKernelSpeedup(b *testing.B) {
	const events, rounds = 200_000, 3
	timeRun := func(shape func(n int) func()) time.Duration {
		run := shape(events)
		runtime.GC()
		t0 := time.Now()
		run()
		return time.Since(t0)
	}
	for i := 0; i < b.N; i++ {
		for _, s := range speedupFloors {
			var bestEng, bestRef time.Duration
			for r := 0; r < rounds; r++ {
				if d := timeRun(s.engine); r == 0 || d < bestEng {
					bestEng = d
				}
				if d := timeRun(s.heapRef); r == 0 || d < bestRef {
					bestRef = d
				}
			}
			ratio := float64(bestRef) / float64(bestEng)
			b.ReportMetric(ratio, s.name+"_speedup")
			if ratio < s.floor {
				b.Fatalf("%s: production kernel is %.2fx heapref, below the %.2fx floor", s.name, ratio, s.floor)
			}
		}
	}
}
