// Command simbench measures the event-kernel hot paths and writes the
// results as JSON (BENCH_sim.json via `make bench-json`). Every workload
// runs twice — once on the production pooled 4-ary kernel (internal/sim)
// and, where the shape exists there, once on the frozen container/heap
// reference kernel (internal/sim/heapref) — so the file always carries
// the "old" numbers next to the current ones and a speedup ratio, on the
// same host. It also times a sequential E-suite subset end-to-end so
// kernel-level wins can be sanity-checked against whole-experiment wall
// time, and times the same subset cold-vs-warm against the
// content-addressed result cache (the cache_warm series).
//
// Usage:
//
//	simbench                      # full run, writes BENCH_sim.json
//	simbench -out -               # write JSON to stdout
//	simbench -quick               # smoke mode (fewer events, E2 only)
//	simbench -events N -rounds R  # tune measurement effort
//	simbench -esuite E2,E3        # choose the timed experiment subset
//	simbench -rsuite R1,R3        # choose the timed resilience subset
//
// Measurement is a plain wall-clock + runtime.MemStats loop (best of
// -rounds), not testing.Benchmark, so the binary needs no testing flags
// and smoke mode stays fast.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"ecoscale"
	"ecoscale/internal/cas"
	"ecoscale/internal/experiments"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
	"ecoscale/internal/runner"
	"ecoscale/internal/sim"
	"ecoscale/internal/sim/heapref"
	"ecoscale/internal/trace"
)

// benchResult is one (workload, engine) measurement.
type benchResult struct {
	Workload       string  `json:"workload"`
	Engine         string  `json:"engine"`
	Events         uint64  `json:"events"`
	WallSeconds    float64 `json:"wall_seconds"`
	NsPerEvent     float64 `json:"ns_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
}

// report is the BENCH_sim.json document.
type report struct {
	Schema    string             `json:"schema"`
	GoVersion string             `json:"go_version"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	CPUs      int                `json:"cpus"`
	Events    int                `json:"events_per_workload"`
	Rounds    int                `json:"rounds"`
	Kernel    []benchResult      `json:"kernel"`
	Speedup   map[string]float64 `json:"speedup_events_per_sec"`
	ESuite    *esuiteResult      `json:"esuite,omitempty"`
	RSuite    *esuiteResult      `json:"r_suite_wall,omitempty"`
	// CacheWarm times the same E-suite subset twice against a fresh
	// content-addressed result cache: the cold pass simulates and
	// populates it, the warm pass must be served entirely from it with
	// byte-identical tables (a mismatch aborts the benchmark). The
	// wall-clock fields are host-bound — benchcmp only compares the
	// speedup across runs with matching procs.
	CacheWarm *cacheWarmResult  `json:"cache_warm,omitempty"`
	Footprint []footprintResult `json:"machine_footprint,omitempty"`
}

// footprintResult is one point of the flyweight weak-scaling series:
// heap cost of an untouched machine, plus (at the largest size) a sparse
// E2-style run proving the machine is usable, not just constructible.
type footprintResult struct {
	Workers        int     `json:"workers"`
	ComputeNodes   int     `json:"compute_nodes"`
	HeapBytes      uint64  `json:"heap_bytes"`
	BytesPerWorker float64 `json:"bytes_per_worker"`
	BuildSeconds   float64 `json:"build_seconds"`
	// Weak-scaling run: Tasks CPU tasks spread across the machine.
	Tasks       int     `json:"tasks,omitempty"`
	LiveWorkers int     `json:"live_workers,omitempty"`
	RunSeconds  float64 `json:"run_seconds,omitempty"`
	SimEvents   uint64  `json:"sim_events,omitempty"`
}

type esuiteResult struct {
	Experiments []string `json:"experiments"`
	Parallel    int      `json:"parallel"`
	Points      uint64   `json:"points"`
	WallSeconds float64  `json:"wall_seconds"`
}

// cacheWarmResult is the cold-vs-warm result-cache measurement.
type cacheWarmResult struct {
	Experiments []string `json:"experiments"`
	Parallel    int      `json:"parallel"`
	Procs       int      `json:"procs"`
	Points      uint64   `json:"points"`
	ColdSeconds float64  `json:"cold_seconds"`
	WarmSeconds float64  `json:"warm_seconds"`
	Speedup     float64  `json:"speedup_cold_over_warm"`
	Hits        uint64   `json:"hits"`
	Misses      uint64   `json:"misses"`
	BytesOnDisk uint64   `json:"bytes_written"`
}

// cacheWarmSeries runs the selected experiments twice against a fresh
// cas store in a temp directory: cold (simulating, populating) then
// warm (cache-served). The two passes must render byte-identical
// tables; a divergence is a cache-correctness bug and aborts.
func cacheWarmSeries(ids []string, parallel int) (*cacheWarmResult, error) {
	reg := experiments.Registry()
	var sel []runner.Scenario
	for _, id := range ids {
		found := false
		for _, s := range reg {
			if s.ID == id {
				sel = append(sel, s)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
	}
	dir, err := os.MkdirTemp("", "ecoscale-cas-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// The store counts from the pool's goroutines under its own lock, so
	// it gets a registry of its own rather than sharing the runner's.
	metrics, cacheMetrics := trace.NewRegistry(), trace.NewRegistry()
	store, err := cas.Open(cas.Options{Dir: dir, Metrics: cacheMetrics})
	if err != nil {
		return nil, err
	}
	opts := runner.Options{
		Parallel: parallel, Metrics: metrics,
		Cache: store, CacheVersion: ecoscale.KernelVersion,
	}
	pass := func() (string, float64, error) {
		var rendered strings.Builder
		t0 := time.Now()
		for _, s := range sel {
			tbl, err := runner.Run(context.Background(), s, opts)
			if err != nil {
				return "", 0, fmt.Errorf("%s: %w", s.ID, err)
			}
			rendered.WriteString(tbl.String())
		}
		return rendered.String(), time.Since(t0).Seconds(), nil
	}
	coldOut, coldWall, err := pass()
	if err != nil {
		return nil, err
	}
	misses := cacheMetrics.CounterTotal(cas.MetricMisses)
	warmOut, warmWall, err := pass()
	if err != nil {
		return nil, err
	}
	if coldOut != warmOut {
		log.Fatalf("cache_warm: warm tables diverged from cold — cache correctness bug")
	}
	return &cacheWarmResult{
		Experiments: ids,
		Parallel:    parallel,
		Procs:       runtime.GOMAXPROCS(0),
		Points:      metrics.CounterTotal(runner.MetricPointsCompleted),
		ColdSeconds: coldWall,
		WarmSeconds: warmWall,
		Speedup:     coldWall / warmWall,
		Hits:        cacheMetrics.CounterTotal(cas.MetricHits),
		Misses:      misses,
		BytesOnDisk: cacheMetrics.CounterTotal(cas.MetricBytesOut),
	}, nil
}

// measure runs fn(events) `rounds` times and keeps the fastest round.
// fn returns how many kernel events actually fired; allocation counters
// come from runtime.MemStats deltas around the timed region.
func measure(workload, engine string, rounds, events int, fn func(n int) uint64) benchResult {
	best := benchResult{Workload: workload, Engine: engine}
	for r := 0; r < rounds; r++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fired := fn(events)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if fired == 0 {
			log.Fatalf("%s/%s fired no events", workload, engine)
		}
		cur := benchResult{
			Workload:       workload,
			Engine:         engine,
			Events:         fired,
			WallSeconds:    wall.Seconds(),
			NsPerEvent:     float64(wall.Nanoseconds()) / float64(fired),
			EventsPerSec:   float64(fired) / wall.Seconds(),
			AllocsPerEvent: float64(m1.Mallocs-m0.Mallocs) / float64(fired),
			BytesPerEvent:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(fired),
		}
		if r == 0 || cur.NsPerEvent < best.NsPerEvent {
			best = cur
		}
	}
	return best
}

// --- workloads on the production kernel (static fn + pooled arg) ---

type tickState struct {
	e     *sim.Engine
	n     int
	limit int
	deep  bool
}

func tickFn(a any) {
	s := a.(*tickState)
	s.n++
	if s.n < s.limit {
		d := sim.Time(1)
		if s.deep {
			d = sim.Time(1 + s.n&63)
		}
		s.e.AfterCall(d, tickFn, s)
	}
}

func simScheduleFire(n int) uint64 {
	e := sim.NewEngine(1)
	e.AfterCall(1, tickFn, &tickState{e: e, limit: n})
	e.RunUntilIdle()
	return e.EventsRun()
}

func simDeepQueue(n int) uint64 {
	e := sim.NewEngine(1)
	s := &tickState{e: e, limit: n, deep: true}
	for i := 0; i < 1024; i++ {
		e.AfterCall(sim.Time(1+i&63), tickFn, s)
	}
	e.RunUntilIdle()
	return e.EventsRun()
}

func simCancel(n int) uint64 {
	e := sim.NewEngine(1)
	fn := func(any) {}
	for i := 0; i < n; i++ {
		e.AtCall(e.Now()+1, fn, nil)
		dead := e.AtCall(e.Now()+2, fn, nil)
		e.Cancel(dead)
		e.Step()
	}
	return e.EventsRun()
}

type useState struct {
	r     *sim.Resource
	n     int
	limit int
}

func useFn(a any) {
	s := a.(*useState)
	s.n++
	if s.n < s.limit {
		s.r.UseCall(10, useFn, s)
	}
}

func simResourceUse(n int) uint64 {
	e := sim.NewEngine(1)
	r := sim.NewResource(e, "port", 4)
	s := &useState{r: r, limit: n}
	for i := 0; i < 8; i++ {
		r.UseCall(10, useFn, s)
	}
	e.RunUntilIdle()
	return e.EventsRun()
}

// --- the same shapes on the container/heap reference kernel ---

func refScheduleFire(n int) uint64 {
	e := heapref.NewEngine()
	c := 0
	var tick func()
	tick = func() {
		c++
		if c < n {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.RunUntilIdle()
	return e.EventsRun()
}

func refDeepQueue(n int) uint64 {
	e := heapref.NewEngine()
	c := 0
	var tick func()
	tick = func() {
		c++
		if c < n {
			e.After(sim.Time(1+c&63), tick)
		}
	}
	for i := 0; i < 1024; i++ {
		e.After(sim.Time(1+i&63), tick)
	}
	e.RunUntilIdle()
	return e.EventsRun()
}

func refCancel(n int) uint64 {
	e := heapref.NewEngine()
	fn := func() {}
	for i := 0; i < n; i++ {
		e.At(e.Now()+1, fn)
		dead := e.At(e.Now()+2, fn)
		e.Cancel(dead)
		e.Step()
	}
	return e.EventsRun()
}

// footprintSeries measures untouched-machine heap per Worker at
// weak-scaling sizes. At the largest size it also runs a sparse burst of
// CPU tasks (one per ~1000 Workers) and records how few Workers the
// flyweight machine actually materialized to serve it.
func footprintSeries(quick bool) []footprintResult {
	shapes := []struct{ wpc, nodes int }{
		{64, 16},   // 1k workers
		{128, 128}, // 16k workers
		{256, 512}, // 131k workers
	}
	if quick {
		shapes = shapes[:1]
	}
	var out []footprintResult
	for i, sh := range shapes {
		workers := sh.wpc * sh.nodes
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		m := ecoscale.New(ecoscale.DefaultConfig(sh.wpc, sh.nodes))
		build := time.Since(t0)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		fr := footprintResult{
			Workers:        workers,
			ComputeNodes:   sh.nodes,
			HeapBytes:      m1.HeapAlloc - m0.HeapAlloc,
			BytesPerWorker: float64(m1.HeapAlloc-m0.HeapAlloc) / float64(workers),
			BuildSeconds:   build.Seconds(),
		}
		if i == len(shapes)-1 {
			m.SetPolicy(ecoscale.PolicyCPU)
			tasks := workers / 1000
			if tasks < 8 {
				tasks = 8
			}
			stride := workers / tasks
			t1 := time.Now()
			for t := 0; t < tasks; t++ {
				m.Sched(t*stride).Submit(&rts.Task{
					Kernel:   "fp",
					Bindings: map[string]float64{},
					SWStats:  hls.RunStats{Ops: 4096, Loads: 1024, Stores: 1024},
				}, nil)
			}
			m.Run()
			fr.Tasks = tasks
			fr.LiveWorkers = m.LiveWorkers()
			fr.RunSeconds = time.Since(t1).Seconds()
			fr.SimEvents = m.Eng.EventsRun()
		}
		runtime.KeepAlive(m)
		out = append(out, fr)
		fmt.Fprintf(os.Stderr, "footprint workers=%-7d %6.1f B/worker  build %6.1fms  live=%d\n",
			workers, fr.BytesPerWorker, fr.BuildSeconds*1000, fr.LiveWorkers)
	}
	return out
}

// esuiteWall runs the selected experiments sequentially through the
// production runner and reports wall time plus completed point count.
func esuiteWall(ids []string, parallel int) (*esuiteResult, error) {
	reg := experiments.Registry()
	var sel []runner.Scenario
	for _, id := range ids {
		found := false
		for _, s := range reg {
			if s.ID == id {
				sel = append(sel, s)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
	}
	metrics := trace.NewRegistry()
	opts := runner.Options{Parallel: parallel, Metrics: metrics}
	t0 := time.Now()
	for _, s := range sel {
		if _, err := runner.Run(context.Background(), s, opts); err != nil {
			return nil, fmt.Errorf("%s: %w", s.ID, err)
		}
	}
	return &esuiteResult{
		Experiments: ids,
		Parallel:    parallel,
		Points:      uint64(metrics.CounterTotal(runner.MetricPointsCompleted)),
		WallSeconds: time.Since(t0).Seconds(),
	}, nil
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output file (- for stdout)")
	events := flag.Int("events", 2_000_000, "events per kernel workload")
	rounds := flag.Int("rounds", 3, "measurement rounds per workload (best kept)")
	esuite := flag.String("esuite", "E2,E3,E4,E10,A1", "comma-separated experiments to time end-to-end (empty = skip)")
	rsuite := flag.String("rsuite", "R1,R2,R3,R4", "comma-separated resilience experiments to time end-to-end (empty = skip)")
	parallel := flag.Int("parallel", 1, "runner pool size for the E-suite timing (1 = sequential)")
	quick := flag.Bool("quick", false, "smoke mode: 200k events, E2 only")
	flag.Parse()

	if *quick {
		*events = 200_000
		// Rounds stay at best-of-N: benchcmp gates the kernel ratios of
		// quick runs, and a single short round is too noisy for that.
		*esuite = "E2"
		// Keep the resilience series in smoke mode too, on the trimmed
		// sweeps, so BENCH_sim.json always carries an r_suite_wall point.
		experiments.Quick = true
	}

	rep := report{
		Schema:    "ecoscale-bench-sim/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Events:    *events,
		Rounds:    *rounds,
		Speedup:   map[string]float64{},
	}

	type pair struct {
		workload string
		cur      func(int) uint64
		ref      func(int) uint64 // nil when the shape has no reference twin
	}
	for _, p := range []pair{
		{"schedule_fire", simScheduleFire, refScheduleFire},
		{"deep_queue_1024", simDeepQueue, refDeepQueue},
		{"schedule_cancel_fire", simCancel, refCancel},
		{"resource_use_contended", simResourceUse, nil},
	} {
		cur := measure(p.workload, "pooled_4ary", *rounds, *events, p.cur)
		rep.Kernel = append(rep.Kernel, cur)
		if p.ref != nil {
			ref := measure(p.workload, "container_heap", *rounds, *events, p.ref)
			rep.Kernel = append(rep.Kernel, ref)
			rep.Speedup[p.workload] = cur.EventsPerSec / ref.EventsPerSec
		}
		fmt.Fprintf(os.Stderr, "%-22s %8.1f ns/ev  %12.0f ev/s  %.3f allocs/ev\n",
			p.workload, cur.NsPerEvent, cur.EventsPerSec, cur.AllocsPerEvent)
	}

	rep.Footprint = footprintSeries(*quick)

	if *esuite != "" {
		es, err := esuiteWall(strings.Split(*esuite, ","), *parallel)
		if err != nil {
			log.Fatalf("esuite: %v", err)
		}
		rep.ESuite = es
		fmt.Fprintf(os.Stderr, "esuite %s: %d points in %.2fs (parallel=%d)\n",
			strings.Join(es.Experiments, ","), es.Points, es.WallSeconds, es.Parallel)
	}

	if *rsuite != "" {
		rs, err := esuiteWall(strings.Split(*rsuite, ","), *parallel)
		if err != nil {
			log.Fatalf("rsuite: %v", err)
		}
		rep.RSuite = rs
		fmt.Fprintf(os.Stderr, "rsuite %s: %d points in %.2fs (parallel=%d)\n",
			strings.Join(rs.Experiments, ","), rs.Points, rs.WallSeconds, rs.Parallel)
	}

	if *esuite != "" {
		cw, err := cacheWarmSeries(strings.Split(*esuite, ","), *parallel)
		if err != nil {
			log.Fatalf("cache_warm: %v", err)
		}
		rep.CacheWarm = cw
		fmt.Fprintf(os.Stderr, "cache_warm %s: cold %.2fs → warm %.3fs (%.0fx, %d hits)\n",
			strings.Join(cw.Experiments, ","), cw.ColdSeconds, cw.WarmSeconds, cw.Speedup, cw.Hits)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
}
