package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// This file implements the span tracer: a per-machine recorder of the
// complete task lifecycle (submit → queue wait → dispatch decision →
// bitstream reconfiguration → DMA/UNIMEM transfer → execute → complete)
// plus reconfiguration-daemon and work-stealing events, timestamped with
// the sim engine's picosecond clock. Spans export as Chrome trace-event
// JSON (chrome://tracing, https://ui.perfetto.dev) with one process per
// Worker and one lane (thread) each for its CPU, its fabric slot, and
// its DMA/UNIMEM streams.
//
// The tracer is nil-safe and allocation-free when disabled: every method
// has a nil receiver guard, and Add takes the Span by value so a call
// site on a nil *Tracer costs a branch and no heap traffic.

// Span categories. These are the "cat" values in the Chrome export;
// WriteFlow maps them to the layers of the Fig. 5 listing.
const (
	CatQueue    = "queue"    // submit → dispatch wait in a Worker queue
	CatCompute  = "compute"  // CPU execution or fabric pipeline occupancy
	CatTask     = "task"     // whole lifecycle, submit → completion
	CatReconfig = "reconfig" // partial-reconfiguration port transfer
	CatDMA      = "dma"      // UNIMEM argument/result streaming
	CatCoh      = "coh"      // UNIMEM coherence: cacher hand-off, migration
	CatSMMU     = "smmu"     // doorbell + dual-stage translation
	CatRoute    = "route"    // UNILOGIC instance-selection decision
	CatSteal    = "steal"    // work-stealing probes and transfers
	CatDaemon   = "daemon"   // reconfiguration-daemon ticks and deploys
	CatDispatch = "dispatch" // scheduler device decision (instant)
	CatFault    = "fault"    // injected fault: worker death, region failure, link flap
	CatRecover  = "recover"  // recovery action: evacuation, re-queue, re-floorplanning
	CatCkpt     = "ckpt"     // periodic checkpoint snapshot transfer
)

// Latency-histogram shape shared by the per-stage lat.* registry
// metrics: 200 bins over [0, 100ms) in microseconds. Quantiles clamp to
// the observed range, so the wide span costs resolution, not accuracy
// at the extremes.
const (
	LatHistLo   = 0
	LatHistHi   = 1e5
	LatHistBins = 200
)

// LatencyHistogram returns (creating on first use) a standard-shape
// latency histogram in the registry; nil registry returns nil.
func LatencyHistogram(r *Registry, name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramL(name, LatHistLo, LatHistHi, LatHistBins, labels...)
}

// Lane model: process 0 is the machine-level control plane (daemon,
// work-stealing cluster); process w+1 is Worker w with three lanes.
const (
	PIDSystem = 0 // daemon + cluster events
	TIDCPU    = 0 // scheduler/CPU lane
	TIDFabric = 1 // reconfigurable-block lane
	TIDDMA    = 2 // UNIMEM stream lane
)

// WorkerPID maps a Worker id to its trace process id.
func WorkerPID(worker int) int { return worker + 1 }

// Span is one recorded interval (or instant, when End == Start) on a
// lane. Fields are plain values so constructing one allocates nothing.
type Span struct {
	Name string // short event name (kernel or module name, "probe", …)
	Cat  string // one of the Cat* constants
	// Start and End are simulated picoseconds; End == Start records an
	// instant event.
	Start, End int64
	PID, TID   int
	// Task is the scheduler-assigned task id (0 when not task-scoped).
	Task uint64
	// Detail is a small free-form annotation (device, policy name, …).
	// Call sites must not build it with fmt when the tracer may be
	// disabled; pass pre-existing or constant strings.
	Detail string
	// Arg is a generic numeric annotation (peer worker, count, …).
	Arg int64
}

// Dur returns the span length in picoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer records spans for one simulated machine. A nil *Tracer is a
// valid, disabled tracer: all methods are no-ops.
type Tracer struct {
	spans    []Span
	procs    map[int]string
	threads  map[int]map[int]string
	counters []CounterSample
	// workerLanes declares the standard Worker lane layout for workers
	// 0..workerLanes-1 without storing per-worker strings: process
	// WorkerPID(w) named "worker w" with cpu/fabric/dma lanes. Names are
	// synthesized at export, so construction costs O(1) regardless of
	// machine size. Explicit SetProcessName/SetThreadName entries win.
	workerLanes int
}

// CounterSample is one point on a Perfetto counter track: the series
// named Name under process PID takes Value at At picoseconds. Counter
// samples render as "ph":"C" events in the Chrome export, drawn as a
// stacked-area chart above the process's span lanes.
type CounterSample struct {
	Name  string
	PID   int
	At    int64
	Value float64
}

// NewTracer returns an enabled tracer that retains every span.
func NewTracer() *Tracer {
	return &Tracer{procs: map[int]string{}, threads: map[int]map[int]string{}}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Add records one span. It is safe and allocation-free on a nil tracer.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, s)
}

// Instant records a zero-duration event.
func (t *Tracer) Instant(atPs int64, cat, name string, pid, tid int) {
	if t == nil {
		return
	}
	t.Add(Span{Name: name, Cat: cat, Start: atPs, End: atPs, PID: pid, TID: tid})
}

// AddCounter records one counter-track sample. Safe on a nil tracer.
// Counter samples come from the profiler's utilization and sampling
// passes, which emit O(transitions) points.
func (t *Tracer) AddCounter(atPs int64, pid int, name string, v float64) {
	if t == nil {
		return
	}
	t.counters = append(t.counters, CounterSample{Name: name, PID: pid, At: atPs, Value: v})
}

// CounterSamples returns the recorded counter-track samples in
// recording order.
func (t *Tracer) CounterSamples() []CounterSample {
	if t == nil {
		return nil
	}
	return t.counters
}

// Len returns the retained span count.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns the retained spans in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// SetProcessName labels a trace process (a Worker or the control plane).
func (t *Tracer) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.procs[pid] = name
}

// ProcessName returns the label set for pid ("" when unset). Worker pids
// declared via SetWorkerLanes report their synthesized "worker N" name.
func (t *Tracer) ProcessName(pid int) string {
	if t == nil {
		return ""
	}
	if n, ok := t.procs[pid]; ok {
		return n
	}
	if w := pid - 1; w >= 0 && w < t.workerLanes {
		return "worker " + strconv.Itoa(w)
	}
	return ""
}

// SetWorkerLanes declares the standard lane layout for workers 0..n-1:
// process WorkerPID(w) named "worker w" with "cpu", "fabric" and "dma"
// lanes (TIDCPU/TIDFabric/TIDDMA). Unlike per-worker SetProcessName
// calls, this costs O(1) memory and no string formatting — the names are
// synthesized when the trace is exported.
func (t *Tracer) SetWorkerLanes(n int) {
	if t == nil {
		return
	}
	if n > t.workerLanes {
		t.workerLanes = n
	}
}

// SetThreadName labels one lane of a process.
func (t *Tracer) SetThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	m := t.threads[pid]
	if m == nil {
		m = map[int]string{}
		t.threads[pid] = m
	}
	m[tid] = name
}

// jsonEscape writes s as a JSON string literal. Names and details are
// plain ASCII identifiers in practice, but corrupt input must not
// produce corrupt JSON.
func jsonEscape(w *bufio.Writer, s string) {
	w.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			w.WriteByte('\\')
			w.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(w, "\\u%04x", c)
		default:
			w.WriteByte(c)
		}
	}
	w.WriteByte('"')
}

// WriteChrome emits the trace in Chrome trace-event JSON ("traceEvents"
// object form), loadable by chrome://tracing and Perfetto. Timestamps
// are microseconds ("ts"/"dur"), converted from the picosecond clock;
// events are ordered by start time for stable, diffable output.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}

	if t != nil {
		// Metadata: process and thread names, sorted for determinism.
		// Worker lanes declared via SetWorkerLanes are synthesized here
		// and merged with explicitly named ones; explicit names win, so
		// the export is byte-identical to per-worker SetProcessName calls.
		procs := make(map[int]string, len(t.procs)+t.workerLanes)
		threads := make(map[int]map[int]string, len(t.threads)+t.workerLanes)
		for w := 0; w < t.workerLanes; w++ {
			pid := WorkerPID(w)
			procs[pid] = "worker " + strconv.Itoa(w)
			threads[pid] = map[int]string{TIDCPU: "cpu", TIDFabric: "fabric", TIDDMA: "dma"}
		}
		for pid, name := range t.procs {
			procs[pid] = name
		}
		for pid, lanes := range t.threads {
			merged := threads[pid]
			if merged == nil {
				merged = map[int]string{}
				threads[pid] = merged
			}
			for tid, name := range lanes {
				merged[tid] = name
			}
		}
		pids := make([]int, 0, len(procs))
		for pid := range procs {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		for _, pid := range pids {
			sep()
			fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":`, pid)
			jsonEscape(bw, procs[pid])
			bw.WriteString("}}")
		}
		tpids := make([]int, 0, len(threads))
		for pid := range threads {
			tpids = append(tpids, pid)
		}
		sort.Ints(tpids)
		for _, pid := range tpids {
			tids := make([]int, 0, len(threads[pid]))
			for tid := range threads[pid] {
				tids = append(tids, tid)
			}
			sort.Ints(tids)
			for _, tid := range tids {
				sep()
				fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":`, pid, tid)
				jsonEscape(bw, threads[pid][tid])
				bw.WriteString("}}")
			}
		}

		ordered := make([]int, len(t.spans))
		for i := range ordered {
			ordered[i] = i
		}
		sort.SliceStable(ordered, func(a, b int) bool {
			return t.spans[ordered[a]].Start < t.spans[ordered[b]].Start
		})
		for _, i := range ordered {
			s := &t.spans[i]
			sep()
			bw.WriteString(`{"name":`)
			jsonEscape(bw, s.Name)
			bw.WriteString(`,"cat":`)
			jsonEscape(bw, s.Cat)
			ts := strconv.FormatFloat(float64(s.Start)/1e6, 'f', -1, 64)
			if s.End > s.Start {
				dur := strconv.FormatFloat(float64(s.End-s.Start)/1e6, 'f', -1, 64)
				fmt.Fprintf(bw, `,"ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d`, ts, dur, s.PID, s.TID)
			} else {
				fmt.Fprintf(bw, `,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d`, ts, s.PID, s.TID)
			}
			if s.Task != 0 || s.Detail != "" || s.Arg != 0 {
				bw.WriteString(`,"args":{`)
				afirst := true
				if s.Task != 0 {
					fmt.Fprintf(bw, `"task":%d`, s.Task)
					afirst = false
				}
				if s.Detail != "" {
					if !afirst {
						bw.WriteByte(',')
					}
					bw.WriteString(`"detail":`)
					jsonEscape(bw, s.Detail)
					afirst = false
				}
				if s.Arg != 0 {
					if !afirst {
						bw.WriteByte(',')
					}
					fmt.Fprintf(bw, `"arg":%d`, s.Arg)
				}
				bw.WriteByte('}')
			}
			bw.WriteByte('}')
		}

		// Counter tracks, sorted by time (stable, so same-time samples
		// keep recording order) for diffable output.
		corder := make([]int, len(t.counters))
		for i := range corder {
			corder[i] = i
		}
		sort.SliceStable(corder, func(a, b int) bool {
			return t.counters[corder[a]].At < t.counters[corder[b]].At
		})
		for _, i := range corder {
			c := &t.counters[i]
			sep()
			bw.WriteString(`{"name":`)
			jsonEscape(bw, c.Name)
			ts := strconv.FormatFloat(float64(c.At)/1e6, 'f', -1, 64)
			val := strconv.FormatFloat(c.Value, 'g', -1, 64)
			fmt.Fprintf(bw, `,"ph":"C","ts":%s,"pid":%d,"args":{"value":%s}}`, ts, c.PID, val)
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// WriteFlow renders the Fig. 5 layer-interaction listing from the
// retained spans: the runtime dispatches, UNILOGIC routes, the
// middleware rings the doorbell and translates, the hardware computes,
// and the runtime records the completion; faults and recovery actions
// interleave. Lines are stable-sorted by time. max > 0 prints at most
// max lines and ends the cut listing with a line naming how many it left
// out; max == 0 prints every line.
func (t *Tracer) WriteFlow(w io.Writer, max int) error {
	type line struct {
		at          int64
		layer, text string
	}
	var lines []line
	for _, s := range t.Spans() {
		if at, layer, text := flowLine(s); layer != "" {
			lines = append(lines, line{at, layer, text})
		}
	}
	sort.SliceStable(lines, func(a, b int) bool { return lines[a].at < lines[b].at })
	shown := lines
	if max > 0 && len(shown) > max {
		shown = shown[:max]
	}
	bw := bufio.NewWriter(w)
	for _, l := range shown {
		fmt.Fprintf(bw, "%12.3fus  %-12s %s\n", float64(l.at)/1e6, l.layer, l.text)
	}
	if n := len(lines) - len(shown); n > 0 {
		fmt.Fprintf(bw, "... %d more events not shown\n", n)
	}
	return bw.Flush()
}

// flowLine maps one span to its Fig. 5 listing line: the time it
// happens, its layer and its text. layer is "" for a span that is not a
// Fig. 5 step.
func flowLine(s Span) (at int64, layer, text string) {
	w := s.PID - 1
	switch {
	case s.Cat == CatDispatch:
		return s.Start, "runtime", fmt.Sprintf("worker %d: %s dispatched to %s", w, s.Name, s.Detail)
	case s.Cat == CatRoute:
		return s.Start, "unilogic", fmt.Sprintf("route %s: caller w%d -> instance %s@%d", s.Name, w, s.Name, s.Arg)
	case s.Cat == CatSMMU:
		result := "translated"
		if s.Detail == "fault" {
			result = "fault"
		}
		return s.End, "middleware", fmt.Sprintf("doorbell for %s at worker %d (from w%d), SMMU %s", s.Name, w, s.Arg, result)
	case s.Cat == CatCompute && s.TID == TIDFabric:
		return s.Start, "hardware", fmt.Sprintf("%s@w%d: arguments streamed in, pipeline busy %.3fus", s.Name, w, float64(s.Dur())/1e6)
	case s.Cat == CatTask:
		return s.End, "runtime", fmt.Sprintf("worker %d: %s completed on %s (recorded to history)", w, s.Name, s.Detail)
	case s.Cat == CatRecover && s.Detail == "requeue":
		return s.Start, "runtime", fmt.Sprintf("worker %d: %s lost its instance, requeued", w, s.Name)
	case s.Cat == CatRecover && s.Detail == "sw-fallback":
		return s.Start, "runtime", fmt.Sprintf("%s@w%d not redeployable; software fallback", s.Name, w)
	case s.Cat == CatRecover && s.Name == "evacuate":
		return s.End, "runtime", fmt.Sprintf("worker %d: evacuated to w%d", w, s.Arg)
	case s.Cat == CatRecover && s.Name == "redeploy":
		return s.End, "runtime", fmt.Sprintf("%s@w%d redeployed", s.Detail, w)
	case s.Cat == CatFault && s.Name == "kill-worker":
		return s.Start, "fault", fmt.Sprintf("worker %d fail-stopped", w)
	case s.Cat == CatFault && s.Name == "fail-region":
		return s.Start, "fault", fmt.Sprintf("worker %d fabric region %d failed", w, s.Arg)
	case s.Cat == CatFault && s.Name == "flap-link":
		return s.Start, "fault", fmt.Sprintf("worker %d level-%d link down for %.3fus", w, s.Arg, float64(s.Dur())/1e6)
	}
	return 0, "", ""
}
