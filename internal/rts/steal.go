package rts

import (
	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// This file implements the load-distribution layer of §4.2: "To curb the
// overhead of monitoring remote status, we will implement local work
// queues per worker and infer (approximately) the status of remote
// workers via the status of the local queue, using techniques inspired
// by Lazy Scheduling [9]."
//
// Two balancers are provided for the E11 comparison:
//
//   - Polling: an idle Worker queries every other Worker's queue depth
//     (N-1 request/response pairs) and steals from the longest queue —
//     the "active monitoring" strawman.
//   - Lazy: an idle Worker probes a single neighbour, round-robin,
//     trusting its own empty queue as the only load signal — constant
//     monitoring traffic per idle event.

// BalanceKind selects the work-stealing strategy.
type BalanceKind int

// Balancer kinds.
const (
	// NoBalance disables stealing.
	NoBalance BalanceKind = iota
	// Polling queries all Workers before each steal.
	Polling
	// Lazy probes one neighbour per idle event.
	Lazy
)

func (k BalanceKind) String() string {
	switch k {
	case Polling:
		return "polling"
	case Lazy:
		return "lazy"
	default:
		return "none"
	}
}

// SchedulerProvider abstracts access to a machine's per-Worker
// schedulers so a flyweight machine can materialize them on first touch.
// An unmaterialized Worker must be observationally identical to a fresh
// idle one: empty queue, nothing outstanding, nothing executed.
type SchedulerProvider interface {
	// NumWorkers returns the cluster's Worker count.
	NumWorkers() int
	// Sched returns worker w's scheduler, materializing it if needed.
	Sched(w int) *Scheduler
	// PeekSched returns worker w's scheduler, or nil when the worker has
	// not been materialized. It must not materialize anything.
	PeekSched(w int) *Scheduler
}

// Cluster couples the per-Worker schedulers with a stealing strategy.
type Cluster struct {
	Kind BalanceKind
	// Trace, when non-nil, records probe and transfer events.
	Trace *trace.Tracer
	// Reg, when non-nil, receives steal counters.
	Reg *trace.Registry

	prov      SchedulerProvider
	net       *noc.Network
	eng       *sim.Engine
	ctrlBytes int
	// Lazy-probe state lives in maps keyed by thief Worker, so 100k idle
	// Workers that never steal cost nothing. A missing nextProbe entry
	// reads as cursor 0 and a missing lastVictim entry as -1 — exactly
	// the eager initial state.
	nextProbe  map[int]int // per-worker round-robin cursor for Lazy
	lastVictim map[int]int // per-worker last successful steal source

	StealMsgs  uint64 // monitoring + transfer messages sent
	Steals     uint64 // successful task migrations
	FailProbes uint64 // probes that found nothing to steal
}

// NewClusterFrom wires a scheduler provider into a balancing cluster.
// The caller must Attach each scheduler as it comes into existence so
// idle events reach the balancer.
func NewClusterFrom(kind BalanceKind, prov SchedulerProvider, net *noc.Network) *Cluster {
	return &Cluster{
		Kind: kind, prov: prov, net: net, eng: net.Engine(),
		ctrlBytes: 16,
	}
}

// Attach hooks a scheduler's idle callback to the balancer. It is a
// no-op under NoBalance.
func (c *Cluster) Attach(s *Scheduler) {
	if c.Kind != NoBalance {
		s.idleCb = func() { c.onIdle(s) }
	}
}

// NumWorkers returns the cluster's Worker count.
func (c *Cluster) NumWorkers() int { return c.prov.NumWorkers() }

// queueLen reads worker w's queue depth without materializing it.
func (c *Cluster) queueLen(w int) int {
	if s := c.prov.PeekSched(w); s != nil {
		return s.QueueLen()
	}
	return 0
}

// Submit enqueues a task on worker w's scheduler.
func (c *Cluster) Submit(w int, t *Task, done func(Device, error)) {
	c.prov.Sched(w).Submit(t, done)
}

// onIdle fires when a Worker drains completely.
func (c *Cluster) onIdle(s *Scheduler) {
	switch c.Kind {
	case Polling:
		c.pollAll(s)
	case Lazy:
		c.probeOne(s)
	}
}

// pollAll queries every other Worker's queue depth, then steals from the
// deepest.
func (c *Cluster) pollAll(thief *Scheduler) {
	n := c.prov.NumWorkers()
	if n < 2 {
		return
	}
	type depth struct{ w, d int }
	depths := make([]depth, 0, n-1)
	c.Trace.Add(trace.Span{Name: "poll", Cat: trace.CatSteal,
		Start: int64(c.eng.Now()), End: int64(c.eng.Now()),
		PID: trace.WorkerPID(thief.Worker), TID: trace.TIDCPU, Arg: int64(n - 1)})
	wg := sim.NewWaitGroup(c.eng, n-1)
	for w := 0; w < n; w++ {
		if w == thief.Worker {
			continue
		}
		w := w
		c.StealMsgs += 2 // status request + response
		c.net.RoundTrip(thief.Worker, w, c.ctrlBytes, c.ctrlBytes, noc.Sync, func() {
			depths = append(depths, depth{w, c.queueLen(w)})
			wg.DoneOne()
		})
	}
	wg.Wait(func() {
		if thief.Outstanding() > 0 {
			return // work arrived while polling
		}
		best := -1
		bestDepth := 0
		for _, d := range depths {
			if d.d > bestDepth || (d.d == bestDepth && d.d > 0 && (best == -1 || d.w < best)) {
				best, bestDepth = d.w, d.d
			}
		}
		if best < 0 || bestDepth == 0 {
			c.FailProbes++
			return
		}
		c.transfer(c.prov.Sched(best), thief)
	})
}

// probeOne asks a single neighbour (round-robin) for work; on a failed
// probe it walks on to the next neighbour, but gives up after a small
// constant number of attempts — the thief trusts that if its immediate
// ring is empty the system is not worth polling further, which is the
// constant-overhead bet of Lazy Scheduling. Polling, by contrast, pays
// O(P) messages on every idle event.
func (c *Cluster) probeOne(thief *Scheduler) {
	attempts := 4
	if n := c.prov.NumWorkers() - 1; attempts > n {
		attempts = n
	}
	c.probeNext(thief, attempts)
}

// lastVictimOf reads the thief's remembered victim; absent means -1.
func (c *Cluster) lastVictimOf(w int) int {
	if v, ok := c.lastVictim[w]; ok {
		return v
	}
	return -1
}

func (c *Cluster) setLastVictim(w, v int) {
	if c.lastVictim == nil {
		c.lastVictim = map[int]int{}
	}
	c.lastVictim[w] = v
}

func (c *Cluster) probeNext(thief *Scheduler, attempts int) {
	n := c.prov.NumWorkers()
	if n < 2 || attempts <= 0 {
		return
	}
	// Prefer the last Worker that had surplus work; fall back to the
	// round-robin ring over all Workers.
	victim := c.lastVictimOf(thief.Worker)
	if victim < 0 || victim == thief.Worker {
		v := c.nextProbe[thief.Worker]
		victim = v % n
		if victim == thief.Worker {
			victim = (v + 1) % n
		}
		if c.nextProbe == nil {
			c.nextProbe = map[int]int{}
		}
		c.nextProbe[thief.Worker] = victim + 1
	}
	c.StealMsgs += 2
	c.Trace.Add(trace.Span{Name: "probe", Cat: trace.CatSteal,
		Start: int64(c.eng.Now()), End: int64(c.eng.Now()),
		PID: trace.WorkerPID(thief.Worker), TID: trace.TIDCPU, Arg: int64(victim)})
	c.net.RoundTrip(thief.Worker, victim, c.ctrlBytes, c.ctrlBytes, noc.Sync, func() {
		if thief.Outstanding() > 0 {
			return
		}
		if c.queueLen(victim) == 0 {
			c.FailProbes++
			c.setLastVictim(thief.Worker, -1)
			c.probeNext(thief, attempts-1)
			return
		}
		c.setLastVictim(thief.Worker, victim)
		c.transfer(c.prov.Sched(victim), thief)
	})
}

// transfer moves one task from victim to thief over the interconnect.
func (c *Cluster) transfer(victim, thief *Scheduler) {
	q, ok := victim.steal()
	if !ok {
		c.FailProbes++
		return
	}
	c.Steals++
	c.StealMsgs++
	if c.Reg != nil {
		c.Reg.CounterL("rts.steals",
			trace.L("thief", thief.workerLabel()), trace.L("victim", victim.workerLabel())).Inc()
	}
	start := c.eng.Now()
	c.net.Send(victim.Worker, thief.Worker, 64, noc.Store, func() {
		c.Trace.Add(trace.Span{Name: q.task.Kernel, Cat: trace.CatSteal,
			Start: int64(start), End: int64(c.eng.Now()),
			PID: trace.WorkerPID(thief.Worker), TID: trace.TIDCPU,
			Detail: "transfer", Arg: int64(victim.Worker)})
		thief.Submit(q.task, q.done)
	})
}

// TotalExecuted sums completed tasks across the cluster. Unmaterialized
// Workers have executed nothing by definition.
func (c *Cluster) TotalExecuted() uint64 {
	var n uint64
	for w := 0; w < c.prov.NumWorkers(); w++ {
		if s := c.prov.PeekSched(w); s != nil {
			n += s.Executed(DeviceCPU) + s.Executed(DeviceHW)
		}
	}
	return n
}
