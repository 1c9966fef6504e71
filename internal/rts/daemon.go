package rts

import (
	"sort"

	"ecoscale/internal/accel"
	"ecoscale/internal/hls"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
	"ecoscale/internal/unilogic"
)

// Daemon is the runtime scheduler/daemon of §4.2: it "will read
// periodically the system status and the History file in order to decide
// at runtime what functions should be loaded on the reconfiguration
// block". Each tick it ranks kernels by accumulated execution time in
// the merged history and deploys the hottest not-yet-deployed kernels to
// the least-loaded fabrics.
type Daemon struct {
	Domain *unilogic.Domain
	// Library maps kernel name → synthesized implementation available
	// for loading (the accelerator module library of §4.3).
	Library map[string]*hls.Impl
	// Period is the tick interval.
	Period sim.Time
	// MaxPerTick bounds reconfigurations per tick.
	MaxPerTick int
	// Trace, when non-nil, records tick and deploy-decision events.
	Trace *trace.Tracer
	// Reg, when non-nil, receives deploy counters labelled by kernel.
	Reg *trace.Registry
	// Live, when non-nil, filters deployment targets to living Workers.
	// Wired by the fault layer; nil means every Worker is a candidate.
	Live func(w int) bool

	prov    SchedulerProvider
	eng     *sim.Engine
	Deploys uint64
	running bool
}

// NewDaemon creates a reconfiguration daemon over the cluster's
// schedulers.
func NewDaemon(domain *unilogic.Domain, scheds []*Scheduler, eng *sim.Engine) *Daemon {
	return NewDaemonFrom(domain, staticScheds(scheds), eng)
}

// NewDaemonFrom creates a reconfiguration daemon over a scheduler
// provider, which may materialize schedulers lazily.
func NewDaemonFrom(domain *unilogic.Domain, prov SchedulerProvider, eng *sim.Engine) *Daemon {
	return &Daemon{
		Domain: domain, Library: map[string]*hls.Impl{},
		Period: 100 * sim.Microsecond, MaxPerTick: 1,
		prov: prov, eng: eng,
	}
}

// Register adds an implementation to the loadable library.
func (d *Daemon) Register(im *hls.Impl) { d.Library[im.Kernel.Name] = im }

// Start schedules periodic ticks until the engine drains or Stop.
func (d *Daemon) Start() {
	d.running = true
	var tick func()
	tick = func() {
		if !d.running {
			return
		}
		d.Tick()
		d.eng.After(d.Period, tick)
	}
	d.eng.After(d.Period, tick)
}

// Stop halts periodic ticking.
func (d *Daemon) Stop() { d.running = false }

// Tick performs one decision round; it returns how many deployments were
// initiated.
func (d *Daemon) Tick() int {
	type hot struct {
		kernel string
		total  sim.Time
	}
	var hots []hot
	for name := range d.Library {
		if len(d.Domain.Instances(name)) > 0 {
			continue // already in hardware
		}
		var total sim.Time
		// Unmaterialized Workers have empty histories and contribute 0.
		for w := 0; w < d.prov.NumWorkers(); w++ {
			if s := d.prov.PeekSched(w); s != nil {
				total += s.History.TotalTime(name)
			}
		}
		if total > 0 {
			hots = append(hots, hot{name, total})
		}
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].total != hots[j].total {
			return hots[i].total > hots[j].total
		}
		return hots[i].kernel < hots[j].kernel
	})
	n := 0
	for _, h := range hots {
		if n >= d.MaxPerTick {
			break
		}
		w := d.coolestWorker()
		if w < 0 {
			break // no living Worker to deploy to
		}
		im := d.Library[h.kernel]
		d.Deploys++
		d.Trace.Add(trace.Span{Name: "deploy", Cat: trace.CatDaemon,
			Start: int64(d.eng.Now()), End: int64(d.eng.Now()),
			PID: trace.PIDSystem, TID: 0, Detail: h.kernel, Arg: int64(w)})
		if d.Reg != nil {
			d.Reg.CounterL("daemon.deploys", trace.L("kernel", h.kernel)).Inc()
		}
		d.Domain.Deploy(w, im, func(*accel.Instance, error) {})
		n++
	}
	d.Trace.Add(trace.Span{Name: "tick", Cat: trace.CatDaemon,
		Start: int64(d.eng.Now()), End: int64(d.eng.Now()),
		PID: trace.PIDSystem, TID: 0, Arg: int64(n)})
	return n
}

// coolestWorker picks the fabric with the most free regions (ties to the
// lowest id), skipping dead Workers; -1 when none are alive. Reading
// free regions must not materialize idle workers, so it goes through the
// domain's peek-friendly accessor.
func (d *Daemon) coolestWorker() int {
	best, bestFree := -1, -1
	for w := 0; w < d.prov.NumWorkers(); w++ {
		if d.Live != nil && !d.Live(w) {
			continue
		}
		free := d.Domain.FreeRegions(w)
		if free > bestFree {
			best, bestFree = w, free
		}
	}
	return best
}
