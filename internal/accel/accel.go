// Package accel is the accelerator middleware of the ECOSCALE Worker
// (Fig. 4 and §4.3): it manages HLS-produced modules on the Worker's
// reconfigurable fabric (load, evict, migrate via partial
// reconfiguration), and implements the Virtualization block — "a
// mechanism to execute multiple function calls (from different virtual
// machines) in a fully pipelined fashion" for fine-grain sharing, plus
// coarse-grain time-sharing of fabric regions through reconfiguration.
package accel

import (
	"fmt"

	"ecoscale/internal/energy"
	"ecoscale/internal/fabric"
	"ecoscale/internal/hls"
	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/smmu"
	"ecoscale/internal/trace"
	"ecoscale/internal/unimem"
)

// Span names a region of the global address space a call streams through.
type Span struct {
	Addr uint64
	Size int
}

// CallSpec describes one invocation of a hardware function.
type CallSpec struct {
	// Bindings give the kernel's scalar arguments (loop bounds etc.).
	Bindings map[string]float64
	// Reads and Writes are the UNIMEM spans streamed in and out.
	Reads  []Span
	Writes []Span
	// Exec applies the call's data-plane effect (typically by running
	// the kernel interpreter against buffers peeked from the space). It
	// runs at completion time; nil for timing-only calls.
	Exec func() error
	// Ops is the datapath operation count for energy accounting; when 0
	// it is estimated from the cycle model.
	Ops uint64
}

// Instance is a hardware function loaded on a Worker's fabric.
type Instance struct {
	Impl      *hls.Impl
	Placement *fabric.Placement
	Worker    int
	StreamID  int

	mgr       *Manager
	pipe      *sim.Resource // issue slot: serializes occupancy, not latency
	busy      int           // calls in flight (issue+drain)
	lastUsed  sim.Time
	calls     uint64
	loaded    bool
	failed    bool // region died under the module; calls complete with ErrInstanceLost
	suspended bool
	deferred  []deferredCall
	onDrain   func()
	forwardTo *Instance // set after Resume relocates the module
}

// Calls returns how many invocations this instance has completed.
func (in *Instance) Calls() uint64 { return in.calls }

// PipeUtilization returns the fraction of [0, now] the instance's
// compute pipeline (its issue slot) was occupied — the per-accelerator
// busy figure of the profiler's utilization table.
func (in *Instance) PipeUtilization(now sim.Time) float64 {
	return in.pipe.Utilization(now)
}

// Busy reports whether any call is in flight.
func (in *Instance) Busy() bool { return in.busy > 0 }

// Manager owns one Worker's fabric and the accelerator instances on it.
// It is the per-Worker half of the middleware; cross-Worker sharing is
// the unilogic package's job.
type Manager struct {
	Worker int
	Fab    *fabric.Fabric
	Space  *unimem.Space
	MMU    *smmu.SMMU
	Meter  *energy.Meter

	// Virtualize enables the fine-grain pipelined-sharing block; when
	// false, calls serialize over their full latency.
	Virtualize bool
	// Compressed selects compressed bitstream loading.
	Compressed bool
	// StreamWindow is the memory-pipelining depth for argument streams.
	StreamWindow int
	// Flow, when non-nil, records the Fig. 5 layer-interaction trace.
	Flow *trace.FlowLog
	// Trace, when non-nil, records doorbell/SMMU and hardware-compute
	// spans on this Worker's fabric lane.
	Trace *trace.Tracer
	// Reg, when non-nil, receives the lat.* latency histograms.
	Reg *trace.Registry
	// OnUnload, when non-nil, observes every instance leaving the fabric
	// (LRU eviction, explicit Unload, migration, region failure) so
	// cross-Worker routing tables can drop stale entries. Wired by the
	// fault layer; nil on a healthy machine.
	OnUnload func(*Instance)

	eng       *sim.Engine
	instances map[string]*Instance
	nextSID   int
	execFree  *execOp
}

// NewManager creates a Worker-local accelerator manager.
func NewManager(worker int, fab *fabric.Fabric, space *unimem.Space, mmu *smmu.SMMU, meter *energy.Meter) *Manager {
	return &Manager{
		Worker: worker, Fab: fab, Space: space, MMU: mmu, Meter: meter,
		Virtualize: true, StreamWindow: 8,
		eng:       space.Engine(),
		instances: map[string]*Instance{},
		nextSID:   worker * 1000,
	}
}

// Instances returns the loaded instance count.
func (m *Manager) Instances() int { return len(m.instances) }

// Lookup returns the instance for a module name, or nil.
func (m *Manager) Lookup(name string) *Instance {
	in := m.instances[name]
	if in == nil || !in.loaded {
		return nil
	}
	return in
}

// Ensure loads impl onto this Worker's fabric if not already present,
// evicting idle instances (least recently used first) and defragmenting
// when space is short — the middleware virtualization features of §4.3.
// done receives the ready instance or an error when the module cannot
// fit even in an empty fabric.
func (m *Manager) Ensure(impl *hls.Impl, done func(*Instance, error)) {
	mod := impl.Module()
	if in, ok := m.instances[mod.Name]; ok && in.loaded {
		done(in, nil)
		return
	}
	p, err := m.place(mod)
	if err != nil {
		done(nil, err)
		return
	}
	in := &Instance{
		Impl: impl, Placement: p, Worker: m.Worker, StreamID: m.nextSID,
		mgr:  m,
		pipe: sim.NewResource(m.eng, mod.Name+"-pipe", 1),
	}
	m.nextSID++
	m.instances[mod.Name] = in
	m.Fab.Load(p, fabric.LoadOptions{Compressed: m.Compressed}, func() {
		in.loaded = true
		in.lastUsed = m.eng.Now()
		done(in, nil)
	})
}

// place finds room for a module: direct placement, then eviction of idle
// instances (LRU), then defragmentation, then failure.
func (m *Manager) place(mod fabric.Module) (*fabric.Placement, error) {
	if p, err := m.Fab.Place(mod); err == nil {
		return p, nil
	}
	for {
		victim := m.idleLRU()
		if victim == nil {
			break
		}
		m.unload(victim)
		if p, err := m.Fab.Place(mod); err == nil {
			return p, nil
		}
	}
	m.Fab.Defragment()
	return m.Fab.Place(mod)
}

func (m *Manager) idleLRU() *Instance {
	var victim *Instance
	for _, in := range m.instances {
		if !in.loaded || in.Busy() {
			continue
		}
		if victim == nil || in.lastUsed < victim.lastUsed ||
			(in.lastUsed == victim.lastUsed && in.Placement.Module.Name < victim.Placement.Module.Name) {
			victim = in
		}
	}
	return victim
}

func (m *Manager) unload(in *Instance) {
	m.Fab.Remove(in.Placement)
	in.loaded = false
	delete(m.instances, in.Placement.Module.Name)
	if m.OnUnload != nil {
		m.OnUnload(in)
	}
}

// Unload evicts a named module; it reports whether it was present and
// idle (busy instances are never evicted).
func (m *Manager) Unload(name string) bool {
	in, ok := m.instances[name]
	if !ok || in.Busy() {
		return false
	}
	m.unload(in)
	return true
}

// occupancyAndDrain splits a call's cycle count into pipeline-occupancy
// (how long the instance's issue stage is blocked) and drain (time after
// the last issue until results emerge).
func (in *Instance) occupancyAndDrain(bindings map[string]float64) (sim.Time, sim.Time, error) {
	total, err := in.Impl.Time(bindings)
	if err != nil {
		return 0, 0, err
	}
	nsPerCycle := 1000.0 / in.Impl.ClockMHz
	drain := sim.Time(float64(in.Impl.Depth()) * nsPerCycle * float64(sim.Nanosecond))
	if drain >= total {
		drain = total / 2
	}
	return total - drain, drain, nil
}

// Invoke runs one call on the instance on behalf of worker caller:
// doorbell to the hosting Worker, SMMU translation, argument streams in
// through UNIMEM (cached when the hosting Worker owns/caches the pages —
// the ACE path — and uncached remote otherwise — the ACE-lite path),
// pipelined compute, result streams out, and a completion notification
// back to the caller.
func (in *Instance) Invoke(caller int, spec CallSpec, done func(error)) {
	if in.forwardTo != nil {
		in.forwardTo.Invoke(caller, spec, done)
		return
	}
	if in.suspended {
		// Preempted: the call parks in the context and replays on Resume.
		in.deferred = append(in.deferred, deferredCall{caller: caller, spec: spec, done: done})
		return
	}
	if in.failed {
		done(ErrInstanceLost)
		return
	}
	if !in.loaded {
		done(fmt.Errorf("accel: instance %s not loaded", in.Placement.Module.Name))
		return
	}
	m := in.mgr
	in.busy++
	in.lastUsed = m.eng.Now()
	finish := func(err error) {
		if in.failed && err == nil {
			// The region died mid-call: whatever the timing model finished
			// computing is fiction, and the caller must retry elsewhere.
			err = ErrInstanceLost
		}
		in.busy--
		in.calls++
		in.lastUsed = m.eng.Now()
		if done != nil {
			done(err)
		}
		if in.suspended && in.busy == 0 && in.onDrain != nil {
			drain := in.onDrain
			in.onDrain = nil
			drain()
		}
	}
	// Doorbell: a small store transaction from caller to the hosting
	// Worker (free when local).
	issued := m.eng.Now()
	m.Space.Network().Send(caller, in.Worker, 16, noc.Store, func() {
		m.Flow.Add(int64(m.eng.Now()), "middleware", "doorbell for %s at worker %d (from w%d)",
			in.Placement.Module.Name, in.Worker, caller)
		// SMMU translation for the call's first VA (per-call page pin);
		// subsequent line accesses hit the TLB and are folded into the
		// stream model.
		m.translate(in.StreamID, spec, func(terr error) {
			m.Trace.Add(trace.Span{Name: in.Placement.Module.Name, Cat: trace.CatSMMU,
				Start: int64(issued), End: int64(m.eng.Now()),
				PID: trace.WorkerPID(in.Worker), TID: trace.TIDFabric, Arg: int64(caller)})
			if terr != nil {
				m.Flow.Add(int64(m.eng.Now()), "middleware", "SMMU fault: %v", terr)
				finish(terr)
				return
			}
			m.Flow.Add(int64(m.eng.Now()), "middleware", "SMMU translated %d span(s) for stream %d",
				len(spec.Reads)+len(spec.Writes), in.StreamID)
			in.execute(spec, finish)
		})
	})
}

func (m *Manager) translate(streamID int, spec CallSpec, done func(error)) {
	if m.MMU == nil || (len(spec.Reads) == 0 && len(spec.Writes) == 0) {
		done(nil)
		return
	}
	// Translate the first page of each span.
	spans := append(append([]Span(nil), spec.Reads...), spec.Writes...)
	var step func(i int)
	step = func(i int) {
		if i == len(spans) {
			done(nil)
			return
		}
		access := smmu.PermRead
		if i >= len(spec.Reads) {
			access = smmu.PermWrite
		}
		m.MMU.TranslateTimed(m.eng, streamID, spans[i].Addr, access, func(_ smmu.Result, err error) {
			if err != nil {
				done(err)
				return
			}
			step(i + 1)
		})
	}
	step(0)
}

// execOp is a pooled in-flight hardware call: the stream-in → pipeline →
// drain → stream-out chain runs through static callbacks on this struct
// instead of the four nested closures it used to box per invocation.
type execOp struct {
	in     *Instance
	spec   CallSpec
	finish func(error)
	hold   sim.Time
	tail   sim.Time
	cstart sim.Time
	err    error
	next   *execOp
}

func (m *Manager) getExecOp() *execOp {
	if op := m.execFree; op != nil {
		m.execFree = op.next
		op.next = nil
		return op
	}
	return &execOp{}
}

func (m *Manager) putExecOp(op *execOp) {
	*op = execOp{next: m.execFree} // clear spec references before pooling
	m.execFree = op
}

// execute streams inputs, computes, streams outputs.
func (in *Instance) execute(spec CallSpec, finish func(error)) {
	m := in.mgr
	occ, drain, err := in.occupancyAndDrain(spec.Bindings)
	if err != nil {
		finish(err)
		return
	}
	op := m.getExecOp()
	op.in, op.spec, op.finish = in, spec, finish
	op.hold, op.tail = occ, drain
	if !m.Virtualize {
		// No virtualization block: the instance is held for the whole
		// call latency.
		op.hold, op.tail = occ+drain, 0
	}
	// Stream all inputs, then compute.
	wg := sim.NewWaitGroup(m.eng, len(spec.Reads))
	for _, r := range spec.Reads {
		m.Space.StreamFetch(in.Worker, r.Addr, r.Size, m.StreamWindow, wg.DoneOne)
	}
	wg.WaitCall(execCompute, op)
}

// execCompute enters the pipeline once every argument stream has landed.
func execCompute(a any) {
	op := a.(*execOp)
	in, m := op.in, op.in.mgr
	m.Flow.Add(int64(m.eng.Now()), "hardware", "%s@w%d: arguments streamed in, entering pipeline (II=%d)",
		in.Placement.Module.Name, in.Worker, in.Impl.II())
	op.cstart = m.eng.Now()
	in.pipe.UseCall(op.hold, execDrain, op)
}

// execDrain models the pipeline tail after the issue slot frees.
func execDrain(a any) {
	op := a.(*execOp)
	op.in.mgr.eng.AfterCall(op.tail, execWriteback, op)
}

// execWriteback applies the data plane and streams the results out (an
// identity write-back of the now-final bytes).
func execWriteback(a any) {
	op := a.(*execOp)
	in, m, spec := op.in, op.in.mgr, op.spec
	m.Flow.Add(int64(m.eng.Now()), "hardware", "%s@w%d: pipeline drained, streaming results",
		in.Placement.Module.Name, in.Worker)
	m.Trace.Add(trace.Span{Name: in.Placement.Module.Name, Cat: trace.CatCompute,
		Start: int64(op.cstart), End: int64(m.eng.Now()),
		PID: trace.WorkerPID(in.Worker), TID: trace.TIDFabric, Detail: "hw"})
	if m.Reg != nil {
		trace.LatencyHistogram(m.Reg, "lat.compute_hw_us").
			Observe((m.eng.Now() - op.cstart).Micros())
	}
	m.chargeEnergy(spec)
	if spec.Exec != nil {
		op.err = spec.Exec()
	}
	wg := sim.NewWaitGroup(m.eng, len(spec.Writes))
	for _, w := range spec.Writes {
		// Identity write-back: the result bytes are already final in the
		// space (the data plane ran in spec.Exec), so only the store
		// traffic is modeled.
		m.Space.StreamWriteback(in.Worker, w.Addr, w.Size, m.StreamWindow, wg.DoneOne)
	}
	wg.WaitCall(execDone, op)
}

func execDone(a any) {
	op := a.(*execOp)
	finish, err := op.finish, op.err
	op.in.mgr.putExecOp(op)
	finish(err)
}

func (m *Manager) chargeEnergy(spec CallSpec) {
	if m.Meter == nil {
		return
	}
	ops := spec.Ops
	if ops == 0 {
		ops = 100
	}
	m.Meter.Charge("fpga", energy.Joules(ops)*m.Meter.Model.FPGAOp)
}

// Migrate moves a loaded module to another Worker's manager: the source
// placement is released and the module is reloaded at the destination
// (accelerator migration, §4.3). done receives the new instance.
func (m *Manager) Migrate(name string, to *Manager, done func(*Instance, error)) {
	in, ok := m.instances[name]
	if !ok || !in.loaded {
		done(nil, fmt.Errorf("accel: no loaded module %q to migrate", name))
		return
	}
	if in.Busy() {
		done(nil, fmt.Errorf("accel: module %q busy; drain before migration", name))
		return
	}
	m.unload(in)
	to.Ensure(in.Impl, done)
}

// Chain invokes a sequence of instances as a processing pipeline over
// the same data (§4.3: "chaining together different accelerator modules
// for building longer complex processing pipelines ... will substantially
// increase the amount of processing that is carried out per unit of
// transferred data"). Data streams in once, flows accelerator-to-
// accelerator on chip, and streams out once; compare with invoking each
// stage separately, which round-trips DRAM between stages (E12).
func Chain(caller int, stages []*Instance, data Span, bindings map[string]float64, done func(error)) {
	if len(stages) == 0 {
		done(nil)
		return
	}
	first := stages[0]
	m := first.mgr
	// One stream in at the head.
	m.Space.StreamFetch(first.Worker, data.Addr, data.Size, m.StreamWindow, func() {
		var step func(i int)
		step = func(i int) {
			if i == len(stages) {
				// One stream out at the tail: an identity write-back,
				// since the stages model timing and leave the bytes as
				// they are.
				last := stages[len(stages)-1]
				last.mgr.Space.StreamWriteback(last.Worker, data.Addr, data.Size, last.mgr.StreamWindow, func() {
					done(nil)
				})
				return
			}
			st := stages[i]
			occ, drain, err := st.occupancyAndDrain(bindings)
			if err != nil {
				done(err)
				return
			}
			st.busy++
			st.pipe.Use(occ, func() {
				st.mgr.eng.After(drain, func() {
					st.mgr.chargeEnergy(CallSpec{})
					st.busy--
					st.calls++
					// On-chip hand-off between chained stages: a single
					// line-sized token, not the whole buffer.
					if i+1 < len(stages) && stages[i+1].Worker != st.Worker {
						st.mgr.Space.Network().Send(st.Worker, stages[i+1].Worker, 64, noc.Store, func() { step(i + 1) })
						return
					}
					step(i + 1)
				})
			})
		}
		step(0)
	})
}
