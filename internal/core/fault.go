package core

import (
	"fmt"
	"strings"

	"ecoscale/internal/accel"
	"ecoscale/internal/fault"
	"ecoscale/internal/noc"
	"ecoscale/internal/rts"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// Fault injection and the recovery it exercises, end to end: Worker
// death evacuates queued/in-flight tasks and UNIMEM pages to a live
// buddy, fabric-region failure re-floorplans the survivor modules and
// redeploys (or degrades to software), link flaps ride the NoC's own
// backpressure, and an optional checkpointer trades steady-state pause
// overhead against the post-death recompute bill. Everything here is
// pay-for-armed: a machine that never calls InjectFaults or KillWorker
// allocates none of this state and behaves byte-identically to one
// built before this file existed.

// faultState is the machine's armed-faults extension, nil until needed.
type faultState struct {
	injector  *fault.Injector
	ckpt      *fault.Checkpointer
	ckptCfg   fault.CheckpointConfig
	dead      []bool
	deadCount int
}

// WorkerLive reports whether Worker w is alive (always true before any
// fault is armed or injected).
func (m *Machine) WorkerLive(w int) bool {
	return m.faults == nil || !m.faults.dead[w]
}

// DeadWorkers returns how many Workers have been killed.
func (m *Machine) DeadWorkers() int {
	if m.faults == nil {
		return 0
	}
	return m.faults.deadCount
}

// Busy reports whether any Worker has queued or running tasks.
func (m *Machine) Busy() bool {
	busy := false
	m.EachSched(func(s *rts.Scheduler) {
		if s.Outstanding() > 0 {
			busy = true
		}
	})
	return busy
}

// armFaults materializes the fault extension: the dead bitmap, the
// daemon's liveness filter, and the unload→deregister hook that keeps
// the UNILOGIC routing table honest once instances can die.
func (m *Machine) armFaults(ckptCfg fault.CheckpointConfig) *faultState {
	if m.faults != nil {
		return m.faults
	}
	m.faults = &faultState{
		dead:    make([]bool, m.Workers()),
		ckptCfg: ckptCfg.Norm(),
	}
	if m.Daemon != nil {
		m.Daemon.Live = m.WorkerLive
	}
	m.EachManager(func(mgr *accel.Manager) { mgr.OnUnload = m.domainUnload })
	return m.faults
}

// domainUnload is the Manager.OnUnload hook: any instance leaving a
// fabric (a region or Worker failure) leaves the routing table too.
func (m *Machine) domainUnload(in *accel.Instance) {
	m.Domain.Deregister(in)
}

// InjectFaults expands and arms a fault plan. It returns the number of
// scheduled fault events. An Empty plan arms nothing at all — no state,
// no events, no RNG draws — so a zero-fault run is provably inert.
func (m *Machine) InjectFaults(p *fault.Plan) int {
	if p.Empty() {
		return 0
	}
	fs := m.armFaults(p.Checkpoint)
	if fs.injector == nil {
		fs.injector = fault.NewInjector(m.Eng, fault.Hooks{
			KillWorker: m.KillWorker,
			FailRegion: m.FailFabricRegion,
			FlapLink:   m.FlapLink,
		})
	}
	events := p.Schedule(fault.Shape{
		Workers: m.Workers(),
		Rows:    m.Cfg.Fabric.Rows, Cols: m.Cfg.Fabric.Cols,
		Levels: m.Tree.MaxHops(),
	})
	n := fs.injector.Arm(events)
	if p.Checkpoint.Interval > 0 && fs.ckpt == nil {
		fs.ckpt = fault.NewCheckpointer(m.Eng, p.Checkpoint, fault.CkptHooks{
			Busy:    m.Busy,
			Workers: m.checkpointWorkers,
			Buddy: func(w int) int {
				if b := m.nextLive(w); b >= 0 {
					return b
				}
				return w
			},
			Pause:  func(w int) { m.Sched(w).Pause() },
			Resume: func(w int) { m.Sched(w).Resume() },
			Transfer: func(from, to, bytes int, done func()) {
				m.Net.DMATransfer(from, to, bytes, noc.DefaultDMAConfig(), done)
			},
		})
		fs.ckpt.Trace = m.Tracer
		fs.ckpt.Reg = m.Reg
		fs.ckpt.Start()
	}
	return n
}

// checkpointWorkers lists the live Workers with outstanding work, the
// ones whose loss would actually cost recomputation.
func (m *Machine) checkpointWorkers() []int {
	var ws []int
	m.EachSched(func(s *rts.Scheduler) {
		if !m.faults.dead[s.Worker] && s.Outstanding() > 0 {
			ws = append(ws, s.Worker)
		}
	})
	return ws
}

// nextLive returns the first live Worker after w (ascending, wrapping),
// or -1 when every other Worker is dead.
func (m *Machine) nextLive(w int) int {
	n := m.Workers()
	for i := 1; i < n; i++ {
		c := (w + i) % n
		if !m.faults.dead[c] {
			return c
		}
	}
	return -1
}

// KillWorker fail-stops Worker w at the current time and runs the full
// recovery pipeline: its accelerator instances are marked lost and
// deregistered, its queued and in-flight software tasks are reclaimed,
// its UNIMEM pages are migrated to a live buddy, and the reclaimed
// tasks resubmit to that buddy after the restart penalty — a checkpoint
// restore plus partial recompute when checkpointing ran, a full
// recompute bill when it did not. Idempotent per Worker.
func (m *Machine) KillWorker(w int) {
	fs := m.armFaults(fault.CheckpointConfig{})
	if w < 0 || w >= m.Workers() || fs.dead[w] {
		return
	}
	fs.dead[w] = true
	fs.deadCount++
	now := m.Eng.Now()
	m.Tracer.Add(trace.Span{Name: "kill-worker", Cat: trace.CatFault,
		Start: int64(now), End: int64(now),
		PID: trace.WorkerPID(w), TID: trace.TIDCPU})
	m.Reg.Counter("fault.worker_deaths").Inc()

	// Fabric side: every instance on w is lost; in-flight calls on them
	// complete with ErrInstanceLost and requeue at their callers.
	if mgr := m.peekManager(w); mgr != nil {
		if mgr.OnUnload == nil {
			mgr.OnUnload = m.domainUnload
		}
		lost := mgr.FailAll()
		if len(lost) > 0 {
			m.Reg.Counter("fault.modules_lost").Add(uint64(len(lost)))
		}
	}

	// Runtime side: reclaim the queue and the cancellable CPU work.
	target := m.nextLive(w)
	s := m.Sched(w)
	if target >= 0 {
		t := target
		s.Reroute = func(task *rts.Task, done func(rts.Device, error)) {
			m.Cluster.Submit(t, task, done)
		}
	}
	evacs := s.Fail()
	if target < 0 {
		// Last Worker standing died: nothing can absorb the work.
		for _, e := range evacs {
			if e.Done != nil {
				e.Done(rts.DeviceCPU, rts.ErrWorkerLost)
			}
		}
		return
	}

	wg := sim.NewWaitGroup(m.Eng, 2)
	wg.Wait(func() {
		end := m.Eng.Now()
		m.Tracer.Add(trace.Span{Name: "evacuate", Cat: trace.CatRecover,
			Start: int64(now), End: int64(end),
			PID: trace.WorkerPID(w), TID: trace.TIDCPU, Arg: int64(target)})
		trace.LatencyHistogram(m.Reg, "lat.evac_us").Observe((end - now).Micros())
	})

	// Memory side: the dead Worker's pages stream to the buddy.
	m.Space.EvacuateWorker(w, target, func(pages int, bytes int64) {
		if pages > 0 {
			m.Reg.Counter("fault.pages_evacuated").Add(uint64(pages))
			m.Reg.Counter("fault.bytes_evacuated").Add(uint64(bytes))
		}
		wg.DoneOne()
	})

	// Task side: resubmit after the restart penalty.
	resubmit := func() {
		for _, e := range evacs {
			m.Reg.Counter("fault.tasks_evacuated").Inc()
			m.Cluster.Submit(target, e.Task, e.Done)
		}
		wg.DoneOne()
	}
	frac := fs.ckptCfg.RecomputeFraction
	if fs.ckpt != nil && fs.ckpt.Has(w) {
		// Restore the snapshot at the buddy, then redo the work since it.
		recompute := sim.Time(frac * float64(now-fs.ckpt.LastAt(w)))
		m.Reg.Counter("fault.restores").Inc()
		m.Net.DMATransfer(target, target, fs.ckptCfg.Bytes, noc.DefaultDMAConfig(), func() {
			m.Eng.After(recompute, resubmit)
		})
	} else {
		// No checkpoint: the Worker's whole history is gone.
		m.Eng.After(sim.Time(frac*float64(now)), resubmit)
	}
}

// FailFabricRegion permanently disables region (row, col) of Worker w's
// fabric. A module placed there is lost and deregistered; the fabric is
// defragmented around the hole and the lost module redeployed on the
// same Worker — or, when even the compacted fabric cannot host it, left
// to software execution (the policy layer degrades to CPU on its own
// once no instance is registered).
func (m *Machine) FailFabricRegion(w, row, col int) {
	fs := m.armFaults(fault.CheckpointConfig{})
	if w < 0 || w >= m.Workers() || fs.dead[w] {
		return
	}
	now := m.Eng.Now()
	m.Tracer.Add(trace.Span{Name: "fail-region", Cat: trace.CatFault,
		Start: int64(now), End: int64(now),
		PID: trace.WorkerPID(w), TID: trace.TIDFabric, Arg: int64(row*m.Cfg.Fabric.Cols + col)})
	m.Reg.Counter("fault.region_failures").Inc()
	mgr := m.Manager(w)
	if mgr.OnUnload == nil {
		mgr.OnUnload = m.domainUnload
	}
	lost := mgr.FailRegion(row, col)
	if len(lost) == 0 {
		return
	}
	m.Reg.Counter("fault.modules_lost").Add(uint64(len(lost)))
	// Re-floorplan the survivors around the hole, then bring the lost
	// modules back if the compacted fabric still has room.
	mgr.Fab.Defragment()
	for _, in := range lost {
		in := in
		m.Domain.Deploy(w, in.Impl, func(_ *accel.Instance, err error) {
			name := in.Impl.Kernel.Name
			if err != nil {
				m.Reg.Counter("fault.sw_fallbacks").Inc()
				at := int64(m.Eng.Now())
				m.Tracer.Add(trace.Span{Name: name, Cat: trace.CatRecover, Start: at, End: at,
					PID: trace.WorkerPID(w), TID: trace.TIDFabric, Detail: "sw-fallback"})
				return
			}
			m.Reg.Counter("fault.modules_redeployed").Inc()
			m.Tracer.Add(trace.Span{Name: "redeploy", Cat: trace.CatRecover,
				Start: int64(now), End: int64(m.Eng.Now()),
				PID: trace.WorkerPID(w), TID: trace.TIDFabric, Detail: name})
		})
	}
}

// FlapLink takes Worker w's level-level uplink out of service for down
// simulated time; traffic queues behind the outage.
func (m *Machine) FlapLink(w, level int, down sim.Time) {
	if m.Net.FlapLink(w, level, down) {
		now := m.Eng.Now()
		m.Tracer.Add(trace.Span{Name: "flap-link", Cat: trace.CatFault,
			Start: int64(now), End: int64(now + down),
			PID: trace.WorkerPID(w), TID: trace.TIDDMA, Arg: int64(level)})
		m.Reg.Counter("fault.link_flaps").Inc()
	}
}

// faultReport renders the resilience section of Report; empty when no
// fault state was ever armed.
func (m *Machine) faultReport() string {
	if m.faults == nil {
		return ""
	}
	reg := m.Reg
	var b strings.Builder
	fmt.Fprintf(&b, "faults: %d worker deaths, %d region failures, %d link flaps\n",
		reg.CounterTotal("fault.worker_deaths"),
		reg.CounterTotal("fault.region_failures"),
		reg.CounterTotal("fault.link_flaps"))
	type row struct{ label, key string }
	rows := []row{
		{"tasks evacuated", "fault.tasks_evacuated"},
		{"tasks rerouted", "fault.tasks_rerouted"},
		{"tasks requeued", "fault.tasks_requeued"},
		{"pages evacuated", "fault.pages_evacuated"},
		{"modules lost", "fault.modules_lost"},
		{"modules redeployed", "fault.modules_redeployed"},
		{"software fallbacks", "fault.sw_fallbacks"},
		{"checkpoints", "fault.checkpoints"},
		{"restores", "fault.restores"},
	}
	for _, r := range rows {
		if v := reg.CounterTotal(r.key); v > 0 {
			fmt.Fprintf(&b, "  %-20s %d\n", r.label, v)
		}
	}
	if h := reg.FindHistogram("lat.evac_us"); h != nil && h.Count() > 0 {
		fmt.Fprintf(&b, "  %-20s p50 %.1fus max %.1fus\n", "evacuation latency", h.Quantile(0.5), h.Max())
	}
	return b.String()
}

// sortedDead returns the dead Worker ids ascending (test helper and
// report fodder).
func (m *Machine) sortedDead() []int {
	if m.faults == nil {
		return nil
	}
	var out []int
	for w, dead := range m.faults.dead {
		if dead {
			out = append(out, w)
		}
	}
	return out
}
