// Package rts is the ECOSCALE runtime system (§4.2): one scheduler per
// Worker with a local work queue, an execution-history store, and a work
// and data distribution algorithm that "decides whether the function will
// be executed in software or in hardware based on the local status and
// the status of other Workers in the vicinity". Device selection is
// driven by input-dependent execution-time models trained on the history
// (see internal/perfmodel). Loading kernels on the reconfigurable block
// is explicit: the paper's runtime daemon that would decide it from the
// History is not modelled (DESIGN.md S11).
package rts

import (
	"errors"
	"strconv"

	"ecoscale/internal/accel"
	"ecoscale/internal/energy"
	"ecoscale/internal/hls"
	"ecoscale/internal/perfmodel"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
	"ecoscale/internal/unilogic"
)

// Device identifies where a task ran.
type Device int

// Devices.
const (
	DeviceCPU Device = iota
	DeviceHW
)

func (d Device) String() string {
	if d == DeviceHW {
		return "hw"
	}
	return "cpu"
}

// Task is one accelerable function call.
type Task struct {
	ID     uint64
	Kernel string
	// Bindings are the scalar arguments (also the model features).
	Bindings map[string]float64
	// Reads/Writes are the UNIMEM spans a hardware call streams.
	Reads, Writes []accel.Span
	// SWStats is the dynamic op mix of the software execution, used by
	// the CPU timing model and as training features.
	SWStats hls.RunStats
	// Exec applies the data plane (same function for both devices —
	// results must match by construction).
	Exec func() error

	submitted sim.Time
}

// Features returns the model feature vector: the input-size signals of
// §4.2 ("correlation between input/output size ... and execution time").
func (t *Task) Features() []float64 {
	return []float64{
		float64(t.SWStats.Ops),
		float64(t.SWStats.Loads + t.SWStats.Stores),
	}
}

// Record is one observed execution, folded into the History (the
// History file of Fig. 5).
type Record struct {
	Kernel   string
	Device   Device
	Features []float64
	Duration sim.Time
}

// History is the Execution History block: per (kernel, device) samples
// feeding the runtime models. It keeps no raw records: each pair holds
// running normal-equation sums (see perfmodel.Normal) of its durations,
// so a model is refit from the sums in O(1) of history length, and
// solved at most once per Add to that pair.
type History struct {
	n     int
	byKey map[histKey]*histEntry
}

type histKey struct {
	kernel string
	dev    Device
}

// histEntry is one (kernel, device) pair's running state.
type histEntry struct {
	n   int
	acc perfmodel.Normal
	// model caches the fit (nil when it failed) once solved; Add clears
	// solved.
	model  *perfmodel.Regression
	solved bool
	// ragged marks a Features width that differs from the first
	// record's: no model fits the pair from then on.
	ragged bool
}

// NewHistory returns an empty history. The index map materializes on the
// first Add, so an idle Worker's history costs a few words.
func NewHistory() *History {
	return &History{}
}

// Add folds a record into its (kernel, device) sums; the record itself
// is not kept.
func (h *History) Add(r Record) {
	h.n++
	if h.byKey == nil {
		h.byKey = map[histKey]*histEntry{}
	}
	k := histKey{r.Kernel, r.Device}
	e := h.byKey[k]
	if e == nil {
		e = &histEntry{}
		h.byKey[k] = e
	}
	e.n++
	e.solved = false
	if !e.ragged && e.acc.Add(r.Features, float64(r.Duration)) != nil {
		e.ragged = true
	}
}

// Len returns the total record count.
func (h *History) Len() int { return h.n }

// Samples returns how many records exist for (kernel, device).
func (h *History) Samples(kernel string, dev Device) int {
	if e := h.byKey[histKey{kernel, dev}]; e != nil {
		return e.n
	}
	return 0
}

// Model fits a time-prediction regression for (kernel, device). It
// returns nil when there are too few samples or the fit is degenerate.
// The model is shared until the next Add to the pair: callers must not
// modify it.
func (h *History) Model(kernel string, dev Device) *perfmodel.Regression {
	e := h.byKey[histKey{kernel, dev}]
	if e == nil || e.n < 4 || e.ragged {
		return nil
	}
	if !e.solved {
		reg := &perfmodel.Regression{Lambda: 1e-6}
		if e.acc.Solve(reg) != nil {
			reg = nil
		}
		e.model, e.solved = reg, true
	}
	return e.model
}

// Policy selects the execution device for a task.
type Policy interface {
	Name() string
	// Choose returns the device and, for DeviceHW, whether the decision
	// is a forced exploration sample.
	Choose(s *Scheduler, t *Task) Device
}

// PolicyCPU always runs on the CPU.
type PolicyCPU struct{}

// Name implements Policy.
func (PolicyCPU) Name() string { return "always-sw" }

// Choose implements Policy.
func (PolicyCPU) Choose(*Scheduler, *Task) Device { return DeviceCPU }

// PolicyHW always runs in hardware when an instance exists.
type PolicyHW struct{}

// Name implements Policy.
func (PolicyHW) Name() string { return "always-hw" }

// Choose implements Policy.
func (PolicyHW) Choose(s *Scheduler, t *Task) Device {
	if len(s.Domain.Instances(t.Kernel)) == 0 {
		return DeviceCPU
	}
	return DeviceHW
}

// PolicyModel is the §4.2 model-driven policy: predict both devices'
// times from history and pick the cheaper, exploring (alternating) until
// both models have enough samples.
type PolicyModel struct{}

// Name implements Policy.
func (PolicyModel) Name() string { return "model" }

// Choose implements Policy.
func (PolicyModel) Choose(s *Scheduler, t *Task) Device {
	if len(s.Domain.Instances(t.Kernel)) == 0 {
		return DeviceCPU
	}
	mCPU := s.History.Model(t.Kernel, DeviceCPU)
	mHW := s.History.Model(t.Kernel, DeviceHW)
	if mCPU == nil || mHW == nil {
		// Exploration phase: alternate to gather both sample sets.
		if (s.History.Samples(t.Kernel, DeviceCPU)) <= s.History.Samples(t.Kernel, DeviceHW) {
			return DeviceCPU
		}
		return DeviceHW
	}
	f := t.Features()
	if mHW.Predict(f) < mCPU.Predict(f) {
		return DeviceHW
	}
	return DeviceCPU
}

// PolicyOracle consults the exact timing models (perfect knowledge) —
// the upper bound E10 compares against. The hardware side includes the
// invocation overhead (doorbell, translation, argument streaming) that
// makes offload a loss for tiny calls.
type PolicyOracle struct{}

// Name implements Policy.
func (PolicyOracle) Name() string { return "oracle" }

// Choose implements Policy.
func (PolicyOracle) Choose(s *Scheduler, t *Task) Device {
	ins := s.Domain.Instances(t.Kernel)
	if len(ins) == 0 {
		return DeviceCPU
	}
	hwTime, err := ins[0].Impl.Time(t.Bindings)
	if err != nil {
		return DeviceCPU
	}
	if hwTime+s.hwCallOverhead(t) < s.CPUModel.Time(t.SWStats) {
		return DeviceHW
	}
	return DeviceCPU
}

// hwCallOverhead estimates the fixed plus data-movement cost of one
// hardware invocation.
func (s *Scheduler) hwCallOverhead(t *Task) sim.Time {
	bytes := 0
	for _, sp := range t.Reads {
		bytes += sp.Size
	}
	for _, sp := range t.Writes {
		bytes += sp.Size
	}
	stream := sim.Time(float64(bytes) / 8.0 * float64(sim.Nanosecond)) // ~8 B/ns effective
	return s.HWOverhead + stream
}

// queued pairs a task with its completion callback.
type queued struct {
	task *Task
	done func(Device, error)
}

// Scheduler is one Worker's runtime scheduler.
type Scheduler struct {
	Worker   int
	Domain   *unilogic.Domain
	History  *History
	Policy   Policy
	CPUModel hls.CPUModel
	Meter    *energy.Meter
	// Cores bounds concurrent CPU tasks on this Worker.
	Cores int
	// HWInflight bounds concurrent hardware calls issued by this Worker
	// (the pipelined-sharing window).
	HWInflight int
	// HWOverhead is the fixed per-call offload cost the oracle policy
	// charges (doorbell + translation + control).
	HWOverhead sim.Time
	// Trace, when non-nil, records task-lifecycle spans (queue wait,
	// dispatch, compute, whole task) for the Chrome/Perfetto export.
	Trace *trace.Tracer
	// Reg, when non-nil, receives task counters (labelled by worker,
	// device, kernel, policy) and the lat.* latency histograms.
	Reg *trace.Registry
	// Reroute, when non-nil, receives tasks this Worker can no longer
	// serve (submitted to or completing on a dead Worker). Wired by the
	// fault layer to resubmit elsewhere; nil on a healthy machine.
	Reroute func(*Task, func(Device, error))

	eng        *sim.Engine
	queue      []queued
	cpuRunning int
	hwRunning  int
	executed   [2]uint64 // indexed by Device
	waitTime   sim.Time
	nextID     uint64
	idleCb     func() // hook for the work-stealing layer
	wlabel     string // lazily cached strconv of Worker for metric labels
	taskCtrs   []tasksCtr
	opFree     *taskOp
	inflight   []*taskOp // CPU ops with a cancellable completion event
	dead       bool      // Worker failed: no dispatch, work reroutes
	paused     bool      // checkpoint quiesce: no new dispatch

	// Time-weighted occupancy integrals (core-ps / slot-ps), folded on
	// every cpuRunning/hwRunning change; see sim.Resource for the scheme.
	cpuBusyInt sim.Time
	hwBusyInt  sim.Time
	lastBusyAt sim.Time
}

// NewScheduler creates a Worker's scheduler.
func NewScheduler(worker int, domain *unilogic.Domain, eng *sim.Engine, meter *energy.Meter) *Scheduler {
	return &Scheduler{
		Worker: worker, Domain: domain, History: NewHistory(),
		Policy: PolicyModel{}, CPUModel: hls.DefaultCPUModel(),
		Meter: meter, Cores: 4, HWInflight: 4,
		HWOverhead: 2 * sim.Microsecond, eng: eng,
	}
}

// workerLabel returns the Worker id as a string for metric labels,
// formatted on first use so construction does no naming work.
func (s *Scheduler) workerLabel() string {
	if s.wlabel == "" {
		s.wlabel = strconv.Itoa(s.Worker)
	}
	return s.wlabel
}

// QueueLen returns the local queue depth — the signal Lazy Scheduling
// uses to infer system load without remote monitoring.
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// Outstanding returns queued plus running tasks.
func (s *Scheduler) Outstanding() int { return len(s.queue) + s.cpuRunning + s.hwRunning }

// Executed returns per-device completed-task counts.
func (s *Scheduler) Executed(d Device) uint64 { return s.executed[d] }

// tickBusy folds the interval since the last occupancy change into the
// CPU and HW busy-time integrals. Called before every running-count
// change.
func (s *Scheduler) tickBusy() {
	if now := s.eng.Now(); now > s.lastBusyAt {
		dt := now - s.lastBusyAt
		s.cpuBusyInt += sim.Time(s.cpuRunning) * dt
		s.hwBusyInt += sim.Time(s.hwRunning) * dt
		s.lastBusyAt = now
	}
}

// CPUUtilization returns the fraction of [0, now] this Worker's cores
// spent running software tasks.
func (s *Scheduler) CPUUtilization(now sim.Time) float64 {
	if now <= 0 || s.Cores <= 0 {
		return 0
	}
	b := s.cpuBusyInt
	if now > s.lastBusyAt {
		b += sim.Time(s.cpuRunning) * (now - s.lastBusyAt)
	}
	return float64(b) / (float64(now) * float64(s.Cores))
}

// HWUtilization returns the fraction of [0, now] this Worker's hardware
// in-flight window was occupied by outstanding accelerator calls.
func (s *Scheduler) HWUtilization(now sim.Time) float64 {
	if now <= 0 || s.HWInflight <= 0 {
		return 0
	}
	b := s.hwBusyInt
	if now > s.lastBusyAt {
		b += sim.Time(s.hwRunning) * (now - s.lastBusyAt)
	}
	return float64(b) / (float64(now) * float64(s.HWInflight))
}

// MeanWait returns the average queue wait.
func (s *Scheduler) MeanWait() sim.Time {
	n := s.executed[DeviceCPU] + s.executed[DeviceHW]
	if n == 0 {
		return 0
	}
	return s.waitTime / sim.Time(n)
}

// Submit enqueues a task; done fires on completion with the device used.
func (s *Scheduler) Submit(t *Task, done func(Device, error)) {
	if s.dead {
		s.rerouteOrFail(t, done)
		return
	}
	t.ID = s.nextID
	s.nextID++
	t.submitted = s.eng.Now()
	s.queue = append(s.queue, queued{t, done})
	s.pump()
}

// steal removes the newest queued task for transfer to another Worker.
func (s *Scheduler) steal() (queued, bool) {
	if len(s.queue) == 0 {
		return queued{}, false
	}
	q := s.queue[len(s.queue)-1]
	s.queue = s.queue[:len(s.queue)-1]
	return q, true
}

// pump dispatches queued tasks while execution slots are available.
func (s *Scheduler) pump() {
	if s.dead || s.paused {
		return
	}
	for len(s.queue) > 0 {
		t := s.queue[0].task
		dev := s.Policy.Choose(s, t)
		if dev == DeviceCPU && s.cpuRunning >= s.Cores {
			return
		}
		if dev == DeviceHW && s.hwRunning >= s.HWInflight {
			return
		}
		q := s.queue[0]
		s.queue = s.queue[1:]
		s.start(q, dev)
	}
}

// taskOp is a pooled in-flight task execution: it carries the dispatch
// state the old per-task completion closures used to capture, so the CPU
// compute→finish path schedules through static callbacks with no per-task
// heap allocation. Ops are recycled through a per-scheduler free list.
type taskOp struct {
	s     *Scheduler
	t     *Task
	done  func(Device, error)
	dev   Device
	start sim.Time
	ev    sim.EventID // CPU completion event, cancellable on Worker death
	ix    int         // index into s.inflight; -1 when untracked (HW ops)
	next  *taskOp
}

func (s *Scheduler) getTaskOp() *taskOp {
	if op := s.opFree; op != nil {
		s.opFree = op.next
		op.next = nil
		return op
	}
	return &taskOp{}
}

func (s *Scheduler) putTaskOp(op *taskOp) {
	*op = taskOp{next: s.opFree}
	s.opFree = op
}

func (s *Scheduler) start(q queued, dev Device) {
	t := q.task
	wait := s.eng.Now() - t.submitted
	s.waitTime += wait
	start := s.eng.Now()
	pid := trace.WorkerPID(s.Worker)
	s.Trace.Add(trace.Span{Name: t.Kernel, Cat: trace.CatQueue,
		Start: int64(t.submitted), End: int64(start),
		PID: pid, TID: trace.TIDCPU, Task: t.ID})
	s.Trace.Add(trace.Span{Name: t.Kernel, Cat: trace.CatDispatch,
		Start: int64(start), End: int64(start),
		PID: pid, TID: trace.TIDCPU, Task: t.ID, Detail: dev.String()})
	if s.Reg != nil {
		trace.LatencyHistogram(s.Reg, "lat.queue_us").Observe(wait.Micros())
	}
	op := s.getTaskOp()
	op.s, op.t, op.done, op.dev, op.start = s, t, q.done, dev, start
	op.ix = -1
	if dev == DeviceHW {
		s.tickBusy()
		s.hwRunning++
		s.Domain.Call(s.Worker, t.Kernel, accel.CallSpec{
			Bindings: t.Bindings, Reads: t.Reads, Writes: t.Writes,
			Exec: t.Exec, Ops: t.SWStats.Ops,
		}, op.finishHW)
		return
	}
	// CPU path: hold a core for the modelled time, then apply data. The
	// completion event stays cancellable so Fail can reclaim the work.
	s.tickBusy()
	s.cpuRunning++
	op.ev = s.eng.AfterCall(s.CPUModel.Time(t.SWStats), taskCPUDone, op)
	op.ix = len(s.inflight)
	s.inflight = append(s.inflight, op)
}

// untrack removes a CPU op from the in-flight set (swap removal, O(1)).
func (s *Scheduler) untrack(op *taskOp) {
	i := op.ix
	if i < 0 || i >= len(s.inflight) || s.inflight[i] != op {
		return
	}
	last := len(s.inflight) - 1
	s.inflight[i] = s.inflight[last]
	s.inflight[i].ix = i
	s.inflight[last] = nil
	s.inflight = s.inflight[:last]
	op.ix = -1
}

// finishHW adapts taskFinish to the accelerator middleware's completion
// signature. The method value costs one small allocation per hardware
// call — noise next to the call's streaming machinery — where the old
// code boxed the full dispatch context.
func (op *taskOp) finishHW(err error) { taskFinish(op, err) }

// taskCPUDone is the CPU compute-completion event.
func taskCPUDone(a any) {
	op := a.(*taskOp)
	s, t := op.s, op.t
	s.untrack(op)
	if s.Meter != nil {
		s.Meter.Charge("cpu", energy.Joules(t.SWStats.Ops)*s.Meter.Model.CPUOp+
			energy.Joules(t.SWStats.Loads+t.SWStats.Stores)*s.Meter.Model.CacheAccess)
	}
	now := s.eng.Now()
	s.Trace.Add(trace.Span{Name: t.Kernel, Cat: trace.CatCompute,
		Start: int64(op.start), End: int64(now),
		PID: trace.WorkerPID(s.Worker), TID: trace.TIDCPU, Task: t.ID, Detail: "cpu"})
	if s.Reg != nil {
		trace.LatencyHistogram(s.Reg, "lat.compute_cpu_us").Observe((now - op.start).Micros())
	}
	var err error
	if t.Exec != nil {
		err = t.Exec()
	}
	taskFinish(op, err)
}

// taskFinish retires a task on either device: accounting, history,
// tracing, the caller's completion, and a pump for the freed slot.
func taskFinish(op *taskOp, err error) {
	s, t, dev, start, done := op.s, op.t, op.dev, op.start, op.done
	s.putTaskOp(op) // recycle first: done/pump may start new tasks
	s.tickBusy()
	if dev == DeviceHW {
		s.hwRunning--
	} else {
		s.cpuRunning--
	}
	if s.dead {
		// The Worker died while this call was in flight; its result has
		// no one to retire it. Hand the task to the fault layer.
		s.rerouteOrFail(t, done)
		return
	}
	if dev == DeviceHW && errors.Is(err, accel.ErrInstanceLost) {
		// The hosting region failed under the call: not a task failure but
		// a retry. By now the instance is deregistered, so the policy will
		// route the replay to a surviving instance or the CPU.
		s.requeue(t, done)
		return
	}
	s.executed[dev]++
	now := s.eng.Now()
	s.History.Add(Record{
		Kernel: t.Kernel, Device: dev,
		Features: t.Features(), Duration: now - start,
	})
	s.Trace.Add(trace.Span{Name: t.Kernel, Cat: trace.CatTask,
		Start: int64(t.submitted), End: int64(now),
		PID: trace.WorkerPID(s.Worker), TID: trace.TIDCPU, Task: t.ID, Detail: dev.String()})
	if s.Reg != nil {
		s.tasksCounter(t.Kernel, dev).Inc()
		trace.LatencyHistogram(s.Reg, "lat.task_us").Observe((now - t.submitted).Micros())
	}
	if done != nil {
		done(dev, err)
	}
	s.pump()
	if s.Outstanding() == 0 && s.idleCb != nil {
		s.idleCb()
	}
}

// tasksCounter returns the rts.tasks series for (kernel, dev) under the
// current policy, looked up in the registry once and then served from a
// per-scheduler cache: a Worker sees few distinct series, so a linear
// scan beats the registry's label-key formatting on every completion.
func (s *Scheduler) tasksCounter(kernel string, dev Device) *trace.Counter {
	policy := s.Policy.Name()
	for _, tc := range s.taskCtrs {
		if tc.kernel == kernel && tc.dev == dev && tc.policy == policy {
			return tc.c
		}
	}
	c := s.Reg.CounterL("rts.tasks",
		trace.L("worker", s.workerLabel()), trace.L("device", dev.String()),
		trace.L("kernel", kernel), trace.L("policy", policy))
	s.taskCtrs = append(s.taskCtrs, tasksCtr{kernel, policy, dev, c})
	return c
}

// tasksCtr is one cached rts.tasks series of a Scheduler.
type tasksCtr struct {
	kernel, policy string
	dev            Device
	c              *trace.Counter
}
