package rts

import (
	"errors"

	"ecoscale/internal/trace"
)

// Worker-death handling for the scheduler: when a Worker fails, its
// queued and in-flight software work is reclaimable (the sim's CPU
// completions are cancellable events), and anything that cannot be
// served locally is handed to the fault layer's Reroute hook. All of
// this is pay-for-use — a machine that never injects faults takes one
// dead/paused branch per pump and nothing else.

// ErrWorkerLost reports that a task's Worker died and no reroute path
// was configured, so the task cannot complete.
var ErrWorkerLost = errors.New("rts: worker lost")

// Evac is one unit of work reclaimed from a dead Worker: the task and
// its original completion callback, ready to resubmit elsewhere.
type Evac struct {
	Task *Task
	Done func(Device, error)
}

// Dead reports whether the Worker has failed.
func (s *Scheduler) Dead() bool { return s.dead }

// Fail kills the Worker: queued tasks and in-flight software tasks are
// reclaimed (their partial CPU work is lost — the sim cancels their
// completion events) and returned for evacuation, in dispatch order
// then queue order. In-flight hardware calls are not interrupted — they
// run on (possibly remote) fabric and drain through taskFinish, which
// reroutes their tasks because the caller is dead. Idempotent.
func (s *Scheduler) Fail() []Evac {
	if s.dead {
		return nil
	}
	s.dead = true
	s.tickBusy()
	var out []Evac
	for _, op := range s.inflight {
		if !s.eng.Cancel(op.ev) {
			continue
		}
		s.cpuRunning--
		t, done := op.t, op.done
		op.ix = -1
		s.putTaskOp(op)
		out = append(out, Evac{t, done})
	}
	s.inflight = s.inflight[:0]
	for _, q := range s.queue {
		out = append(out, Evac{q.task, q.done})
	}
	s.queue = nil
	return out
}

// Pause stops dispatching new tasks (checkpoint quiesce); in-flight
// tasks run to completion. Submissions still queue.
func (s *Scheduler) Pause() { s.paused = true }

// Resume lifts a Pause and dispatches whatever queued meanwhile.
func (s *Scheduler) Resume() {
	if !s.paused {
		return
	}
	s.paused = false
	s.pump()
}

// requeue puts a task whose hardware instance died back on the local
// queue for a fresh policy decision.
func (s *Scheduler) requeue(t *Task, done func(Device, error)) {
	now := s.eng.Now()
	s.Trace.Add(trace.Span{Name: t.Kernel, Cat: trace.CatRecover,
		Start: int64(now), End: int64(now),
		PID: trace.WorkerPID(s.Worker), TID: trace.TIDCPU, Task: t.ID, Detail: "requeue"})
	if s.Reg != nil {
		s.Reg.Counter("fault.tasks_requeued").Inc()
	}
	s.queue = append(s.queue, queued{t, done})
	s.pump()
}

// rerouteOrFail forwards a task a dead Worker cannot serve, or fails it
// when no reroute path exists.
func (s *Scheduler) rerouteOrFail(t *Task, done func(Device, error)) {
	if s.Reroute != nil {
		if s.Reg != nil {
			s.Reg.Counter("fault.tasks_rerouted").Inc()
		}
		s.Reroute(t, done)
		return
	}
	if done != nil {
		done(DeviceCPU, ErrWorkerLost)
	}
}
