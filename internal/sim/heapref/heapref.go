// Package heapref preserves the original container/heap event kernel as a
// reference implementation. It exists for two reasons:
//
//   - the kernel determinism property test runs randomized schedule/cancel
//     workloads against both this engine and the pooled 4-ary production
//     kernel in internal/sim and requires identical traces, and
//   - BenchmarkKernelSpeedup in internal/sim times it against the
//     production kernel on the same shapes, in the same run, and fails
//     when the production kernel's speedup drops below a floor.
//
// It must stay semantically frozen: (at, seq) ordering, eager O(log n)
// Cancel via heap.Remove, one heap allocation per scheduled event. Do not
// optimize this package.
package heapref

import (
	"container/heap"
	"fmt"

	"ecoscale/internal/sim"
)

// event is a scheduled callback.
type event struct {
	at    sim.Time
	seq   uint64
	fn    func()
	index int  // heap index
	dead  bool // cancelled
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID struct{ ev *event }

// eventQueue is a min-heap on (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Engine is the reference discrete-event engine (interface-boxed binary
// heap, pointer-per-event).
type Engine struct {
	now     sim.Time
	seq     uint64
	queue   eventQueue
	ran     uint64
	stopped bool
}

// NewEngine returns a reference engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() sim.Time { return e.now }

// EventsRun reports how many events have fired so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending reports how many events are scheduled and not yet fired.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute time at.
func (e *Engine) At(at sim.Time, fn func()) EventID {
	if at < e.now {
		panic(fmt.Sprintf("heapref: scheduling event at %v before now %v", at, e.now))
	}
	ev := &event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return EventID{ev}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d sim.Time, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("heapref: negative delay %d", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event eagerly via heap.Remove.
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.dead || ev.index < 0 || ev.index >= len(e.queue) || e.queue[ev.index] != ev {
		return false
	}
	ev.dead = true
	heap.Remove(&e.queue, ev.index)
	return true
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the single earliest pending event.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	ev.index = -1
	if ev.dead {
		return true
	}
	if ev.at < e.now {
		panic("heapref: time went backwards")
	}
	e.now = ev.at
	e.ran++
	ev.fn()
	return true
}

// Run fires events until the queue drains, Stop is called, or the next
// event would be after deadline.
func (e *Engine) Run(deadline sim.Time) sim.Time {
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 {
		if e.queue[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline && deadline != sim.Forever {
		e.now = deadline
	}
	return e.now
}

// RunUntilIdle fires events until none remain and returns the final time.
func (e *Engine) RunUntilIdle() sim.Time { return e.Run(sim.Forever) }
