package sim

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
)

// The waiter ring must not grow without bound under steady churn. The old
// slice-based queue (`waiters = waiters[1:]` + append) kept extending and
// reallocating the backing array and retained popped callbacks; the ring
// reuses a fixed window sized by peak depth.
func TestResourceWaiterRingBounded(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "port", 1)
	r.Acquire(func() {}) // take the only token
	granted := 0
	for i := 0; i < 10000; i++ {
		r.Acquire(func() { granted++ }) // parks: token is held
		r.Release()                     // hands the token straight to the waiter
	}
	if granted != 10000 {
		t.Fatalf("granted %d waiters, want 10000", granted)
	}
	// Peak queue depth was 1, so the ring must still be at its initial size.
	if c := len(r.wq.buf); c > 8 {
		t.Errorf("waiter ring grew to %d cells after 10000 cycles with depth 1, want <= 8", c)
	}
	if r.MaxQueue() != 1 {
		t.Errorf("MaxQueue = %d, want 1", r.MaxQueue())
	}
}

// FIFO order must survive ring wrap-around and mid-stream growth.
func TestResourceWaiterRingFIFOAcrossWrap(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "port", 1)
	r.Acquire(func() {})
	var order []int
	next := 0
	// Interleave pushes and pops so whead walks around the ring several
	// times, including a growth step (depth exceeds the initial 8 cells).
	for round := 0; round < 5; round++ {
		for i := 0; i < 12; i++ {
			id := next
			next++
			r.Acquire(func() { order = append(order, id) })
		}
		for i := 0; i < 12; i++ {
			r.Release()
		}
	}
	if len(order) != 60 {
		t.Fatalf("granted %d waiters, want 60", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("grant order[%d] = %d, want %d (FIFO violated)", i, id, i)
		}
	}
}

// A synchronous Release→grant→Release chain must not deepen the Go stack
// without bound: past maxHandoffDepth the grant is re-scheduled as a
// zero-delay event. The chain still completes at the same simulated time.
func TestResourceHandoffDepthBounded(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "port", 1)
	const chain = 5000
	granted := 0
	r.Acquire(func() {})
	for i := 0; i < chain; i++ {
		r.Acquire(func() {
			granted++
			r.Release() // immediately pass the token on
		})
	}
	r.Release() // kick the chain
	// Only the first maxHandoffDepth grants may run synchronously; the rest
	// unwind through the event queue.
	if granted > maxHandoffDepth {
		t.Fatalf("%d grants ran synchronously, want <= %d", granted, maxHandoffDepth)
	}
	e.RunUntilIdle()
	if granted != chain {
		t.Fatalf("granted %d waiters after drain, want %d", granted, chain)
	}
	if e.Now() != 0 {
		t.Errorf("deferred hand-off advanced simulated time to %v, want 0", e.Now())
	}
	if r.InUse() != 0 {
		t.Errorf("InUse = %d after chain drained, want 0", r.InUse())
	}
}

func noopCall(any) {}

// countCall counts its completions in *int.
func countCall(a any) { *a.(*int)++ }

// A parked Use is only its waiter cell and its share of a hold run:
// 1000 Uses parked on a fresh capacity-4 Resource of a cold engine
// allocate the rings' doublings (8 → 1024 waiter cells, one 8-cell
// hold ring) and no op per Use. The op comes from the engine's free
// list at the grant, so at most capacity ops are ever made.
func TestParkedUseAllocatesNoOp(t *testing.T) {
	const capacity, uses = 4, 1000
	e := NewEngine(1)
	r := NewResource(e, "cores", capacity)
	for i := 0; i < capacity; i++ {
		r.AcquireCall(noopCall, nil) // hold every token
	}
	done := 0
	debug.FreeOSMemory() // keep the background scavenger quiet while measuring
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < uses; i++ {
		r.UseCall(500, countCall, &done)
	}
	runtime.ReadMemStats(&after)
	// 8 + 1 ring allocations, with room for a stray runtime one.
	if n := after.Mallocs - before.Mallocs; n > 12 {
		t.Errorf("parking %d Uses made %d allocations, want <= 12 (ring doublings only)", uses, n)
	}
	for i := 0; i < capacity; i++ {
		r.Release()
	}
	e.RunUntilIdle()
	if done != uses {
		t.Fatalf("%d of %d Uses completed", done, uses)
	}
	ops := 0
	for op := e.useFree; op != nil; op = op.next {
		ops++
	}
	if ops > capacity {
		t.Errorf("engine made %d useOps for a capacity-%d Resource, want <= %d", ops, capacity, capacity)
	}
}

// Parked Acquires and Uses share one FIFO. Each round parks 64 Acquires
// that pass the token on inline, so the Use behind them is granted past
// maxHandoffDepth through the event queue, then alternates Uses and
// Acquires. Later rounds push onto a ring whose head has moved, so the
// queue wraps. A Use's completion runs after its Release has granted
// the next waiters, so each grant is logged with its grant time (a
// Use's is its completion time less its hold) and the log is ordered
// by grant time before it is checked.
func TestResourceMixedWaitersFIFO(t *testing.T) {
	type grant struct {
		at Time
		id int
	}
	e := NewEngine(1)
	r := NewResource(e, "port", 1)
	var log []grant
	next := 0
	wrapped := false
	for round := 0; round < 5; round++ {
		r.AcquireCall(noopCall, nil)
		for i := 0; i < 70; i++ {
			id := next
			next++
			if i >= maxHandoffDepth && i%2 == 0 {
				// Holds of 1 and 2 in pairs: runs of one and two Uses.
				hold := Time(1 + id/4%2)
				r.Use(hold, func() { log = append(log, grant{e.Now() - hold, id}) })
				continue
			}
			r.Acquire(func() {
				if r.handoff > maxHandoffDepth {
					t.Fatal("grant ran synchronously past maxHandoffDepth")
				}
				log = append(log, grant{e.Now(), id})
				r.Release()
			})
		}
		wrapped = wrapped || r.wq.head+r.wq.n > len(r.wq.buf)
		logged := len(log)
		r.Release()
		// The first 64 Acquires ran inline; the Use behind them was
		// granted by a zero-delay event, not yet fired.
		if len(log)-logged != maxHandoffDepth || e.Pending() != 1 {
			t.Fatalf("round %d: %d inline grants and %d pending events, want %d and 1",
				round, len(log)-logged, e.Pending(), maxHandoffDepth)
		}
		e.RunUntilIdle()
	}
	if !wrapped {
		t.Error("the waiter ring never wrapped")
	}
	if len(log) != next {
		t.Fatalf("granted %d of %d waiters", len(log), next)
	}
	sort.SliceStable(log, func(i, j int) bool { return log[i].at < log[j].at })
	for i, g := range log {
		if g.id != i {
			t.Fatalf("grant %d went to waiter %d (FIFO violated)", i, g.id)
		}
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Errorf("InUse = %d, QueueLen = %d after the drain, want 0, 0", r.InUse(), r.QueueLen())
	}
}

// The load stats of a parked-Use run, by hand: six Uses at time 0 on
// two tokens, holding 10, 10, 10, 10, 20 and 20 ps. Two start at once
// and end at 10; the next two wait 10 ps and end at 20; the last two
// wait 20 ps and end at 40.
func TestResourceParkedUseStats(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "port", 2)
	done := 0
	for _, hold := range []Time{10, 10, 10, 10, 20, 20} {
		r.UseCall(hold, countCall, &done)
	}
	if r.holds.n != 2 {
		t.Errorf("four parked Uses with two holds fill %d hold runs, want 2", r.holds.n)
	}
	end := e.RunUntilIdle()
	if done != 6 || end != 40 {
		t.Fatalf("%d Uses done at %v, want 6 at 40ps", done, end)
	}
	if got := r.TotalWait(); got != 60 {
		t.Errorf("TotalWait = %v, want 60ps", got)
	}
	if got := r.MaxQueue(); got != 4 {
		t.Errorf("MaxQueue = %d, want 4", got)
	}
	if got := r.Acquisitions(); got != 6 {
		t.Errorf("Acquisitions = %d, want 6", got)
	}
	if got := r.Utilization(end); got != 1 {
		t.Errorf("Utilization = %v, want 1", got)
	}
}

// The holds ring, like the waiter ring, stays at the peak depth of
// parked Uses under steady churn, here with a new hold for every Use.
func TestResourceHoldRingBounded(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "port", 1)
	done := 0
	for i := 0; i < 10000; i++ {
		r.AcquireCall(noopCall, nil) // take the token
		r.UseCall(Time(1+i), countCall, &done)
		r.Release() // hand it to the parked Use
		e.RunUntilIdle()
	}
	if done != 10000 {
		t.Fatalf("%d of 10000 Uses completed", done)
	}
	if c := len(r.holds.buf); c > 8 {
		t.Errorf("hold ring grew to %d cells after 10000 cycles with depth 1, want <= 8", c)
	}
	if r.MaxQueue() != 1 {
		t.Errorf("MaxQueue = %d, want 1", r.MaxQueue())
	}
}
