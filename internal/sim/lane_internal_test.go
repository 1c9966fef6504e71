package sim

import "testing"

// Events on one delay wait in their lane's ring behind a single heap
// entry, the lane head; an event whose lane slot is bound to another
// delay goes to the heap; and a drained lane goes idle, free to be bound
// to a new delay.
func TestLaneHoldsFollowers(t *testing.T) {
	e := NewEngine(1)
	nop := func(any) {}
	for i := 0; i < 1000; i++ {
		e.AfterCall(500, nop, nil)
	}
	if len(e.heap) != 1 {
		t.Fatalf("heap holds %d entries for 1000 events on one delay, want 1", len(e.heap))
	}
	other := Time(501)
	for laneOf(other) != laneOf(500) {
		other++
	}
	e.AfterCall(other, nop, nil)
	if len(e.heap) != 2 {
		t.Fatalf("heap holds %d entries after a colliding delay, want 2", len(e.heap))
	}
	e.RunUntilIdle()
	if e.EventsRun() != 1001 {
		t.Fatalf("ran %d events, want 1001", e.EventsRun())
	}
	for i := range e.lanes {
		if l := &e.lanes[i]; l.busy || l.n != 0 {
			t.Fatalf("lane %d still busy=%v with %d followers after drain", i, l.busy, l.n)
		}
	}
	e.AfterCall(other, nop, nil)
	if l := &e.lanes[laneOf(other)]; !l.busy || l.delay != other {
		t.Fatalf("idle lane bound to delay %v (busy=%v), want %v", l.delay, l.busy, other)
	}
}
