// Package sim provides the discrete-event simulation kernel that every
// other ECOSCALE substrate runs on.
//
// The kernel is deliberately small: a simulated clock, a priority queue of
// events, and cooperative "processes" expressed as callbacks. Determinism
// is a hard requirement — two runs with the same seed and the same event
// insertion order must produce identical traces — so ties in event time are
// broken by insertion sequence number, never by map iteration or scheduler
// whim.
//
// The hot path is allocation-free in steady state: events live in an
// index-addressed arena recycled through a free list (generation-counted
// EventIDs detect staleness), Cancel is O(1) lazy deletion (dead entries
// are skipped when they reach the front of the queue), and the
// AtCall/AfterCall variants let callers schedule a static function plus an
// argument without boxing a fresh closure per event.
//
// The queue is a set of delay lanes in front of a flat 4-ary min-heap of
// plain structs. Events scheduled with the same delay arrive in (at, seq)
// order, so each lane is a FIFO ring that is already sorted and only its
// head sits in the heap; an event whose lane slot is bound to another
// delay goes into the heap directly. The heap minimum is therefore the
// global minimum. See docs/perf.md.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in picoseconds. Picosecond resolution lets cycle
// times of multi-GHz clocks be expressed exactly as integers (1 GHz = 1000
// ps/cycle) while an int64 still spans ~106 days of simulated time.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a simulated duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a simulated duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos converts a simulated duration to floating-point nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

func (t Time) String() string {
	switch {
	case t == math.MaxInt64:
		return "∞"
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanos())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Forever is a sentinel meaning "no deadline".
const Forever Time = math.MaxInt64

// EventID identifies a scheduled event so it can be cancelled. It is a
// small value — an arena index plus the slot's generation at schedule
// time — not a pointer: holding one does not keep the event alive, and a
// stale id (fired, cancelled, or recycled slot) is detected by its
// generation and safely ignored. The zero EventID never matches anything.
type EventID struct {
	idx int32
	gen uint32
}

// eventSlot is one arena cell holding a scheduled event's callback. The
// common zero-alloc path stores a static function in afn plus its argument
// in arg; the closure path stores fn. Exactly one of fn/afn is set while
// the slot is live.
type eventSlot struct {
	fn  func()
	afn func(any)
	arg any
	gen uint32
}

// heapEntry is one priority-queue element. The ordering key (at, seq) is
// embedded so sift operations never chase into the arena; slot+gen locate
// the callback and detect lazily-cancelled entries when they reach the
// root. The low
// laneBits bits of seq hold the entry's lane tag (lane index + 1, or 0 for
// an entry with no lane); the insertion sequence number sits above them,
// so the tag never changes the order. Keeping the entry at 24 bytes with a
// two-key comparison keeps push small enough to inline; layout_test.go
// pins the size.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
	gen  uint32
}

func heLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Delay lanes. numLanes must not exceed 1<<laneBits - 1, since tag 0
// means "no lane".
const (
	laneBits = 8
	laneMask = 1<<laneBits - 1
	numLanes = 64
)

// laneOf hashes a delay to its lane slot: Fibonacci hashing, keeping the
// top log2(numLanes) = 6 bits of the product.
func laneOf(d Time) int {
	return int(uint64(d) * 0x9E3779B97F4A7C15 >> 58)
}

// lane queues the events of one delay behind the lane head, which sits in
// the heap. ring[head : head+n] (mod len(ring)) holds the followers in
// (at, seq) order; len(ring) is zero or a power of two. A lane is bound
// to delay while busy and is rebound by the first event that finds it
// idle.
type lane struct {
	delay   Time
	busy    bool
	head, n int
	ring    []heapEntry
}

// put appends a follower.
func (l *lane) put(he heapEntry) {
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = he
	l.n++
}

// grow doubles the ring, unwrapping the followers to its start.
func (l *lane) grow() {
	ring := make([]heapEntry, max(2*len(l.ring), 16))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create one with NewEngine. An Engine is not safe for concurrent
// use: the simulated world is single-threaded by design (parallel hardware
// is modelled by interleaved events, not goroutines), which is what makes
// runs reproducible.
type Engine struct {
	now     Time
	seq     uint64
	heap    []heapEntry
	lanes   [numLanes]lane
	arena   []eventSlot
	free    []int32
	live    int // scheduled, not yet fired or cancelled
	ran     uint64
	stopped bool
	rng     *RNG

	useFree *useOp // resource.go: pooled Use/UseCall operations

	// Sampling hook (see SetSampler). sampleAt is Forever when no
	// sampler is installed, so the disabled cost is one comparison in
	// fire.
	sampler  func(now Time) Time
	sampleAt Time
}

// NewEngine returns an engine at time zero whose random source is seeded
// with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRNG(seed), sampleAt: Forever}
}

// SetSampler installs fn as the engine's sampling hook: immediately
// before running the first event whose time is at or after nextAt, the
// engine calls fn(now); fn returns the next boundary to sample at, or
// Forever to stop. The hook schedules no events and never advances the
// clock, so installing it cannot change simulation results, event
// counts, or the final idle time — unlike a periodic self-rescheduling
// event, whose trailing tick would extend the run past the last real
// event. Passing a nil fn uninstalls the hook.
func (e *Engine) SetSampler(nextAt Time, fn func(now Time) Time) {
	e.sampler = fn
	if fn == nil {
		e.sampleAt = Forever
		return
	}
	e.sampleAt = nextAt
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// EventsRun reports how many events have fired so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending reports how many events are scheduled and not yet fired.
// Lazily-cancelled entries still sitting in the heap are not counted.
func (e *Engine) Pending() int { return e.live }

// alloc takes a slot from the free list, growing the arena when empty.
// Generations start at 1 so the zero EventID is never valid.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.arena = append(e.arena, eventSlot{gen: 1})
	return int32(len(e.arena) - 1)
}

// freeSlot recycles a slot: references are dropped so fired callbacks can
// be collected, and the generation bump invalidates every outstanding
// EventID and heap entry pointing at the slot.
func (e *Engine) freeSlot(idx int32) {
	s := &e.arena[idx]
	s.fn, s.afn, s.arg = nil, nil, nil
	s.gen++
	e.free = append(e.free, idx)
}

func (e *Engine) schedule(at Time, fn func(), afn func(any), arg any) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	idx := e.alloc()
	s := &e.arena[idx]
	s.fn, s.afn, s.arg = fn, afn, arg
	he := heapEntry{at: at, seq: e.seq << laneBits, slot: idx, gen: s.gen}
	e.seq++
	e.live++
	d := at - e.now
	li := laneOf(d)
	if l := &e.lanes[li]; l.busy && l.delay == d {
		he.seq |= uint64(li + 1)
		l.put(he)
	} else {
		if !l.busy {
			l.busy, l.delay = true, d
			he.seq |= uint64(li + 1)
		}
		e.push(he)
	}
	return EventID{idx: idx, gen: s.gen}
}

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it would corrupt causality silently otherwise.
func (e *Engine) At(at Time, fn func()) EventID {
	return e.schedule(at, fn, nil, nil)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.schedule(e.now+d, fn, nil, nil)
}

// AtCall schedules fn(arg) at absolute time at. With a statically
// allocated fn and a pointer-typed arg this path performs no heap
// allocation, unlike At, whose closure argument is typically boxed at the
// call site. It is the kernel's zero-alloc scheduling primitive.
func (e *Engine) AtCall(at Time, fn func(any), arg any) EventID {
	return e.schedule(at, nil, fn, arg)
}

// AfterCall schedules fn(arg) to run d after the current time; see AtCall.
func (e *Engine) AfterCall(d Time, fn func(any), arg any) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.schedule(e.now+d, nil, fn, arg)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// actually cancelled by this call. Cancellation is O(1): the slot is
// recycled immediately, while the heap entry goes stale and is discarded
// when it reaches the top of the queue.
func (e *Engine) Cancel(id EventID) bool {
	if id.gen == 0 || int(id.idx) >= len(e.arena) || e.arena[id.idx].gen != id.gen {
		return false
	}
	e.freeSlot(id.idx)
	e.live--
	return true
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// push inserts an entry into the 4-ary min-heap.
func (e *Engine) push(he heapEntry) {
	q := append(e.heap, he)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !heLess(he, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = he
	e.heap = q
}

// siftDown places he at the root of the non-empty heap and restores the
// heap order below it.
func (e *Engine) siftDown(he heapEntry) {
	q := e.heap
	n := len(q)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if heLess(q[j], q[m]) {
				m = j
			}
		}
		if !heLess(q[m], he) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = he
}

// next removes and returns the heap minimum, which the caller guarantees
// exists. When it is a lane head with a follower, the follower takes the
// root's place with one sift-down; otherwise the lane goes idle and the
// heap's last entry takes it.
func (e *Engine) next() heapEntry {
	top := e.heap[0]
	if t := top.seq & laneMask; t != 0 {
		l := &e.lanes[t-1]
		if l.n > 0 {
			he := l.ring[l.head]
			l.head = (l.head + 1) & (len(l.ring) - 1)
			l.n--
			e.siftDown(he)
			return top
		}
		l.busy = false
	}
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return top
}

// prune discards lazily-cancelled entries from the heap top, so that
// e.heap[0], when present, is always a live event.
func (e *Engine) prune() {
	for len(e.heap) > 0 && e.arena[e.heap[0].slot].gen != e.heap[0].gen {
		e.next()
	}
}

// fire removes and runs the heap head, which the caller has verified live.
func (e *Engine) fire() {
	he := e.next()
	s := &e.arena[he.slot]
	fn, afn, arg := s.fn, s.afn, s.arg
	e.freeSlot(he.slot)
	e.live--
	if he.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = he.at
	e.ran++
	if he.at >= e.sampleAt {
		e.sampleAt = e.sampler(he.at)
	}
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
}

// Step fires the single earliest pending event. It reports false when no
// pending events remain.
func (e *Engine) Step() bool {
	e.prune()
	if len(e.heap) == 0 {
		return false
	}
	e.fire()
	return true
}

// Run fires events until the queue drains, Stop is called, or the next
// event would be after deadline (use Forever for no deadline). It returns
// the final simulated time.
func (e *Engine) Run(deadline Time) Time {
	e.stopped = false
	for !e.stopped {
		e.prune()
		if len(e.heap) == 0 || e.heap[0].at > deadline {
			break
		}
		e.fire()
	}
	if e.now < deadline && deadline != Forever {
		// Advance the clock to the deadline so back-to-back bounded runs
		// observe contiguous time.
		e.now = deadline
	}
	return e.now
}

// RunUntilIdle fires events until none remain and returns the final time.
func (e *Engine) RunUntilIdle() Time { return e.Run(Forever) }
