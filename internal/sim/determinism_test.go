package sim_test

// Kernel determinism property test: the pooled lazy-cancel kernel, with
// its delay lanes in front of a flat 4-ary heap, must order events exactly
// like the original container/heap
// kernel (preserved in internal/sim/heapref) — same (at, seq) tie-break,
// same Cancel semantics, same Run-deadline behaviour. A randomized
// schedule/cancel workload drives both engines and the test requires
// identical (final time, events-run, FNV-1a hash of the fired-event
// order), plus dedicated checks for the cancelled-head-at-deadline and
// cancel-after-fire edge cases.

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"ecoscale/internal/sim"
	"ecoscale/internal/sim/heapref"
)

// kernelAPI abstracts the two engines for the shared workload driver.
type kernelAPI interface {
	Now() sim.Time
	At(at sim.Time, fn func()) (cancel func() bool)
	Run(deadline sim.Time) sim.Time
	EventsRun() uint64
	Pending() int
}

type newKernel struct{ e *sim.Engine }

func (k newKernel) Now() sim.Time { return k.e.Now() }
func (k newKernel) At(at sim.Time, fn func()) func() bool {
	id := k.e.At(at, fn)
	return func() bool { return k.e.Cancel(id) }
}
func (k newKernel) Run(deadline sim.Time) sim.Time { return k.e.Run(deadline) }
func (k newKernel) EventsRun() uint64              { return k.e.EventsRun() }
func (k newKernel) Pending() int                   { return k.e.Pending() }

type refKernel struct{ e *heapref.Engine }

func (k refKernel) Now() sim.Time { return k.e.Now() }
func (k refKernel) At(at sim.Time, fn func()) func() bool {
	id := k.e.At(at, fn)
	return func() bool { return k.e.Cancel(id) }
}
func (k refKernel) Run(deadline sim.Time) sim.Time { return k.e.Run(deadline) }
func (k refKernel) EventsRun() uint64              { return k.e.EventsRun() }
func (k refKernel) Pending() int                   { return k.e.Pending() }

// workloadTrace runs a randomized schedule/cancel workload on k and
// returns (final time, events run, FNV-1a hash of the fired-event order).
// Every stochastic decision comes from a rand.Rand seeded with seed, and
// the rng is consulted inside fired events, so any ordering divergence
// between two kernels immediately desynchronizes the traces.
func workloadTrace(k kernelAPI, seed int64) (sim.Time, uint64, uint64) {
	return workloadTraceN(k, seed, 3000)
}

// workloadTraceN is workloadTrace with an explicit spawn budget, so the
// property can also be checked at arena-stressing scales.
func workloadTraceN(k kernelAPI, seed int64, budget int) (sim.Time, uint64, uint64) {
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	var buf [8]byte
	record := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}

	var cancels []func() bool // cancel handles, live and stale alike
	var spawned int
	var spawn func(tag uint64)
	spawn = func(tag uint64) {
		record(tag)
		record(uint64(k.Now()))
		// Fan out children while the budget lasts.
		for c := rng.Intn(3); c > 0 && spawned < budget; c-- {
			spawned++
			child := uint64(spawned)
			cancels = append(cancels, k.At(k.Now()+sim.Time(rng.Intn(50)), func() { spawn(child) }))
		}
		// Cancel a random handle: sometimes live, sometimes already fired
		// or already cancelled (the cancel-after-fire path must agree too).
		if len(cancels) > 0 && rng.Intn(3) == 0 {
			if cancels[rng.Intn(len(cancels))]() {
				record(0xC0FFEE)
			}
		}
	}
	for i := 0; i < 20; i++ {
		spawned++
		tag := uint64(spawned)
		cancels = append(cancels, k.At(sim.Time(rng.Intn(40)), func() { spawn(tag) }))
	}
	// Run in bounded slices so deadline handling (including cancelled
	// heads at the deadline) is exercised, then drain.
	for i := 0; i < 10; i++ {
		k.Run(k.Now() + sim.Time(rng.Intn(200)+1))
	}
	k.Run(sim.Forever)
	return k.Now(), k.EventsRun(), h.Sum64()
}

func TestKernelDeterminismVsHeapRef(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		nt, nr, nh := workloadTrace(newKernel{sim.NewEngine(1)}, seed)
		rt, rr, rh := workloadTrace(refKernel{heapref.NewEngine()}, seed)
		if nt != rt || nr != rr || nh != rh {
			t.Fatalf("seed %d: kernels diverged: new=(t=%v run=%d hash=%x) ref=(t=%v run=%d hash=%x)",
				seed, nt, nr, nh, rt, rr, rh)
		}
	}
}

// The same property at a 10x spawn budget, where the arena has grown
// through several reallocation waves and the free list cycles thousands
// of slots — the regime a large flyweight machine's event kernel lives
// in. Fewer seeds keep the test quick.
func TestKernelDeterminismVsHeapRefLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large determinism sweep skipped in -short")
	}
	for seed := int64(1); seed <= 5; seed++ {
		nt, nr, nh := workloadTraceN(newKernel{sim.NewEngine(1)}, seed, 30000)
		rt, rr, rh := workloadTraceN(refKernel{heapref.NewEngine()}, seed, 30000)
		if nt != rt || nr != rr || nh != rh {
			t.Fatalf("seed %d: kernels diverged at 30k spawns: new=(t=%v run=%d hash=%x) ref=(t=%v run=%d hash=%x)",
				seed, nt, nr, nh, rt, rr, rh)
		}
	}
}

// Same seed must also reproduce on the same kernel (catches accidental
// map-order or pool-state dependence inside the new kernel).
func TestKernelSelfDeterminism(t *testing.T) {
	a1, b1, c1 := workloadTrace(newKernel{sim.NewEngine(1)}, 99)
	a2, b2, c2 := workloadTrace(newKernel{sim.NewEngine(1)}, 99)
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("same-seed runs diverged: (%v %d %x) vs (%v %d %x)", a1, b1, c1, a2, b2, c2)
	}
}

// Cancelled head at the deadline: a dead event sitting first in the queue
// exactly at or before the Run deadline must not fire, must not advance
// the clock past the deadline, and must leave both kernels agreeing.
func TestCancelledHeadAtDeadline(t *testing.T) {
	check := func(k kernelAPI) (sim.Time, uint64, int) {
		fired := 0
		cancel := k.At(10, func() { fired++ })
		k.At(30, func() { fired++ })
		if !cancel() {
			t.Fatal("cancel of pending head returned false")
		}
		end := k.Run(20) // head (t=10) is dead, next live event is past the deadline
		if end != 20 {
			t.Fatalf("Run(20) = %v, want 20", end)
		}
		if fired != 0 {
			t.Fatalf("fired %d events before deadline, want 0", fired)
		}
		k.Run(sim.Forever)
		if fired != 1 {
			t.Fatalf("fired %d events total, want 1", fired)
		}
		return k.Now(), k.EventsRun(), k.Pending()
	}
	nt, nr, np := check(newKernel{sim.NewEngine(1)})
	rt, rr, rp := check(refKernel{heapref.NewEngine()})
	if nt != rt || nr != rr || np != rp {
		t.Fatalf("kernels disagree: new=(%v %d %d) ref=(%v %d %d)", nt, nr, np, rt, rr, rp)
	}
}

// Cancel after fire: a handle for a fired event must report false, and a
// recycled arena slot must not let a stale handle cancel its new tenant.
func TestCancelAfterFireStaleHandle(t *testing.T) {
	e := sim.NewEngine(1)
	id := e.At(10, func() {})
	e.RunUntilIdle()
	if e.Cancel(id) {
		t.Error("Cancel of fired event returned true")
	}
	// The fired event's slot is recycled by the next schedule; the stale
	// handle must still be rejected and the new event must fire.
	ran := false
	e.At(20, func() { ran = true })
	if e.Cancel(id) {
		t.Error("stale handle cancelled a recycled slot's new event")
	}
	e.RunUntilIdle()
	if !ran {
		t.Error("recycled-slot event did not fire")
	}
}

// workloadDeathStorm drives the kernel with the resilience layer's
// signature pattern: per-worker event populations, with workers dying at
// random times and each death cancelling its entire pending set at once
// (a mass-cancellation storm). Returns (final time, events run, FNV-1a
// hash of the fired order and per-death cancel counts).
func workloadDeathStorm(k kernelAPI, seed int64) (sim.Time, uint64, uint64) {
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	var buf [8]byte
	record := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	const workers = 16
	const budget = 4000
	pending := make([][]func() bool, workers)
	dead := make([]bool, workers)
	spawned := 0
	var schedule func(w int)
	schedule = func(w int) {
		if dead[w] || spawned >= budget {
			return
		}
		spawned++
		tag := uint64(spawned)
		pending[w] = append(pending[w], k.At(k.Now()+sim.Time(rng.Intn(60)+1), func() {
			record(tag)
			record(uint64(k.Now()))
			for c := rng.Intn(3); c > 0; c-- {
				schedule(w)
			}
		}))
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < 8; i++ {
			schedule(w)
		}
	}
	for round := 0; round < 12; round++ {
		k.Run(k.Now() + sim.Time(rng.Intn(150)+1))
		w := rng.Intn(workers)
		if dead[w] {
			continue
		}
		dead[w] = true
		cancelled := uint64(0)
		for _, c := range pending[w] {
			if c() {
				cancelled++
			}
		}
		pending[w] = nil
		record(0xDEAD0000 | uint64(w))
		record(cancelled)
	}
	k.Run(sim.Forever)
	return k.Now(), k.EventsRun(), h.Sum64()
}

// Mass-cancellation storms must leave both kernels in lockstep: the
// cancelled generations are discarded identically and the survivors fire
// in the same order.
func TestDeathStormDeterminismVsHeapRef(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		nt, nr, nh := workloadDeathStorm(newKernel{sim.NewEngine(1)}, seed)
		rt, rr, rh := workloadDeathStorm(refKernel{heapref.NewEngine()}, seed)
		if nt != rt || nr != rr || nh != rh {
			t.Fatalf("seed %d: kernels diverged under death storm: new=(t=%v run=%d hash=%x) ref=(t=%v run=%d hash=%x)",
				seed, nt, nr, nh, rt, rr, rh)
		}
	}
}

// The storm must also reproduce against itself (no pool- or free-list-
// order dependence in the mass-cancel path).
func TestDeathStormSelfDeterminism(t *testing.T) {
	a1, b1, c1 := workloadDeathStorm(newKernel{sim.NewEngine(1)}, 77)
	a2, b2, c2 := workloadDeathStorm(newKernel{sim.NewEngine(1)}, 77)
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("same-seed storms diverged: (%v %d %x) vs (%v %d %x)", a1, b1, c1, a2, b2, c2)
	}
}

// delayMix picks the delay of each event a delay-mix workload schedules,
// given the current time: the mixes below steer events onto and off the
// kernel's delay lanes.
type delayMix struct {
	name  string
	delay func(rng *rand.Rand, now sim.Time) sim.Time
}

var delayMixes = []delayMix{
	// Hundreds of distinct delays: lane slots collide (the loser goes to
	// the heap) and idle lanes are rebound to new delays.
	{"wide", func(rng *rand.Rand, _ sim.Time) sim.Time { return sim.Time(rng.Intn(700)) }},
	// E2's shape: nearly every event on one delay, with a few strays.
	{"flood", func(rng *rand.Rand, _ sim.Time) sim.Time {
		if rng.Intn(16) == 0 {
			return sim.Time(rng.Intn(1000))
		}
		return 500
	}},
	// A handful of delays, including zero, like the NoC's hop times.
	{"few", func(rng *rand.Rand, _ sim.Time) sim.Time {
		return [...]sim.Time{0, 3, 40, 41, 250, 500, 1200}[rng.Intn(7)]
	}},
	// Absolute times on a 100-unit grid, so the delay d = at - now of
	// events sharing a time differs with the moment each was scheduled.
	{"absolute", func(rng *rand.Rand, now sim.Time) sim.Time {
		return (now/100+1+sim.Time(rng.Intn(4)))*100 - now
	}},
}

// workloadDelayMix runs a seeded workload whose delays come from mix:
// events fan out, random pending events are cancelled (lane heads and
// lane followers alike, since every pending event is a candidate), and
// Run deadlines are often set to the time of a cancelled event, which may
// be a cancelled lane head. It returns (final time, events run, FNV-1a
// hash of the fired-event order).
func workloadDelayMix(k kernelAPI, mix delayMix, seed int64) (sim.Time, uint64, uint64) {
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	var buf [8]byte
	record := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}

	type pending struct {
		at     sim.Time
		cancel func() bool
	}
	var handles []pending    // scheduled events, pending and fired alike
	var cancelled []sim.Time // times of cancelled events
	const budget = 6000
	spawned := 0
	var spawn func(tag uint64)
	schedule := func() {
		spawned++
		tag := uint64(spawned)
		at := k.Now() + mix.delay(rng, k.Now())
		handles = append(handles, pending{at, k.At(at, func() { spawn(tag) })})
	}
	spawn = func(tag uint64) {
		record(tag)
		record(uint64(k.Now()))
		for c := rng.Intn(4); c > 0 && spawned < budget; c-- {
			schedule()
		}
		if rng.Intn(4) == 0 {
			i := rng.Intn(len(handles))
			if handles[i].cancel() {
				record(0xC0FFEE)
				cancelled = append(cancelled, handles[i].at)
			}
			handles[i] = handles[len(handles)-1]
			handles = handles[:len(handles)-1]
		}
	}
	for i := 0; i < 20; i++ {
		schedule()
	}
	for i := 0; i < 40; i++ {
		deadline := k.Now() + sim.Time(rng.Intn(300)+1)
		if n := len(cancelled); n > 0 && rng.Intn(2) == 0 {
			if at := cancelled[rng.Intn(n)]; at >= k.Now() {
				deadline = at
			}
		}
		k.Run(deadline)
		record(uint64(k.Now()))
		record(uint64(k.Pending()))
	}
	k.Run(sim.Forever)
	return k.Now(), k.EventsRun(), h.Sum64()
}

// The delay lanes must not change the fired order: every delay mix must
// leave the production kernel and heapref in lockstep.
func TestKernelDelayLanesVsHeapRef(t *testing.T) {
	for _, mix := range delayMixes {
		for seed := int64(1); seed <= 10; seed++ {
			nt, nr, nh := workloadDelayMix(newKernel{sim.NewEngine(1)}, mix, seed)
			rt, rr, rh := workloadDelayMix(refKernel{heapref.NewEngine()}, mix, seed)
			if nt != rt || nr != rr || nh != rh {
				t.Fatalf("%s seed %d: kernels diverged: new=(t=%v run=%d hash=%x) ref=(t=%v run=%d hash=%x)",
					mix.name, seed, nt, nr, nh, rt, rr, rh)
			}
		}
	}
}

// Cancelled lane head at the deadline: two events share one delay, so the
// first is its lane's head and the second its follower. With the head
// cancelled, Run up to the head's time must fire nothing and stop at the
// deadline; the followers then fire on time. Cancelling a follower must
// leave the rest of the lane intact.
func TestCancelledLaneHeadAtDeadline(t *testing.T) {
	check := func(k kernelAPI) (sim.Time, uint64, int) {
		var fired []sim.Time
		note := func() { fired = append(fired, k.Now()) }
		head := k.At(10, note) // delay 10, lane head
		k.Run(5)
		k.At(15, note)             // delay 10, follower
		follower := k.At(15, note) // delay 10, second follower
		k.At(k.Now()+10, note)     // delay 10, third follower
		if !head() || !follower() {
			t.Fatal("cancel of a pending lane entry returned false")
		}
		if end := k.Run(10); end != 10 || len(fired) != 0 {
			t.Fatalf("Run(10) = %v with %d fired, want 10 with none", end, len(fired))
		}
		k.Run(sim.Forever)
		if len(fired) != 2 || fired[0] != 15 || fired[1] != 15 {
			t.Fatalf("fired at %v, want [15 15]", fired)
		}
		return k.Now(), k.EventsRun(), k.Pending()
	}
	nt, nr, np := check(newKernel{sim.NewEngine(1)})
	rt, rr, rp := check(refKernel{heapref.NewEngine()})
	if nt != rt || nr != rr || np != rp {
		t.Fatalf("kernels disagree: new=(%v %d %d) ref=(%v %d %d)", nt, nr, np, rt, rr, rp)
	}
}
