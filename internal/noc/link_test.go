package noc

import (
	"math/rand"
	"reflect"
	"testing"

	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
)

// linkCase is one randomized run of the hop walk: a tree, a link
// capacity and a seeded schedule of sends, replies and flaps.
type linkCase struct {
	fanOut   []int
	capacity int
	seed     int64
	ops      int
}

// linkResult is everything a run of the hop walk lets a caller observe.
type linkResult struct {
	done   []sim.Time // per op: delivery time, or the flap's time
	events uint64
	now    sim.Time
	stats  []LinkStat
}

// runLinkCase drives c through the production walk or, with ref, through
// refWalk. Sends start at coarse times so that many tie, sizes run from
// empty to several kilobytes, some messages answer with a reply sent
// from their delivery callback, and some ops flap a link, including
// rejected flaps of an out-of-range level or an empty outage.
func runLinkCase(c linkCase, ref bool) linkResult {
	eng := sim.NewEngine(1)
	tr := topo.NewTree(c.fanOut...)
	cfg := DefaultConfig(tr.MaxHops())
	cfg.LinkCapacity = c.capacity
	var send func(src, dst, size int, fn func(any), arg any)
	var flap func(w, level int, down sim.Time) bool
	var stats func(sim.Time) []LinkStat
	if ref {
		w := newRefWalk(eng, tr, cfg)
		send, flap, stats = w.sendCall, w.flapLink, w.linkStats
	} else {
		n := NewNetwork(eng, tr, cfg, nil, nil)
		send = func(src, dst, size int, fn func(any), arg any) { n.SendCall(src, dst, size, Store, fn, arg) }
		flap, stats = n.FlapLink, n.LinkStats
	}
	rng := rand.New(rand.NewSource(c.seed))
	workers := tr.NumWorkers()
	res := linkResult{done: make([]sim.Time, c.ops)}
	for i := range res.done {
		i := i
		res.done[i] = -1
		at := sim.Time(rng.Intn(64)) * 250 * sim.Nanosecond
		if rng.Intn(8) == 0 {
			w, level := rng.Intn(workers), rng.Intn(tr.MaxHops()+2)-1
			down := sim.Time(rng.Intn(4)) * sim.Microsecond
			eng.At(at, func() {
				if flap(w, level, down) == (level < 0 || level >= tr.MaxHops() || down <= 0) {
					panic("FlapLink reported the wrong outcome")
				}
				res.done[i] = eng.Now()
			})
			continue
		}
		src, dst := rng.Intn(workers), rng.Intn(workers)
		size := rng.Intn(5000)
		deliver := func(any) { res.done[i] = eng.Now() }
		if rng.Intn(4) == 0 {
			reply := rng.Intn(200)
			deliver = func(any) { send(dst, src, reply, func(any) { res.done[i] = eng.Now() }, nil) }
		}
		eng.At(at, func() { send(src, dst, size, deliver, nil) })
	}
	eng.RunUntilIdle()
	res.events, res.now = eng.EventsRun(), eng.Now()
	res.stats = stats(res.now)
	return res
}

// checkLinkCase fails t unless the production walk and refWalk agree on
// every observable of c.
func checkLinkCase(t *testing.T, c linkCase) {
	t.Helper()
	got, want := runLinkCase(c, false), runLinkCase(c, true)
	for i := range want.done {
		if want.done[i] < 0 {
			t.Fatalf("%+v: reference op %d never completed", c, i)
		}
		if got.done[i] != want.done[i] {
			t.Fatalf("%+v: op %d done at %d, reference at %d", c, i, got.done[i], want.done[i])
		}
	}
	if got.events != want.events || got.now != want.now {
		t.Fatalf("%+v: %d events ending at %d, reference %d at %d", c, got.events, got.now, want.events, want.now)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("%+v: LinkStats differ\n got  %+v\n want %+v", c, got.stats, want.stats)
	}
}

// linkCaseFrom maps fuzz inputs onto a tree of 1 to 3 levels with
// fan-outs 2 to 4, capacities 1 to 3 and up to 128 ops.
func linkCaseFrom(seed int64, shape, capacity, ops uint8) linkCase {
	fanOut := make([]int, 1+int(shape)%3)
	for i := range fanOut {
		fanOut[i] = 2 + int(shape>>(2+2*i))%3
	}
	return linkCase{fanOut: fanOut, capacity: 1 + int(capacity)%3, seed: seed, ops: 1 + int(ops)%128}
}

// TestLinkQueueMatchesReference drives random trees, link capacities,
// message sizes, replies and flaps through the production hop walk and
// the frozen sim.Resource walk in linkref_test.go, and requires equal
// delivery times, EventsRun and LinkStats rows.
func TestLinkQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 300; i++ {
		checkLinkCase(t, linkCaseFrom(rng.Int63(), uint8(rng.Intn(256)), uint8(i), uint8(rng.Intn(256))))
	}
}

func FuzzLinkQueue(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(40))
	f.Add(int64(2), uint8(0xff), uint8(1), uint8(127))
	f.Add(int64(3), uint8(0x26), uint8(2), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, shape, capacity, ops uint8) {
		checkLinkCase(t, linkCaseFrom(seed, shape, capacity, ops))
	})
}
