package noc

import (
	"testing"
	"testing/quick"

	"ecoscale/internal/energy"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
)

func newNet(t *testing.T, fanOut ...int) (*sim.Engine, *Network, *trace.Registry, *energy.Meter) {
	t.Helper()
	eng := sim.NewEngine(1)
	tr := topo.NewTree(fanOut...)
	reg := trace.NewRegistry()
	m := energy.NewMeter(eng, energy.DefaultCostModel())
	n := NewNetwork(eng, tr, DefaultConfig(tr.MaxHops()), m, reg)
	return eng, n, reg, m
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Load: "load", Store: "store", DMA: "dma", Interrupt: "interrupt", Sync: "sync", Kind(9): "kind(9)"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestSelfSendImmediate(t *testing.T) {
	eng, n, _, _ := newNet(t, 4, 2)
	done := false
	n.Send(2, 2, 64, Store, func() { done = true })
	if !done {
		t.Error("self-send should complete synchronously")
	}
	if eng.Now() != 0 {
		t.Error("self-send advanced time")
	}
}

func TestLatencyMonotoneInDistance(t *testing.T) {
	_, n, _, _ := newNet(t, 4, 4, 4)
	l1 := n.Latency(0, 1, 64)  // same CN
	l2 := n.Latency(0, 4, 64)  // same chassis
	l3 := n.Latency(0, 16, 64) // across root
	if !(l1 < l2 && l2 < l3) {
		t.Errorf("latency not monotone in hops: %v %v %v", l1, l2, l3)
	}
	if n.Latency(3, 3, 64) != 0 {
		t.Error("self latency should be 0")
	}
}

func TestLatencyMonotoneInSize(t *testing.T) {
	_, n, _, _ := newNet(t, 4, 4)
	if !(n.Latency(0, 4, 64) < n.Latency(0, 4, 4096)) {
		t.Error("latency not monotone in size")
	}
}

func TestSendMatchesLatencyWithoutContention(t *testing.T) {
	eng, n, _, _ := newNet(t, 4, 4)
	var arrived sim.Time
	n.Send(0, 5, 256, Store, func() { arrived = eng.Now() })
	eng.RunUntilIdle()
	if want := n.Latency(0, 5, 256); arrived != want {
		t.Errorf("uncontended send arrived at %v, want %v", arrived, want)
	}
}

func TestContentionSerializes(t *testing.T) {
	eng, n, _, _ := newNet(t, 4, 4)
	// Two messages from the same worker must share its L0 uplink.
	var t1, t2 sim.Time
	n.Send(0, 5, 4096, Store, func() { t1 = eng.Now() })
	n.Send(0, 6, 4096, Store, func() { t2 = eng.Now() })
	eng.RunUntilIdle()
	solo := n.Latency(0, 5, 4096)
	if t1 != solo {
		t.Errorf("first message delayed: %v vs %v", t1, solo)
	}
	if t2 <= t1 {
		t.Errorf("second message (%v) should finish after first (%v) due to shared uplink", t2, t1)
	}
}

func TestDisjointPathsParallel(t *testing.T) {
	eng, n, _, _ := newNet(t, 2, 2, 2)
	// 0→1 stays inside CN0; 4→5 inside CN2: fully disjoint paths.
	var t1, t2 sim.Time
	n.Send(0, 1, 4096, Store, func() { t1 = eng.Now() })
	n.Send(4, 5, 4096, Store, func() { t2 = eng.Now() })
	eng.RunUntilIdle()
	if t1 != t2 {
		t.Errorf("disjoint transfers should finish together: %v vs %v", t1, t2)
	}
}

func TestRoundTrip(t *testing.T) {
	eng, n, _, _ := newNet(t, 4, 4)
	var done sim.Time
	n.RoundTrip(0, 5, 16, 64, Load, func() { done = eng.Now() })
	eng.RunUntilIdle()
	want := n.Latency(0, 5, 16) + n.Latency(5, 0, 64)
	if done != want {
		t.Errorf("round trip took %v, want %v", done, want)
	}
}

func TestCountersAndEnergy(t *testing.T) {
	eng, n, reg, m := newNet(t, 4, 4)
	n.Send(0, 5, 128, Store, nil)
	eng.RunUntilIdle()
	if reg.Counter("noc.msgs.store").Value != 1 {
		t.Error("store message not counted")
	}
	if reg.Counter("noc.bytes").Value != 128 {
		t.Errorf("bytes = %d, want 128", reg.Counter("noc.bytes").Value)
	}
	if reg.Counter("noc.hops").Value != 2 {
		t.Errorf("hops = %d, want 2", reg.Counter("noc.hops").Value)
	}
	// 0→5 crosses L0 (on-chip) and L1 (off-chip): both categories charged.
	if m.Category("noc") <= 0 || m.Category("link") <= 0 {
		t.Errorf("energy split wrong: noc=%v link=%v", m.Category("noc"), m.Category("link"))
	}
}

func TestIntraWorkerNoEnergy(t *testing.T) {
	eng, n, _, m := newNet(t, 4, 4)
	n.Send(3, 3, 4096, Store, nil)
	eng.RunUntilIdle()
	if m.Total() != 0 {
		t.Error("self-send should not charge network energy")
	}
}

func TestDMASmallVsLoadStore(t *testing.T) {
	// E4's claim: for small transfers load/store beats DMA; for large,
	// DMA's amortized setup loses to per-line transaction overhead or
	// wins depending on pipelining. At 64B the DMA setup must dominate.
	eng, n, _, _ := newNet(t, 4, 4)
	var tDMA, tLS sim.Time
	n.DMATransfer(0, 5, 64, DefaultDMAConfig(), func() { tDMA = eng.Now() })
	eng.RunUntilIdle()

	eng2 := sim.NewEngine(1)
	tr := topo.NewTree(4, 4)
	n2 := NewNetwork(eng2, tr, DefaultConfig(tr.MaxHops()), nil, nil)
	n2.LoadStoreTransfer(0, 5, 64, 8, func() { tLS = eng2.Now() })
	eng2.RunUntilIdle()

	if tLS >= tDMA {
		t.Errorf("64B transfer: load/store (%v) should beat DMA (%v)", tLS, tDMA)
	}
}

func TestDMALargeBeatsLoadStore(t *testing.T) {
	mk := func() (*sim.Engine, *Network) {
		eng := sim.NewEngine(1)
		tr := topo.NewTree(4, 4)
		return eng, NewNetwork(eng, tr, DefaultConfig(tr.MaxHops()), nil, nil)
	}
	const size = 1 << 20
	eng1, n1 := mk()
	var tDMA sim.Time
	n1.DMATransfer(0, 5, size, DefaultDMAConfig(), func() { tDMA = eng1.Now() })
	eng1.RunUntilIdle()

	eng2, n2 := mk()
	var tLS sim.Time
	n2.LoadStoreTransfer(0, 5, size, 1, func() { tLS = eng2.Now() }) // unpipelined CPU copy loop
	eng2.RunUntilIdle()

	if tDMA >= tLS {
		t.Errorf("1MiB transfer: DMA (%v) should beat unpipelined load/store (%v)", tDMA, tLS)
	}
}

func TestDMAChunking(t *testing.T) {
	eng, n, reg, _ := newNet(t, 4, 4)
	cfg := DefaultDMAConfig()
	cfg.ChunkBytes = 1024
	done := false
	n.DMATransfer(0, 5, 4096, cfg, func() { done = true })
	eng.RunUntilIdle()
	if !done {
		t.Fatal("DMA never completed")
	}
	if got := reg.Counter("noc.msgs.dma").Value; got != 4 {
		t.Errorf("dma chunks = %d, want 4", got)
	}
}

func TestDMAZeroChunkDefaults(t *testing.T) {
	eng, n, _, _ := newNet(t, 4, 4)
	done := false
	n.DMATransfer(0, 5, 100, DMAConfig{Setup: 1, Completion: 1}, func() { done = true })
	eng.RunUntilIdle()
	if !done {
		t.Error("DMA with zero chunk size never completed")
	}
}

func TestLoadStoreWindowPipelines(t *testing.T) {
	run := func(window int) sim.Time {
		eng := sim.NewEngine(1)
		tr := topo.NewTree(4, 4)
		n := NewNetwork(eng, tr, DefaultConfig(tr.MaxHops()), nil, nil)
		var end sim.Time
		n.LoadStoreTransfer(0, 5, 64*1024, window, func() { end = eng.Now() })
		eng.RunUntilIdle()
		return end
	}
	if w8, w1 := run(8), run(1); w8 >= w1 {
		t.Errorf("windowed transfer (%v) should beat unpipelined (%v)", w8, w1)
	}
}

func TestLoadStoreZeroSize(t *testing.T) {
	eng, n, _, _ := newNet(t, 4, 4)
	done := false
	n.LoadStoreTransfer(0, 5, 0, 0, func() { done = true })
	eng.RunUntilIdle()
	if !done {
		t.Error("zero-size transfer never completed")
	}
}

func TestConfigMismatchPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := topo.NewTree(4, 4, 4)
	defer func() {
		if recover() == nil {
			t.Error("short config did not panic")
		}
	}()
	NewNetwork(eng, tr, DefaultConfig(1), nil, nil)
}

// Property: analytic latency is symmetric, zero iff self, and monotone
// under increasing message size.
func TestLatencyProperties(t *testing.T) {
	_, n, _, _ := newNet(t, 4, 4, 2)
	workers := n.Topology().NumWorkers()
	prop := func(aRaw, bRaw uint8, szRaw uint16) bool {
		a, b := int(aRaw)%workers, int(bRaw)%workers
		sz := int(szRaw)%8192 + 1
		la := n.Latency(a, b, sz)
		if la != n.Latency(b, a, sz) {
			return false
		}
		if (a == b) != (la == 0) {
			return false
		}
		return n.Latency(a, b, sz+64) >= la
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: messages are conserved — every Send invokes done exactly once.
func TestSendConservationProperty(t *testing.T) {
	prop := func(pairs []uint16) bool {
		eng := sim.NewEngine(2)
		tr := topo.NewTree(4, 4)
		n := NewNetwork(eng, tr, DefaultConfig(tr.MaxHops()), nil, nil)
		want := len(pairs)
		got := 0
		for _, p := range pairs {
			src := int(p) % 16
			dst := int(p>>4) % 16
			n.Send(src, dst, int(p%1000)+1, Store, func() { got++ })
		}
		eng.RunUntilIdle()
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSendZeroAlloc enforces the NoC half of the zero-alloc contract in
// docs/perf.md: a warmed SendCall over a 1-, 2- or 3-level path, with the
// meter and registry on, allocates nothing.
func TestSendZeroAlloc(t *testing.T) {
	eng, n, _, _ := newNet(t, 4, 2, 2)
	delivered := 0
	count := func(a any) { *a.(*int)++ }
	for levels, dst := range []int{1, 4, 8} {
		if got := n.Topology().HopDistance(0, dst); got != levels+1 {
			t.Fatalf("0->%d spans %d levels, want %d", dst, got, levels+1)
		}
		send := func() {
			n.SendCall(0, dst, 256, Store, count, &delivered)
			n.SendCall(dst, 0, 64, Load, count, &delivered)
			eng.RunUntilIdle()
		}
		send() // create the path's links and grow the pools
		before := delivered
		if a := testing.AllocsPerRun(100, send); a != 0 {
			t.Errorf("SendCall 0<->%d: %v allocations per warmed pair, want 0", dst, a)
		}
		if delivered-before != 2*101 {
			t.Errorf("SendCall 0<->%d: %d deliveries, want %d", dst, delivered-before, 2*101)
		}
	}
}

// TestSendZeroAllocContended extends the zero-alloc contract to queued
// messages: a warmed burst of sends that queue on one link, behind a
// FlapLink outage of the next level's link, allocates nothing.
func TestSendZeroAllocContended(t *testing.T) {
	eng, n, _, _ := newNet(t, 4, 2, 2)
	delivered := 0
	count := func(a any) { *a.(*int)++ }
	const burst = 6
	send := func() {
		n.FlapLink(0, 1, sim.Microsecond)
		for i := 0; i < burst; i++ {
			n.SendCall(0, 8+i%4, 64*(i+1), Store, count, &delivered)
		}
		eng.RunUntilIdle()
	}
	send() // create the links and grow the op pool
	before := delivered
	if a := testing.AllocsPerRun(100, send); a != 0 {
		t.Errorf("contended burst: %v allocations per warmed burst, want 0", a)
	}
	if delivered-before != burst*101 {
		t.Errorf("contended burst: %d deliveries, want %d", delivered-before, burst*101)
	}
	for _, ls := range n.LinkStats(eng.Now()) {
		if ls.Level == 0 && ls.Group == 0 && ls.Dir == 0 && ls.MaxQueue != burst-1 {
			t.Errorf("worker 0's uplink queued at most %d messages, want %d", ls.MaxQueue, burst-1)
		}
		if ls.Level == 1 && ls.Group == 0 && ls.Dir == 0 && ls.MaxQueue != burst {
			t.Errorf("the flapped level-1 uplink queued at most %d messages, want %d", ls.MaxQueue, burst)
		}
	}
}
