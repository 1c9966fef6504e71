package unimem

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
)

func newSpace(t testing.TB, fanOut ...int) (*sim.Engine, *Space, *trace.Registry) {
	t.Helper()
	eng := sim.NewEngine(1)
	tr := topo.NewTree(fanOut...)
	reg := trace.NewRegistry()
	net := noc.NewNetwork(eng, tr, noc.DefaultConfig(tr.MaxHops()), nil, reg)
	return eng, NewSpace(net, DefaultConfig(), reg), reg
}

func TestAllocBasics(t *testing.T) {
	_, s, _ := newSpace(t, 4)
	a := s.Alloc(1, 100)
	b := s.Alloc(2, 5000)
	if a == b {
		t.Fatal("allocations overlap")
	}
	if s.OwnerOf(a) != 1 || s.CacherOf(a) != 1 {
		t.Error("owner/cacher of fresh page wrong")
	}
	if s.OwnerOf(b) != 2 || s.OwnerOf(b+4096) != 2 {
		t.Error("multi-page allocation ownership wrong")
	}
	if s.PageBytes() != 4096 || s.NumWorkers() != 4 {
		t.Error("config accessors wrong")
	}
}

func TestAllocPanics(t *testing.T) {
	_, s, _ := newSpace(t, 4)
	for name, fn := range map[string]func(){
		"bad owner":   func() { s.Alloc(9, 10) },
		"zero size":   func() { s.Alloc(0, 0) },
		"unallocated": func() { s.OwnerOf(1 << 40) },
		"cross page":  func() { s.Read(0, s.Alloc(0, 8192)+4090, 16, nil) },
		"zero read":   func() { s.Read(0, s.Alloc(0, 64), 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestUnallocatedAddressPanics checks that address 0, below the first
// page, and the first byte past the last page are refused.
func TestUnallocatedAddressPanics(t *testing.T) {
	_, s, _ := newSpace(t, 2)
	base := s.Alloc(1, 3*s.PageBytes())
	for _, addr := range []uint64{0, base + uint64(3*s.PageBytes())} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "unimem: access to unallocated address") {
					t.Errorf("access at %#x: panic %q; want an unallocated-address panic", addr, msg)
				}
			}()
			s.PeekWord(addr)
		}()
	}
	if s.OwnerOf(base+uint64(3*s.PageBytes())-1) != 1 {
		t.Error("last byte of the last page has the wrong owner")
	}
}

// TestPagesOwnedByInterleavedAllocs checks that each owner's pages come
// back in ascending order when owners' allocations interleave.
func TestPagesOwnedByInterleavedAllocs(t *testing.T) {
	_, s, _ := newSpace(t, 3)
	pb := s.PageBytes()
	for _, a := range []struct{ owner, pages int }{{0, 1}, {1, 2}, {0, 3}, {2, 1}, {1, 1}, {0, 1}} {
		s.Alloc(a.owner, a.pages*pb)
	}
	want := map[int][]uint64{0: {1, 4, 5, 6, 9}, 1: {2, 3, 8}, 2: {7}}
	for w, pages := range want {
		if got := s.PagesOwnedBy(w); !slices.Equal(got, pages) {
			t.Errorf("PagesOwnedBy(%d) = %v, want %v", w, got, pages)
		}
	}
}

func TestReadAfterWriteLocal(t *testing.T) {
	eng, s, _ := newSpace(t, 4)
	addr := s.Alloc(0, 64)
	var got uint64
	s.WriteWord(0, addr, 0xdeadbeef, func() {
		s.ReadWord(0, addr, func(v uint64) { got = v })
	})
	eng.RunUntilIdle()
	if got != 0xdeadbeef {
		t.Errorf("read %#x, want 0xdeadbeef", got)
	}
}

func TestReadAfterWriteRemote(t *testing.T) {
	eng, s, _ := newSpace(t, 4)
	addr := s.Alloc(2, 64)
	var got uint64
	s.WriteWord(0, addr, 42, func() {
		s.ReadWord(3, addr, func(v uint64) { got = v })
	})
	eng.RunUntilIdle()
	if got != 42 {
		t.Errorf("remote read %d, want 42", got)
	}
}

func TestCachedAccessFasterThanRemote(t *testing.T) {
	eng, s, _ := newSpace(t, 4)
	addr := s.Alloc(0, 64)
	// Warm worker 0's cache (it is owner and cacher).
	var tCached, tRemote sim.Time
	s.Read(0, addr, 8, func([]byte) {
		start := eng.Now()
		s.Read(0, addr, 8, func([]byte) { tCached = eng.Now() - start })
	})
	eng.RunUntilIdle()
	start := eng.Now()
	s.Read(3, addr, 8, func([]byte) { tRemote = eng.Now() - start })
	eng.RunUntilIdle()
	if tCached >= tRemote {
		t.Errorf("cached access (%v) should beat remote uncached (%v)", tCached, tRemote)
	}
}

func TestOneCacherInvariantAfterSetCacher(t *testing.T) {
	eng, s, _ := newSpace(t, 4)
	addr := s.Alloc(0, 64)
	s.Read(0, addr, 8, nil) // warm owner cache
	eng.RunUntilIdle()
	if !s.Cache(0).Contains(addr) {
		t.Fatal("owner cache not warmed")
	}
	moved := false
	s.SetCacher(addr, 2, func() { moved = true })
	eng.RunUntilIdle()
	if !moved {
		t.Fatal("SetCacher never completed")
	}
	if s.CacherOf(addr) != 2 {
		t.Errorf("cacher = %d, want 2", s.CacherOf(addr))
	}
	if s.Cache(0).Contains(addr) {
		t.Error("stale copy survived at old cacher — UNIMEM invariant broken")
	}
}

func TestSetCacherFlushesDirtyRemote(t *testing.T) {
	eng, s, reg := newSpace(t, 4)
	addr := s.Alloc(0, 64)
	// Make worker 2 the cacher and dirty the line there.
	s.SetCacher(addr, 2, func() {
		s.WriteWord(2, addr, 7, nil)
	})
	eng.RunUntilIdle()
	msgsBefore := reg.Counter("noc.msgs.store").Value
	s.SetCacher(addr, 1, nil)
	eng.RunUntilIdle()
	if reg.Counter("noc.msgs.store").Value == msgsBefore {
		t.Error("dirty handoff generated no writeback traffic")
	}
	var got uint64
	s.ReadWord(1, addr, func(v uint64) { got = v })
	eng.RunUntilIdle()
	if got != 7 {
		t.Errorf("value lost in cacher handoff: %d", got)
	}
}

func TestSetCacherNoop(t *testing.T) {
	eng, s, reg := newSpace(t, 4)
	addr := s.Alloc(0, 64)
	done := false
	s.SetCacher(addr, 0, func() { done = true })
	eng.RunUntilIdle()
	if !done {
		t.Error("noop SetCacher never completed")
	}
	if reg.Counter("unimem.cacher_moves").Value != 0 {
		t.Error("noop move counted")
	}
}

func TestNoCoherenceTrafficOnSharing(t *testing.T) {
	// The UNIMEM point: two workers hammering the same page generate only
	// their own request/response traffic — no invalidations, no acks, no
	// sharer bookkeeping. Message count must be exactly 2 per uncached
	// remote read (req+resp) regardless of how many workers read.
	eng, s, reg := newSpace(t, 8)
	addr := s.Alloc(0, 64)
	for w := 1; w < 8; w++ {
		s.Read(w, addr, 8, nil)
	}
	eng.RunUntilIdle()
	msgs := reg.Counter("noc.msgs.load").Value
	if msgs != 14 { // 7 readers * (req + resp)
		t.Errorf("7 remote reads produced %d messages, want exactly 14", msgs)
	}
}

func TestPeekPoke(t *testing.T) {
	_, s, _ := newSpace(t, 2)
	addr := s.Alloc(0, 128)
	s.PokeWord(addr+16, 99)
	if s.PeekWord(addr+16) != 99 {
		t.Error("peek/poke roundtrip failed")
	}
	data := []byte{1, 2, 3, 4}
	s.Poke(addr, data)
	if !bytes.Equal(s.Peek(addr, 4), data) {
		t.Error("bulk peek/poke failed")
	}
}

func TestAtomicRMW(t *testing.T) {
	eng, s, _ := newSpace(t, 4)
	addr := s.Alloc(0, 64)
	// 3 workers increment concurrently; result must be exact.
	total := 30
	wg := 0
	for i := 0; i < total; i++ {
		node := i % 4
		s.AtomicRMW(node, addr, func(old uint64) uint64 { return old + 1 }, func(uint64) { wg++ })
	}
	eng.RunUntilIdle()
	if wg != total {
		t.Fatalf("%d/%d atomics completed", wg, total)
	}
	if got := s.PeekWord(addr); got != uint64(total) {
		t.Errorf("atomic count = %d, want %d — lost updates", got, total)
	}
}

func TestAtomicReturnsOld(t *testing.T) {
	eng, s, _ := newSpace(t, 2)
	addr := s.Alloc(1, 64)
	s.PokeWord(addr, 5)
	var old uint64
	s.AtomicRMW(0, addr, func(v uint64) uint64 { return v * 2 }, func(o uint64) { old = o })
	eng.RunUntilIdle()
	if old != 5 || s.PeekWord(addr) != 10 {
		t.Errorf("old=%d val=%d, want 5/10", old, s.PeekWord(addr))
	}
}

func TestMigratePage(t *testing.T) {
	eng, s, _ := newSpace(t, 4)
	addr := s.Alloc(0, 64)
	s.PokeWord(addr, 123)
	done := false
	s.MigratePage(addr, 2, func() { done = true })
	eng.RunUntilIdle()
	if !done {
		t.Fatal("migration never completed")
	}
	if s.OwnerOf(addr) != 2 || s.CacherOf(addr) != 2 {
		t.Error("ownership did not move")
	}
	if s.PeekWord(addr) != 123 {
		t.Error("data lost in migration")
	}
	// Migration to current owner is a cheap no-op.
	calls := 0
	s.MigratePage(addr, 2, func() { calls++ })
	eng.RunUntilIdle()
	if calls != 1 {
		t.Error("noop migration did not complete")
	}
}

func TestMigrationImprovesLatency(t *testing.T) {
	eng, s, _ := newSpace(t, 8)
	addr := s.Alloc(0, 4096)
	measure := func(node int) sim.Time {
		start := eng.Now()
		var end sim.Time
		s.Read(node, addr, 64, func([]byte) { end = eng.Now() })
		eng.RunUntilIdle()
		return end - start
	}
	far := measure(7)
	s.MigratePage(addr, 7, nil)
	eng.RunUntilIdle()
	near := measure(7)
	if near >= far {
		t.Errorf("post-migration access (%v) should beat remote (%v)", near, far)
	}
}

func TestStreamReadWrite(t *testing.T) {
	eng, s, _ := newSpace(t, 4)
	addr := s.Alloc(1, 10000) // spans 3 pages
	data := make([]byte, 9000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var got []byte
	s.StreamWrite(0, addr, data, 8, func() {
		s.StreamRead(2, addr, len(data), 8, func(b []byte) { got = b })
	})
	eng.RunUntilIdle()
	if !bytes.Equal(got, data) {
		t.Fatal("streamed data corrupted")
	}
}

func TestStreamWindowSpeedsUp(t *testing.T) {
	run := func(window int) sim.Time {
		eng, s, _ := newSpace(t, 4)
		addr := s.Alloc(1, 65536)
		data := make([]byte, 32768)
		s.StreamWrite(0, addr, data, window, nil)
		eng.RunUntilIdle()
		return eng.Now()
	}
	if w8, w1 := run(8), run(1); w8 >= w1 {
		t.Errorf("window 8 (%v) should beat window 1 (%v)", w8, w1)
	}
}

func TestStreamEmpty(t *testing.T) {
	eng, s, _ := newSpace(t, 2)
	ok := 0
	s.StreamRead(0, 0, 0, 4, func(b []byte) {
		if b == nil {
			ok++
		}
	})
	s.StreamWrite(0, 0, nil, 4, func() { ok++ })
	s.StreamFetch(0, 0, 0, 4, func() { ok++ })
	s.StreamWriteback(0, 0, 0, 4, func() { ok++ })
	eng.RunUntilIdle()
	if ok != 4 {
		t.Error("empty streams did not complete immediately")
	}
}

// TestStreamFetchMatchesRead checks that the timing-only StreamFetch
// renders the same golden line as StreamRead: same completion time,
// events, counters and DRAM traffic, in every relationship.
func TestStreamFetchMatchesRead(t *testing.T) {
	for _, w := range []int{1, 8} {
		fetch := goldenOp{"Stream", func(s *Space, node int, addr uint64, done func()) {
			s.StreamFetch(node, addr, goldenSize, w, done)
		}}
		read := goldenOp{"Stream", func(s *Space, node int, addr uint64, done func()) {
			s.StreamRead(node, addr, goldenSize, w, func([]byte) { done() })
		}}
		for _, rel := range goldenRelations() {
			if f, r := goldenLineFor(fetch, rel), goldenLineFor(read, rel); f != r {
				t.Errorf("window %d:\n fetch %s\n read  %s", w, f, r)
			}
		}
	}
}

// Property: for any interleaving of writers to distinct words, every word
// reads back as the last value written to it (per-location coherence at
// the owner).
func TestPerWordCoherenceProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		eng, s, _ := newSpace(t, 4)
		addr := s.Alloc(0, 4096)
		last := map[uint64]uint64{}
		for i, op := range ops {
			word := uint64(op % 64)
			node := int(op>>6) % 4
			val := uint64(i + 1)
			s.WriteWord(node, addr+word*8, val, nil)
			last[word] = val
		}
		eng.RunUntilIdle()
		for w, v := range last {
			if s.PeekWord(addr+w*8) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the cacher is always a single valid worker, whatever sequence
// of SetCacher/Migrate operations runs.
func TestSingleCacherProperty(t *testing.T) {
	prop := func(moves []uint8) bool {
		eng, s, _ := newSpace(t, 4)
		addr := s.Alloc(0, 64)
		for _, m := range moves {
			target := int(m) % 4
			if m%2 == 0 {
				s.SetCacher(addr, target, nil)
			} else {
				s.MigratePage(addr, target, nil)
			}
			eng.RunUntilIdle()
			c := s.CacherOf(addr)
			if c < 0 || c >= 4 {
				return false
			}
			// No other worker's cache may contain the page.
			for w := 0; w < 4; w++ {
				if w != c && s.Cache(w).Contains(addr) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
