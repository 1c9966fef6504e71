package unimem

import (
	"runtime/debug"
	"testing"

	"ecoscale/internal/mem"
	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
)

// allocCase is one §4.1 relationship for the zero-alloc tests: node
// issues against pages owned by worker 1 and cached by cacher. cold
// drops node's cached copy of the span before each run, so a cacher
// fills instead of hitting; tiny shrinks the cache until the span's own
// lines evict each other.
type allocCase struct {
	name         string
	cacher, node int
	cold, tiny   bool
}

var allocCases = []allocCase{
	{name: "cacher-hit", cacher: 5, node: 5},
	{name: "local-fill", cacher: 1, node: 1, cold: true},
	{name: "remote-fill", cacher: 5, node: 5, cold: true},
	{name: "owner-uncached", cacher: 5, node: 1},
	{name: "remote-uncached", cacher: 1, node: 5},
	{name: "evict-remote", cacher: 5, node: 5, tiny: true},
}

// allocSpace builds an 8-worker space with size bytes owned by worker 1
// and cached as c asks, and returns it with the span's address.
func allocSpace(c allocCase, size int) (*sim.Engine, *Space, uint64) {
	eng := sim.NewEngine(1)
	tr := topo.NewTree(4, 2)
	reg := trace.NewRegistry()
	net := noc.NewNetwork(eng, tr, noc.DefaultConfig(tr.MaxHops()), nil, reg)
	cfg := DefaultConfig()
	if c.tiny {
		cfg.CacheCfg = mem.CacheConfig{Sets: 4, Ways: 2, HitLatency: cfg.CacheCfg.HitLatency}
	}
	s := NewSpace(net, cfg, reg)
	addr := s.Alloc(1, size)
	for off := 0; off < size; off += cfg.PageBytes {
		s.SetCacher(addr+uint64(off), c.cacher, nil)
	}
	eng.RunUntilIdle()
	return eng, s, addr
}

// TestStreamZeroAlloc enforces the UNIMEM half of the zero-alloc contract
// in docs/perf.md: in every §4.1 relationship, a warmed stream allocates
// nothing at 64 lines or at 8192, so nothing is allocated per stream or
// per line; and warmed word accesses with pre-built callbacks allocate
// nothing at all.
func TestStreamZeroAlloc(t *testing.T) {
	streams := []struct {
		name string
		run  func(s *Space, node int, addr uint64, data []byte, done func())
	}{
		{"StreamFetch", func(s *Space, node int, addr uint64, data []byte, done func()) {
			s.StreamFetch(node, addr, len(data), 8, done)
		}},
		{"StreamWriteback", func(s *Space, node int, addr uint64, data []byte, done func()) {
			s.StreamWriteback(node, addr, len(data), 8, done)
		}},
		{"StreamWrite", func(s *Space, node int, addr uint64, data []byte, done func()) {
			s.StreamWrite(node, addr, data, 8, done)
		}},
	}
	for _, c := range allocCases {
		for _, st := range streams {
			allocs := func(lines int) float64 {
				size := lines * mem.LineBytes
				eng, s, addr := allocSpace(c, size)
				data := make([]byte, size)
				completed := 0
				done := func() { completed++ }
				run := func() {
					if c.cold {
						s.Cache(c.node).InvalidateRange(addr, size)
					}
					st.run(s, c.node, addr, data, done)
					eng.RunUntilIdle()
				}
				run() // grow the pools to this size's peak; AllocsPerRun warms once more
				// Collect and return the set-up's garbage now. Otherwise the
				// runtime's background scavenger may wake during the measured
				// run to release it, and re-arming its timer on the single P
				// AllocsPerRun leaves can grow that P's timer heap: one
				// allocation the stream never made.
				debug.FreeOSMemory()
				n := testing.AllocsPerRun(1, run)
				if completed != 3 {
					t.Fatalf("%s/%s: %d of 3 streams completed", st.name, c.name, completed)
				}
				return n
			}
			if small, large := allocs(64), allocs(8192); small != 0 || large != 0 {
				t.Errorf("%s/%s: %v allocations at 64 lines, %v at 8192, want 0", st.name, c.name, small, large)
			}
		}

		eng, s, addr := allocSpace(c, 4096)
		var sum uint64
		read := func(v uint64) { sum += v }
		wrote := func() {}
		words := func() {
			if c.cold {
				s.Cache(c.node).InvalidateRange(addr, 16)
			}
			s.WriteWord(c.node, addr, 7, wrote)
			s.ReadWord(c.node, addr+8, read)
			eng.RunUntilIdle()
		}
		if n := testing.AllocsPerRun(100, words); n != 0 {
			t.Errorf("ReadWord+WriteWord/%s: %v allocations per warmed pair, want 0", c.name, n)
		}
	}
}

// TestAtomicZeroAlloc extends the contract to atomics: a warmed
// AtomicRMW with pre-built callbacks allocates nothing, whether it runs
// at the owner or crosses one or two interconnect levels to reach it.
func TestAtomicZeroAlloc(t *testing.T) {
	eng, s, addr := allocSpace(allocCase{cacher: 1}, 4096)
	inc := func(old uint64) uint64 { return old + 1 }
	var last uint64
	done := func(old uint64) { last = old }
	for _, node := range []int{1, 0, 5} {
		atomics := func() {
			s.AtomicRMW(node, addr, inc, done)
			s.AtomicRMW(node, addr, inc, done)
			eng.RunUntilIdle()
		}
		if n := testing.AllocsPerRun(100, atomics); n != 0 {
			t.Errorf("AtomicRMW from node %d to owner 1: %v allocations per warmed pair, want 0", node, n)
		}
	}
	if want := uint64(3*2*101 - 1); last != want || s.PeekWord(addr) != want+1 {
		t.Errorf("last old value %d, word %d; want %d, %d", last, s.PeekWord(addr), want, want+1)
	}
}
