package unimem

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ecoscale/internal/mem"
	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/stream_timing.golden")

const streamGolden = "testdata/stream_timing.golden"

// The golden span starts mid-page and off a line boundary, crosses two
// page boundaries and ends on a partial line.
const (
	goldenOwner = 1
	goldenOther = 5
	goldenOff   = 3000
	goldenSize  = 4096 - goldenOff + 4096 + 1000
	goldenLine  = 48 // single-access size, inside the span's first page
)

// goldenRelation puts the issuing node in one §4.1 relationship to the
// span's pages and returns that node. warm, when set, runs before the
// measured operation and after setup's own traffic has drained.
type goldenRelation struct {
	name  string
	cache mem.CacheConfig
	setup func(s *Space, addr uint64) int
	warm  func(s *Space, node int, addr uint64, op goldenOp)
}

func goldenRelations() []goldenRelation {
	def := mem.DefaultL2Config()
	// 512 B: the span's own lines evict each other.
	tiny := mem.CacheConfig{Sets: 4, Ways: 2, HitLatency: def.HitLatency}
	cacheAt := func(node int) func(*Space, uint64) int {
		return func(s *Space, addr uint64) int {
			for p := uint64(0); p < 3; p++ {
				s.SetCacher(addr+p*uint64(s.PageBytes()), node, nil)
			}
			return goldenOther
		}
	}
	owner := func(*Space, uint64) int { return goldenOwner }
	other := func(*Space, uint64) int { return goldenOther }
	// Run the measured operation once, so its lines are cached.
	again := func(s *Space, node int, addr uint64, op goldenOp) { op.run(s, node, addr, func() {}) }
	// Dirty the span, so the measured operation's misses evict dirty lines.
	dirty := func(s *Space, node int, addr uint64, _ goldenOp) {
		s.StreamWriteback(node, addr, goldenSize, 1, nil)
	}
	ownerNotCacher := func(s *Space, addr uint64) int {
		cacheAt(goldenOther)(s, addr)
		return goldenOwner
	}
	return []goldenRelation{
		{name: "cacher-hit", cache: def, setup: cacheAt(goldenOther), warm: again},
		{name: "local-fill", cache: def, setup: owner},
		{name: "remote-fill", cache: def, setup: cacheAt(goldenOther)},
		{name: "owner-uncached", cache: def, setup: ownerNotCacher},
		{name: "remote-uncached", cache: def, setup: other},
		// Dirty evictions: write-backs to local DRAM and over the wire.
		{name: "evict-local", cache: tiny, setup: owner, warm: dirty},
		{name: "evict-remote", cache: tiny, setup: cacheAt(goldenOther), warm: dirty},
	}
}

// goldenOp issues one timed operation and calls done at completion.
type goldenOp struct {
	name string
	run  func(s *Space, node int, addr uint64, done func())
}

func goldenOps(t *testing.T) []goldenOp {
	pattern := func(addr uint64, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(addr) + byte(i*7)
		}
		return b
	}
	checkData := func(s *Space, addr uint64, got []byte) {
		if want := s.peekRange(addr, len(got)); !bytes.Equal(got, want) {
			t.Errorf("read %d bytes at %#x: data differs from the backing store", len(got), addr)
		}
	}
	var ops []goldenOp
	for _, w := range []int{1, 8} {
		w := w
		ops = append(ops,
			goldenOp{fmt.Sprintf("StreamRead/w%d", w), func(s *Space, node int, addr uint64, done func()) {
				s.StreamRead(node, addr, goldenSize, w, func(b []byte) {
					checkData(s, addr, b)
					done()
				})
			}},
			goldenOp{fmt.Sprintf("StreamWrite/w%d", w), func(s *Space, node int, addr uint64, done func()) {
				s.StreamWrite(node, addr, pattern(addr, goldenSize), w, done)
			}},
			goldenOp{fmt.Sprintf("StreamWriteback/w%d", w), func(s *Space, node int, addr uint64, done func()) {
				s.StreamWriteback(node, addr, goldenSize, w, done)
			}},
		)
	}
	return append(ops,
		goldenOp{"Read", func(s *Space, node int, addr uint64, done func()) {
			s.Read(node, addr, goldenLine, func(b []byte) {
				checkData(s, addr, b)
				done()
			})
		}},
		goldenOp{"Write", func(s *Space, node int, addr uint64, done func()) {
			s.Write(node, addr, pattern(addr, goldenLine), done)
		}},
		goldenOp{"WriteBack", func(s *Space, node int, addr uint64, done func()) {
			s.WriteBack(node, addr, goldenLine, done)
		}},
	)
}

// goldenLineFor runs one operation in one relationship on a fresh
// 8-worker, two-level space and renders its completion time, idle time,
// the events fired in all, every unimem.* and noc.* counter, the stream-latency sample count and
// each touched DRAM channel's accesses and bytes.
func goldenLineFor(op goldenOp, rel goldenRelation) string {
	eng := sim.NewEngine(1)
	tr := topo.NewTree(4, 2)
	reg := trace.NewRegistry()
	net := noc.NewNetwork(eng, tr, noc.DefaultConfig(tr.MaxHops()), nil, reg)
	cfg := DefaultConfig()
	cfg.CacheCfg = rel.cache
	s := NewSpace(net, cfg, reg)
	base := s.Alloc(goldenOwner, 3*cfg.PageBytes)
	s.poke(base, bytes.Repeat([]byte{0xa5}, cfg.PageBytes))
	addr := base + goldenOff
	node := rel.setup(s, addr)
	eng.RunUntilIdle()
	if rel.warm != nil {
		rel.warm(s, node, addr, op)
		eng.RunUntilIdle()
	}
	t0 := eng.Now()
	doneAt := sim.Time(-1)
	op.run(s, node, addr, func() { doneAt = eng.Now() - t0 })
	eng.RunUntilIdle()

	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s done=%d idle=%d events=%d", op.name, rel.name,
		int64(doneAt), int64(eng.Now()-t0), eng.EventsRun())
	for _, name := range reg.CounterNames() {
		if strings.HasPrefix(name, "unimem.") || strings.HasPrefix(name, "noc.") {
			if v := reg.CounterTotal(name); v != 0 {
				fmt.Fprintf(&b, " %s=%d", name, v)
			}
		}
	}
	if h := reg.FindHistogram("lat.dma_us"); h != nil {
		fmt.Fprintf(&b, " lat.dma_us.count=%d", h.Count())
	}
	for w := 0; w < s.NumWorkers(); w++ {
		if d := s.DRAM(w); d.Accesses() != 0 {
			fmt.Fprintf(&b, " dram%d=%d/%dB", w, d.Accesses(), d.Bytes())
		}
	}
	return b.String()
}

// TestStreamTimingGolden pins the simulated timing and accounting of
// every stream and single-line access in every §4.1 relationship
// between the issuing node and the page, plus dirty evictions, against
// testdata/stream_timing.golden. A change to the UNIMEM data path must
// leave every line byte-identical; after an intended timing change,
// regenerate with
//
//	go test ./internal/unimem -run TestStreamTimingGolden -update
func TestStreamTimingGolden(t *testing.T) {
	var got []string
	for _, op := range goldenOps(t) {
		for _, rel := range goldenRelations() {
			got = append(got, goldenLineFor(op, rel))
		}
	}
	out := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(streamGolden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(streamGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, the test renders %d", streamGolden, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d differs:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
