package noc

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"ecoscale/internal/energy"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/noc_timing.golden")

const nocGolden = "testdata/noc_timing.golden"

// goldenSizes mixes sub-flit, line, odd and multi-chunk message sizes.
var goldenSizes = []int{0, 8, 64, 100, 1500, 4096, 9000}

// goldenTraffic drives a seeded mix of every transfer kind, and one link
// flap, through net and renders one line per operation with its start
// and completion time.
func goldenTraffic(eng *sim.Engine, net *Network, workers int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	const ops = 300
	lines := make([]string, ops)
	for i := 0; i < ops; i++ {
		i := i
		at := sim.Time(rng.Int63n(int64(40 * sim.Microsecond)))
		src, dst := rng.Intn(workers), rng.Intn(workers)
		size := goldenSizes[rng.Intn(len(goldenSizes))]
		kind := Kind(rng.Intn(int(numKinds)))
		which := rng.Intn(5)
		window := 1 + rng.Intn(8)
		chunk := []int{0, 512, 4096}[rng.Intn(3)]
		var name string
		done := func() {
			lines[i] = fmt.Sprintf("op%03d %s %d->%d size=%d at=%d done=%d",
				i, name, src, dst, size, int64(at), int64(eng.Now()))
		}
		var start func()
		switch which {
		case 0:
			name = "send/" + kind.String()
			start = func() { net.Send(src, dst, size, kind, done) }
		case 1:
			name = "sendcall/" + kind.String()
			start = func() { net.SendCall(src, dst, size, kind, func(any) { done() }, nil) }
		case 2:
			name = "roundtrip/" + kind.String()
			start = func() { net.RoundTrip(src, dst, 16, size, kind, done) }
		case 3:
			name = fmt.Sprintf("dma/chunk%d", chunk)
			cfg := DefaultDMAConfig()
			cfg.ChunkBytes = chunk
			start = func() { net.DMATransfer(src, dst, size, cfg, done) }
		default:
			name = fmt.Sprintf("loadstore/w%d", window)
			start = func() { net.LoadStoreTransfer(src, dst, size, window, done) }
		}
		eng.At(at, start)
	}
	return lines
}

// goldenNetwork runs the traffic on a fresh network over t, whose links
// each serialize capacity messages at once, with a meter and a registry
// and renders every observable: each operation's timing, the events
// fired, the noc.* counters and hop-distance stat, every LinkStats row,
// and the meter's breakdown and total as float64 bits.
func goldenNetwork(t *topo.Tree, seed int64, capacity int, flap func(*sim.Engine, *Network)) []string {
	eng := sim.NewEngine(1)
	reg := trace.NewRegistry()
	m := energy.NewMeter(eng, energy.DefaultCostModel())
	cfg := DefaultConfig(t.MaxHops())
	cfg.LinkCapacity = capacity
	net := NewNetwork(eng, t, cfg, m, reg)
	out := goldenTraffic(eng, net, t.NumWorkers(), seed)
	flap(eng, net)
	eng.RunUntilIdle()
	for i, l := range out {
		if l == "" {
			out[i] = fmt.Sprintf("op%03d never completed", i)
		}
	}
	out = append(out, fmt.Sprintf("topology %s now=%d events=%d", t.Name(), int64(eng.Now()), eng.EventsRun()))
	for _, name := range reg.CounterNames() {
		if strings.HasPrefix(name, "noc.") {
			out = append(out, fmt.Sprintf("counter %s=%d", name, reg.CounterTotal(name)))
		}
	}
	hd := reg.Stat("noc.hopdist")
	out = append(out, fmt.Sprintf("stat noc.hopdist n=%d sum=%#x", hd.Count(), math.Float64bits(hd.Sum())))
	for _, ls := range net.LinkStats(eng.Now()) {
		out = append(out, fmt.Sprintf("link l%d g%d d%d %s util=%#x waited=%d grants=%d maxq=%d",
			ls.Level, ls.Group, ls.Dir, ls.Name, math.Float64bits(ls.Utilization),
			int64(ls.Waited), ls.Grants, ls.MaxQueue))
	}
	for _, b := range m.Breakdown() {
		out = append(out, fmt.Sprintf("energy %s=%#x", b.Category, math.Float64bits(float64(b.Energy))))
	}
	return append(out, fmt.Sprintf("energy total=%#x", math.Float64bits(float64(m.Total()))))
}

// TestNoCTimingGolden pins the interconnect's simulated timing and
// accounting against testdata/noc_timing.golden: a seeded mix of Send,
// SendCall, RoundTrip, DMATransfer and LoadStoreTransfer on a 3-level
// tree with one FlapLink outage, first on single-slot links and then,
// after a "capacity 2" line, on two-slot links, where the flap seizes
// both slots. A change to the NoC's routing or accounting must leave
// every line byte-identical; after an intended change, regenerate with
//
//	go test ./internal/noc -run TestNoCTimingGolden -update
func TestNoCTimingGolden(t *testing.T) {
	flap := func(eng *sim.Engine, net *Network) {
		eng.At(12*sim.Microsecond, func() {
			if !net.FlapLink(3, 1, 3*sim.Microsecond) {
				t.Error("FlapLink(3, 1) on a 3-level tree flapped nothing")
			}
		})
	}
	got := goldenNetwork(topo.NewTree(4, 2, 2), 19, 1, flap)
	got = append(got, "capacity 2")
	got = append(got, goldenNetwork(topo.NewTree(4, 2, 2), 19, 2, flap)...)
	out := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(nocGolden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(nocGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, the test renders %d", nocGolden, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d differs:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
