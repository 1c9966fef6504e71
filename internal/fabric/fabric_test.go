package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"ecoscale/internal/energy"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

func newFabric(t testing.TB) (*sim.Engine, *Fabric, *energy.Meter) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := energy.NewMeter(eng, energy.DefaultCostModel())
	return eng, New(eng, DefaultConfig(), m), m
}

func smallMod(name string) Module {
	return Module{Name: name, Req: Resources{LUT: 3000, FF: 6000, BRAM: 8, DSP: 10}}
}

func bigMod(name string, regions int) Module {
	per := DefaultConfig().PerRegion
	return Module{Name: name, Req: per.Scale(regions)}
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{1, 2, 3, 4}
	b := Resources{10, 20, 30, 40}
	if a.Add(b) != (Resources{11, 22, 33, 44}) {
		t.Error("Add wrong")
	}
	if a.Scale(3) != (Resources{3, 6, 9, 12}) {
		t.Error("Scale wrong")
	}
	if !a.FitsIn(b) || b.FitsIn(a) {
		t.Error("FitsIn wrong")
	}
	if !(Resources{}).IsZero() || a.IsZero() {
		t.Error("IsZero wrong")
	}
	if !strings.Contains(a.String(), "LUT:1") {
		t.Error("String wrong")
	}
}

func TestRegionsNeeded(t *testing.T) {
	per := Resources{LUT: 100, FF: 200, BRAM: 4, DSP: 8}
	cases := []struct {
		req  Resources
		want int
	}{
		{Resources{LUT: 50}, 1},
		{Resources{LUT: 100}, 1},
		{Resources{LUT: 101}, 2},
		{Resources{LUT: 100, DSP: 17}, 3}, // DSP dominates
		{Resources{}, 1},                  // control-only module still needs a region
	}
	for _, c := range cases {
		if got := c.req.RegionsNeeded(per); got != c.want {
			t.Errorf("RegionsNeeded(%v) = %d, want %d", c.req, got, c.want)
		}
	}
	// Unsatisfiable dimension.
	if got := (Resources{BRAM: 1}).RegionsNeeded(Resources{LUT: 100}); got < 1<<29 {
		t.Errorf("impossible requirement returned %d", got)
	}
}

func TestPlaceSingle(t *testing.T) {
	_, f, _ := newFabric(t)
	p, err := f.Place(smallMod("a"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Area() != 1 || p.Row != 0 || p.Col != 0 {
		t.Errorf("placement %v, want 1 region at origin", p)
	}
	if f.FreeRegions() != 63 {
		t.Errorf("FreeRegions = %d, want 63", f.FreeRegions())
	}
	if f.Utilization() <= 0 {
		t.Error("utilization should be positive")
	}
}

func TestPlaceBoundingBoxMinimal(t *testing.T) {
	_, f, _ := newFabric(t)
	p, err := f.Place(bigMod("b", 6))
	if err != nil {
		t.Fatal(err)
	}
	if p.Area() != 6 {
		t.Errorf("6-region module got area %d box (%dx%d)", p.Area(), p.Rows, p.Cols)
	}
	// Squareness preference: 2x3 or 3x2, not 1x6.
	if p.Rows == 1 || p.Cols == 1 {
		t.Errorf("bounding box %dx%d is not compact", p.Rows, p.Cols)
	}
}

func TestPlacementsDoNotOverlap(t *testing.T) {
	_, f, _ := newFabric(t)
	for i := 0; i < 10; i++ {
		if _, err := f.Place(bigMod(string(rune('a'+i)), 1+i%4)); err != nil {
			t.Fatal(err)
		}
	}
	// Grid cells each owned by at most one placement — verified via fill
	// bookkeeping: total occupied equals sum of areas.
	total := 0
	for _, p := range f.Placements() {
		total += p.Area()
	}
	if got := f.TotalRegions() - f.FreeRegions(); got != total {
		t.Errorf("occupied %d != sum of areas %d (overlap!)", got, total)
	}
}

func TestPlaceExhaustion(t *testing.T) {
	_, f, _ := newFabric(t)
	n := 0
	for {
		_, err := f.Place(bigMod("m", 1))
		if err != nil {
			var nos *ErrNoSpace
			if !errors.As(err, &nos) {
				t.Fatalf("wrong error type: %v", err)
			}
			break
		}
		n++
	}
	if n != 64 {
		t.Errorf("placed %d single-region modules on an 8x8 grid", n)
	}
	if f.PlacementFailures() != 1 {
		t.Errorf("failures = %d", f.PlacementFailures())
	}
}

func TestRemove(t *testing.T) {
	_, f, _ := newFabric(t)
	p, _ := f.Place(bigMod("a", 4))
	f.Remove(p)
	if f.FreeRegions() != 64 {
		t.Error("Remove did not free regions")
	}
	defer func() {
		if recover() == nil {
			t.Error("double Remove did not panic")
		}
	}()
	f.Remove(p)
}

func TestFragmentationAndDefrag(t *testing.T) {
	_, f, _ := newFabric(t)
	// Fill with 1x1 modules, then remove a checkerboard to fragment.
	var ps []*Placement
	for i := 0; i < 64; i++ {
		p, err := f.Place(bigMod("m", 1))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for i := 0; i < 64; i += 2 {
		f.Remove(ps[i])
	}
	if f.FreeRegions() != 32 {
		t.Fatal("setup wrong")
	}
	if f.LargestFreeBox() >= 16 {
		t.Fatalf("checkerboard should be fragmented, largest box %d", f.LargestFreeBox())
	}
	// A 16-region module cannot be placed despite 32 free regions.
	if _, err := f.Place(bigMod("big", 16)); err == nil {
		t.Fatal("placement into fragmented fabric should fail")
	}
	moved := f.Defragment()
	if moved == 0 {
		t.Error("defragmentation moved nothing")
	}
	if f.LargestFreeBox() < 16 {
		t.Errorf("after defrag largest free box = %d, want >= 16", f.LargestFreeBox())
	}
	if _, err := f.Place(bigMod("big", 16)); err != nil {
		t.Errorf("placement after defrag failed: %v", err)
	}
}

func TestDefragPreservesModules(t *testing.T) {
	_, f, _ := newFabric(t)
	var names []string
	for i := 0; i < 8; i++ {
		name := string(rune('a' + i))
		if _, err := f.Place(bigMod(name, 1+i%3)); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	f.Defragment()
	got := map[string]bool{}
	total := 0
	for _, p := range f.Placements() {
		got[p.Module.Name] = true
		total += p.Area()
	}
	for _, n := range names {
		if !got[n] {
			t.Errorf("module %s lost in defrag", n)
		}
	}
	if f.TotalRegions()-f.FreeRegions() != total {
		t.Error("defrag corrupted occupancy")
	}
}

func TestFailRegionEvictsOverlap(t *testing.T) {
	_, f, _ := newFabric(t)
	p, err := f.Place(bigMod("a", 4))
	if err != nil {
		t.Fatal(err)
	}
	lost := f.FailRegion(p.Row, p.Col)
	if lost != p {
		t.Fatalf("FailRegion returned %v, want the overlapping placement %v", lost, p)
	}
	if f.FailedRegions() != 1 {
		t.Errorf("FailedRegions = %d, want 1", f.FailedRegions())
	}
	// The other 3 regions of the evicted module are free again; the failed
	// one is neither free nor occupied.
	if f.FreeRegions() != 63 {
		t.Errorf("FreeRegions = %d, want 63", f.FreeRegions())
	}
	// Failing a free region loses nothing; failing twice is idempotent.
	if f.FailRegion(7, 7) != nil {
		t.Error("failing a free region returned a placement")
	}
	if f.FailRegion(7, 7) != nil || f.FailedRegions() != 2 {
		t.Error("double FailRegion not idempotent")
	}
	// New placements avoid the holes.
	for i := 0; i < 62; i++ {
		p, err := f.Place(bigMod("m", 1))
		if err != nil {
			t.Fatalf("placement %d failed with 2 failed regions: %v", i, err)
		}
		if f.failedAt(p.Row, p.Col) {
			t.Fatalf("placement %d landed on failed region (%d,%d)", i, p.Row, p.Col)
		}
	}
	if _, err := f.Place(bigMod("m", 1)); err == nil {
		t.Error("63rd placement should fail: only 62 usable regions remain")
	}
}

// Defragment on a grid with failed regions must compact around the holes:
// no module may land on a failed cell and occupancy accounting stays
// exact — the property the fault layer's re-floorplanning relies on.
func TestDefragAroundFailedRegions(t *testing.T) {
	_, f, _ := newFabric(t)
	var ps []*Placement
	for i := 0; i < 64; i++ {
		p, err := f.Place(bigMod("m", 1))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	// Checkerboard removal fragments the grid, then a diagonal of the
	// freed cells fails outright.
	for i := 0; i < 64; i += 2 {
		f.Remove(ps[i])
	}
	for i := 0; i < 4; i++ {
		if lost := f.FailRegion(2*i, 2*i); lost != nil {
			t.Fatalf("failed region (%d,%d) should have been free, lost %v", 2*i, 2*i, lost)
		}
	}
	live := 32
	if f.FreeRegions() != 32-4 {
		t.Fatalf("FreeRegions = %d, want 28", f.FreeRegions())
	}
	f.Defragment()
	if got := len(f.Placements()); got != live {
		t.Fatalf("defrag lost modules: %d placements, want %d", got, live)
	}
	total := 0
	for _, p := range f.Placements() {
		total += p.Area()
		for r := p.Row; r < p.Row+p.Rows; r++ {
			for c := p.Col; c < p.Col+p.Cols; c++ {
				if f.failedAt(r, c) {
					t.Fatalf("defrag placed %v over failed region (%d,%d)", p, r, c)
				}
			}
		}
	}
	if occ := f.TotalRegions() - f.FreeRegions() - f.FailedRegions(); occ != total {
		t.Errorf("occupied %d != sum of areas %d", occ, total)
	}
	// Compaction must still help: the 28 usable free cells should now
	// include a box big enough for a multi-region module.
	if f.LargestFreeBox() < 4 {
		t.Errorf("largest free box %d after defrag around holes", f.LargestFreeBox())
	}
	if _, err := f.Place(bigMod("big", 4)); err != nil {
		t.Errorf("4-region placement after defrag-around-holes failed: %v", err)
	}
}

func TestLargestFreeBoxSkipsFailed(t *testing.T) {
	_, f, _ := newFabric(t)
	// Fail the center cell of an empty 8x8 grid: the largest box drops
	// from 64 to 8x4 = 32.
	f.FailRegion(3, 3)
	if got := f.LargestFreeBox(); got != 32 {
		t.Errorf("LargestFreeBox with center hole = %d, want 32", got)
	}
}

func TestRLERoundtrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{0, 0, 0, 0},
		{1, 2, 3, 4},
		bytes.Repeat([]byte{7}, 1000),
	}
	for _, c := range cases {
		got := DecompressRLE(CompressRLE(c))
		if !bytes.Equal(got, c) && !(len(got) == 0 && len(c) == 0) {
			t.Errorf("roundtrip failed for %v", c)
		}
	}
}

// Property: decompress∘compress = identity for arbitrary data.
func TestRLERoundtripProperty(t *testing.T) {
	prop := func(data []byte) bool {
		got := DecompressRLE(CompressRLE(data))
		if len(data) == 0 {
			return len(got) == 0
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRLECorruptPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd-length RLE did not panic")
		}
	}()
	DecompressRLE([]byte{1, 2, 3})
}

func TestBitstreamDeterministicAndSized(t *testing.T) {
	_, f, _ := newFabric(t)
	p, _ := f.Place(bigMod("a", 4))
	b1 := f.BitstreamFor(p, 0.25)
	b2 := f.BitstreamFor(p, 0.25)
	if !bytes.Equal(b1, b2) {
		t.Error("bitstream not deterministic")
	}
	if len(b1) != 4*f.Config().BytesPerRegion {
		t.Errorf("bitstream size %d, want %d", len(b1), 4*f.Config().BytesPerRegion)
	}
}

func TestBitstreamCompresses(t *testing.T) {
	_, f, _ := newFabric(t)
	p, _ := f.Place(bigMod("a", 4))
	ratioAt := func(density float64) float64 {
		bs := f.BitstreamFor(p, density)
		return float64(len(bs)) / float64(len(CompressRLE(bs)))
	}
	ratio := ratioAt(0.25)
	if ratio < 1.5 {
		t.Errorf("compression ratio %.2f too low for sparse config data", ratio)
	}
	dense := ratioAt(1.0)
	if dense >= ratio {
		t.Errorf("dense bitstream (%.2f) should compress worse than sparse (%.2f)", dense, ratio)
	}
}

func TestLoadTiming(t *testing.T) {
	eng, f, m := newFabric(t)
	p, _ := f.Place(bigMod("a", 2))
	var plain, comp sim.Time
	f.Load(p, LoadOptions{}, func() { plain = eng.Now() })
	eng.RunUntilIdle()
	start := eng.Now()
	f.Load(p, LoadOptions{Compressed: true}, func() { comp = eng.Now() - start })
	eng.RunUntilIdle()
	if comp >= plain {
		t.Errorf("compressed load (%v) should beat plain (%v)", comp, plain)
	}
	if f.Loads() != 2 {
		t.Errorf("Loads = %d", f.Loads())
	}
	if m.Category("reconfig") <= 0 {
		t.Error("no reconfiguration energy charged")
	}
	if plain != f.LoadLatency(p, LoadOptions{}) {
		t.Error("uncontended load should match LoadLatency")
	}
}

// TestLoadWireBytesMatchBitstream pins Load and LoadLatency to the bytes
// BitstreamFor synthesizes: a plain load moves the whole bitstream and a
// compressed one its RLE encoding, in simulated time and in the
// fabric.loaded_bytes counter. Across the module names the bitstreams
// hold zero frames that meet into one run, runs CompressRLE splits at
// 255 bytes, and equal configured bytes side by side; the test checks
// that they do, so the run counter behind a compressed load meets each.
func TestLoadWireBytesMatchBitstream(t *testing.T) {
	var zeroMeets, splits, equalBytes int
	for _, name := range []string{"m", "fir", "spmv", "matmul-16", "x"} {
		for _, regions := range []int{1, 4, 16} {
			for _, density := range []float64{0, 0.1, 0.25, 0.5, 1} {
				for _, compressed := range []bool{false, true} {
					eng, f, _ := newFabric(t)
					f.Reg = trace.NewRegistry()
					p, err := f.Place(bigMod(fmt.Sprintf("%s%d", name, regions), regions))
					if err != nil {
						t.Fatal(err)
					}
					bs := f.BitstreamFor(p, density)
					want := len(bs)
					if compressed {
						want = len(CompressRLE(bs))
						var prev byte = 1
						f.walkBitstream(p, density, func(v byte, n int) {
							if v == 0 && prev == 0 {
								zeroMeets++
							}
							prev = v
						})
						for i := 0; i < len(bs); {
							run := 1
							for i+run < len(bs) && bs[i+run] == bs[i] {
								run++
							}
							if run > 255 {
								splits++
							}
							if run > 1 && bs[i] != 0 {
								equalBytes++
							}
							i += run
						}
					}
					wantLat := sim.Time(float64(want) / f.Config().PortBytesPerNs * float64(sim.Nanosecond))
					opt := LoadOptions{Compressed: compressed, Density: density}
					if got := f.LoadLatency(p, opt); got != wantLat {
						t.Errorf("%s: regions=%d density=%v compressed=%v: LoadLatency = %v, want %v",
							p.Module.Name, regions, density, compressed, got, wantLat)
					}
					var done sim.Time
					f.Load(p, opt, func() { done = eng.Now() })
					eng.RunUntilIdle()
					if done != wantLat {
						t.Errorf("%s: regions=%d density=%v compressed=%v: load took %v, want %v",
							p.Module.Name, regions, density, compressed, done, wantLat)
					}
					if got := f.Reg.CounterTotal("fabric.loaded_bytes"); got != uint64(want) {
						t.Errorf("%s: regions=%d density=%v compressed=%v: fabric.loaded_bytes = %d, want %d",
							p.Module.Name, regions, density, compressed, got, want)
					}
				}
			}
		}
	}
	if zeroMeets == 0 || splits == 0 || equalBytes == 0 {
		t.Errorf("bitstreams hold %d meeting zero frames, %d runs over 255 bytes and %d equal configured-byte runs; want each > 0",
			zeroMeets, splits, equalBytes)
	}
}

// TestRLESizeMatchesCompressRLE feeds random runs, of a few values so
// that neighbours often meet and of lengths past 255, to the run counter
// and checks it against the length of CompressRLE's output.
func TestRLESizeMatchesCompressRLE(t *testing.T) {
	rng := sim.NewRNG(3)
	for trial := 0; trial < 200; trial++ {
		var c rleSize
		var data []byte
		for k := rng.Intn(20); k > 0; k-- {
			v, n := byte(rng.Intn(3)), 1+rng.Intn(600)
			c.add(v, n)
			data = append(data, bytes.Repeat([]byte{v}, n)...)
		}
		if got, want := c.bytes(), len(CompressRLE(data)); got != want {
			t.Fatalf("trial %d: counted %d RLE bytes, CompressRLE gives %d", trial, got, want)
		}
	}
}

// TestCompressedLoadLatencyAllocatesNothing pins that a compressed
// load's size is counted, not built.
func TestCompressedLoadLatencyAllocatesNothing(t *testing.T) {
	_, f, _ := newFabric(t)
	p, err := f.Place(bigMod("a", 4))
	if err != nil {
		t.Fatal(err)
	}
	opt := LoadOptions{Compressed: true, Density: 0.25}
	if n := testing.AllocsPerRun(10, func() { f.LoadLatency(p, opt) }); n != 0 {
		t.Errorf("compressed LoadLatency makes %v allocations, want 0", n)
	}
}

func TestLoadSerializesOnPort(t *testing.T) {
	eng, f, _ := newFabric(t)
	p1, _ := f.Place(bigMod("a", 2))
	p2, _ := f.Place(bigMod("b", 2))
	var t1, t2 sim.Time
	f.Load(p1, LoadOptions{}, func() { t1 = eng.Now() })
	f.Load(p2, LoadOptions{}, func() { t2 = eng.Now() })
	eng.RunUntilIdle()
	if t2 <= t1 {
		t.Error("concurrent loads should serialize on the configuration port")
	}
}

func TestLoadEnergyScalesWithBytes(t *testing.T) {
	eng, f, m := newFabric(t)
	p, _ := f.Place(bigMod("a", 2))
	f.Load(p, LoadOptions{}, nil)
	eng.RunUntilIdle()
	ePlain := m.Category("reconfig")
	f.Load(p, LoadOptions{Compressed: true}, nil)
	eng.RunUntilIdle()
	eComp := m.Category("reconfig") - ePlain
	if eComp >= ePlain {
		t.Errorf("compressed load energy (%v) should be below plain (%v)", eComp, ePlain)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	for name, cfg := range map[string]Config{
		"zero grid": {Rows: 0, Cols: 4, PortBytesPerNs: 1},
		"zero port": {Rows: 4, Cols: 4, PortBytesPerNs: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			New(eng, cfg, nil)
		}()
	}
}

// Property: any mix of place/remove keeps the occupancy accounting exact
// and never overlaps placements.
func TestPlacementAccountingProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		_, f, _ := newFabric(t)
		var live []*Placement
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				idx := int(op/3) % len(live)
				f.Remove(live[idx])
				live = append(live[:idx], live[idx+1:]...)
			} else {
				p, err := f.Place(bigMod("m", 1+int(op)%5))
				if err == nil {
					live = append(live, p)
				}
			}
			sum := 0
			for _, p := range live {
				sum += p.Area()
			}
			if f.TotalRegions()-f.FreeRegions() != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
