package experiments

// Shape tests: every experiment must not only run, but reproduce the
// qualitative claim of the paper passage it operationalizes. These are
// the assertions EXPERIMENTS.md reports.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"ecoscale/internal/runner"
	"ecoscale/internal/trace"
)

// runExp executes one scenario through the shared runner at -parallel 4
// — so every shape test also exercises the concurrent path (and, under
// `go test -race`, audits that no package shares mutable state between
// engines).
func runExp(t *testing.T, id string) *trace.Table {
	t.Helper()
	s, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := runner.Run(context.Background(), s, runner.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// cell parses table cell (r, c) as a float, stripping unit suffixes.
func cell(t *testing.T, tbl interface{ String() string }, rows [][]string, r, c int) float64 {
	t.Helper()
	s := rows[r][c]
	s = strings.TrimRight(s, "xus%mn")
	// Duration strings like "163.840us" → keep digits and dot.
	num := strings.Builder{}
	for _, ch := range s {
		if (ch >= '0' && ch <= '9') || ch == '.' || ch == '-' {
			num.WriteRune(ch)
		} else {
			break
		}
	}
	v, err := strconv.ParseFloat(num.String(), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", r, c, rows[r][c], err)
	}
	return v
}

// dur parses a sim.Time string into nanoseconds for comparisons.
func dur(t *testing.T, s string) float64 {
	t.Helper()
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "ps"):
		mult, s = 1e-3, strings.TrimSuffix(s, "ps")
	case strings.HasSuffix(s, "ns"):
		mult, s = 1, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "us"):
		mult, s = 1e3, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ms"):
		mult, s = 1e6, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "s"):
		mult, s = 1e9, strings.TrimSuffix(s, "s")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad duration %q: %v", s, err)
	}
	return v * mult
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 25 {
		t.Fatalf("registry has %d experiments, want 25 (E1-E16 + A1-A5 + R1-R4)", len(reg))
	}
	for i, e := range reg[:16] {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("experiment %d id %q, want %q", i, e.ID, want)
		}
	}
	for i, e := range reg[16:21] {
		want := "A" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("ablation %d id %q, want %q", i, e.ID, want)
		}
	}
	for i, e := range reg[21:] {
		want := "R" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("resilience scenario %d id %q, want %q", i, e.ID, want)
		}
	}
	seen := map[string]bool{}
	for _, s := range reg {
		if seen[s.ID] {
			t.Errorf("duplicate experiment id %s", s.ID)
		}
		seen[s.ID] = true
		if s.Points == nil || s.Title == "" || s.Source == "" || s.Table == "" || len(s.Columns) == 0 {
			t.Errorf("%s incomplete", s.ID)
		}
		got, err := ByID(s.ID)
		if err != nil {
			t.Errorf("ByID(%s): %v", s.ID, err)
		} else if got.ID != s.ID || got.Title != s.Title {
			t.Errorf("ByID(%s) round-trip mismatch: %s/%s", s.ID, got.ID, got.Title)
		}
		pts, err := s.Points()
		if err != nil {
			t.Errorf("%s: Points() failed: %v", s.ID, err)
			continue
		}
		if len(pts) == 0 {
			t.Errorf("%s has no points", s.ID)
		}
		labels := map[string]bool{}
		for _, p := range pts {
			if p.Label == "" || p.Run == nil {
				t.Errorf("%s has an incomplete point", s.ID)
			}
			if labels[p.Label] {
				t.Errorf("%s: duplicate point label %q", s.ID, p.Label)
			}
			labels[p.Label] = true
		}
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("unknown id should fail")
	}
}

// TestParallelMatchesSequential is the determinism regression gate: a
// representative experiment (E10, whose points share workload setup and
// formerly threaded a baseline accumulator through loop iterations)
// must render byte-identically at -parallel 1 and -parallel 4. It runs
// under `go test -race` via `make race`.
func TestParallelMatchesSequential(t *testing.T) {
	s, err := ByID("E10")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := runner.Run(context.Background(), s, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runner.Run(context.Background(), s, runner.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("E10 parallel output differs from sequential:\n--- sequential\n%s\n--- parallel\n%s", seq, par)
	}
}

func TestE1Shape(t *testing.T) {
	tbl := runExp(t, "E1")
	// Per machine size, hierarchical weighted hops <= tiles <= strips.
	for i := 0; i+2 < len(tbl.Rows); i += 3 {
		strips := cell(t, tbl, tbl.Rows, i, 4)
		tiles := cell(t, tbl, tbl.Rows, i+1, 4)
		hier := cell(t, tbl, tbl.Rows, i+2, 4)
		if !(hier <= tiles && tiles <= strips) {
			t.Errorf("rows %d-%d: weighted hops not ordered hier<=tiles<=strips: %v %v %v",
				i, i+2, hier, tiles, strips)
		}
	}
}

func TestE2Shape(t *testing.T) {
	tbl := runExp(t, "E2")
	// Weak-scaling efficiency stays ~1 at every size.
	for i := range tbl.Rows {
		if eff := cell(t, tbl, tbl.Rows, i, 4); eff < 0.95 {
			t.Errorf("row %d: efficiency %v below 0.95", i, eff)
		}
	}
}

func TestE3Shape(t *testing.T) {
	tbl := runExp(t, "E3")
	last := len(tbl.Rows) - 1
	dirSmall := cell(t, tbl, tbl.Rows, 0, 2)
	dirBig := cell(t, tbl, tbl.Rows, last, 2)
	if dirBig < 10*dirSmall {
		t.Errorf("directory traffic did not explode: %v → %v", dirSmall, dirBig)
	}
	for i := range tbl.Rows {
		if uni := cell(t, tbl, tbl.Rows, i, 4); uni != 0 {
			t.Errorf("row %d: UNIMEM write generated %v protocol messages, want 0", i, uni)
		}
		if lat := tbl.Rows[i][5]; lat != tbl.Rows[0][5] {
			t.Errorf("row %d: UNIMEM latency %s varies with sharers", i, lat)
		}
	}
}

func TestE4Shape(t *testing.T) {
	tbl := runExp(t, "E4")
	if tbl.Rows[0][3] != "load/store" {
		t.Error("smallest transfer should favor load/store")
	}
	if tbl.Rows[len(tbl.Rows)-1][3] != "dma" {
		t.Error("largest transfer should favor DMA")
	}
	// There must be a crossover.
	saw := map[string]bool{}
	for _, r := range tbl.Rows {
		saw[r[3]] = true
	}
	if !saw["dma"] || !saw["load/store"] {
		t.Error("no crossover between DMA and load/store")
	}
}

func TestE5Shape(t *testing.T) {
	tbl := runExp(t, "E5")
	prev := -1.0
	for i := range tbl.Rows {
		lat := dur(t, tbl.Rows[i][2])
		if lat <= prev {
			t.Errorf("row %d: latency %v not increasing with distance", i, tbl.Rows[i][2])
		}
		prev = lat
	}
	// The cached local path must be at least 10x cheaper than 1 hop.
	if ratio := cell(t, tbl, tbl.Rows, 1, 3); ratio < 10 {
		t.Errorf("remote/local ratio %v too small — cache not modelled?", ratio)
	}
}

func TestE6Shape(t *testing.T) {
	tbl := runExp(t, "E6")
	// Speedup grows with engine count; 4 engines ≥ 3x.
	prev := 0.0
	for i := range tbl.Rows {
		sp := cell(t, tbl, tbl.Rows, i, 3)
		if sp < prev-0.05 {
			t.Errorf("row %d: speedup %v decreased", i, sp)
		}
		prev = sp
	}
	if sp := cell(t, tbl, tbl.Rows, 2, 3); sp < 3 {
		t.Errorf("4-engine UNILOGIC speedup %v below 3x", sp)
	}
}

func TestE7Shape(t *testing.T) {
	tbl := runExp(t, "E7")
	// Speedup from the virtualization block shrinks as calls grow, and
	// is meaningful (>1.2x) for the shortest calls.
	first := cell(t, tbl, tbl.Rows, 0, 3)
	lastV := cell(t, tbl, tbl.Rows, len(tbl.Rows)-1, 3)
	if first < 1.2 {
		t.Errorf("short-call pipelining speedup %v too small", first)
	}
	if lastV > first {
		t.Errorf("speedup should shrink with call size: %v → %v", first, lastV)
	}
}

func TestE8Shape(t *testing.T) {
	tbl := runExp(t, "E8")
	for i := range tbl.Rows {
		density := cell(t, tbl, tbl.Rows, i, 1)
		plain := cell(t, tbl, tbl.Rows, i, 2)
		rle := cell(t, tbl, tbl.Rows, i, 3)
		if density <= 0.25 && rle >= plain/1.5 {
			t.Errorf("row %d: sparse bitstream compressed poorly: %v → %v", i, plain, rle)
		}
		plainLat := dur(t, tbl.Rows[i][4])
		rleLat := dur(t, tbl.Rows[i][5])
		if density <= 0.25 && rleLat >= plainLat {
			t.Errorf("row %d: compression did not cut latency", i)
		}
	}
}

func TestE9Shape(t *testing.T) {
	tbl := runExp(t, "E9")
	noDefrag := cell(t, tbl, tbl.Rows, 0, 1)
	withDefrag := cell(t, tbl, tbl.Rows, 1, 1)
	if withDefrag >= noDefrag {
		t.Errorf("defragmentation did not reduce placement failures: %v vs %v", withDefrag, noDefrag)
	}
	if moved := cell(t, tbl, tbl.Rows, 1, 4); moved == 0 {
		t.Error("defrag run moved no modules")
	}
}

func TestE10Shape(t *testing.T) {
	tbl := runExp(t, "E10")
	sw := dur(t, tbl.Rows[0][1])
	model := dur(t, tbl.Rows[2][1])
	oracle := dur(t, tbl.Rows[3][1])
	if model >= sw {
		t.Errorf("model policy (%v) no better than always-sw (%v)", model, sw)
	}
	if oracle > model*1.01 {
		t.Errorf("oracle (%v) worse than model (%v)?", oracle, model)
	}
	// The model must actually mix devices.
	if tbl.Rows[2][2] == "0" || tbl.Rows[2][3] == "0" {
		t.Error("model policy did not mix devices")
	}
}

func TestE11Shape(t *testing.T) {
	tbl := runExp(t, "E11")
	// Rows come in triples (none, polling, lazy) per worker count.
	for i := 0; i+2 < len(tbl.Rows); i += 3 {
		none := dur(t, tbl.Rows[i][2])
		poll := dur(t, tbl.Rows[i+1][2])
		lazy := dur(t, tbl.Rows[i+2][2])
		if poll >= none || lazy >= none {
			t.Errorf("rows %d: stealing did not beat no balancing", i)
		}
		if lazy > poll*1.5 {
			t.Errorf("rows %d: lazy makespan %v far above polling %v", i, lazy, poll)
		}
		pollMsgs := cell(t, tbl, tbl.Rows, i+1, 4)
		lazyMsgs := cell(t, tbl, tbl.Rows, i+2, 4)
		if lazyMsgs >= pollMsgs/1.5 {
			t.Errorf("rows %d: lazy monitoring (%v msgs) not well below polling (%v)", i, lazyMsgs, pollMsgs)
		}
	}
}

func TestE12Shape(t *testing.T) {
	tbl := runExp(t, "E12")
	prev := 1.0
	for i := range tbl.Rows {
		sp := cell(t, tbl, tbl.Rows, i, 3)
		if sp <= 1 {
			t.Errorf("row %d: chaining speedup %v not above 1", i, sp)
		}
		if sp < prev {
			t.Errorf("row %d: speedup should grow with stages", i)
		}
		prev = sp
		sepBytes := cell(t, tbl, tbl.Rows, i, 4)
		chBytes := cell(t, tbl, tbl.Rows, i, 5)
		if chBytes >= sepBytes {
			t.Errorf("row %d: chaining moved no less data", i)
		}
	}
}

func TestE13Shape(t *testing.T) {
	tbl := runExp(t, "E13")
	tianhe := cell(t, tbl, tbl.Rows, 0, 2)
	if tianhe < 300 || tianhe > 1100 {
		t.Errorf("Tianhe-2 extrapolation %v MW outside the paper's 'enormous' band", tianhe)
	}
	cpu := cell(t, tbl, tbl.Rows, 2, 2)
	eco := cell(t, tbl, tbl.Rows, 3, 2)
	if eco >= cpu {
		t.Errorf("ECOSCALE node (%v MW) not below CPU-only (%v MW)", eco, cpu)
	}
}

func TestE14Shape(t *testing.T) {
	tbl := runExp(t, "E14")
	if len(tbl.Rows) != 10 {
		t.Fatalf("expected 10 kernels, got %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		if tbl.Rows[i][5] != "match" {
			t.Errorf("kernel %s: results %s", tbl.Rows[i][0], tbl.Rows[i][5])
		}
	}
}

func TestE15Shape(t *testing.T) {
	tbl := runExp(t, "E15")
	// Within each kernel's frontier rows, cycles increase as area falls.
	var prevKernel string
	var prevCycles, prevArea float64
	for i := range tbl.Rows {
		if strings.Contains(tbl.Rows[i][6], "within") {
			continue // the constrained pick is outside the frontier order
		}
		kern := tbl.Rows[i][0]
		cyc := cell(t, tbl, tbl.Rows, i, 5)
		area := cell(t, tbl, tbl.Rows, i, 4)
		if kern == prevKernel {
			if !(cyc >= prevCycles && area <= prevArea) {
				t.Errorf("row %d: frontier not Pareto-ordered", i)
			}
		}
		prevKernel, prevCycles, prevArea = kern, cyc, area
	}
}

func TestA1Shape(t *testing.T) {
	tbl := runExp(t, "A1")
	// Latency non-increasing in window, with real gains up to ~8.
	prev := 1e18
	for i := range tbl.Rows {
		lat := dur(t, tbl.Rows[i][1])
		if lat > prev {
			t.Errorf("row %d: latency increased with window", i)
		}
		prev = lat
	}
	if sp := cell(t, tbl, tbl.Rows, 3, 2); sp < 3 {
		t.Errorf("window-8 speedup %v too small", sp)
	}
}

func TestA2Shape(t *testing.T) {
	tbl := runExp(t, "A2")
	cachedSpeedup := cell(t, tbl, tbl.Rows, 0, 3)
	uncachedSpeedup := cell(t, tbl, tbl.Rows, 1, 3)
	if cachedSpeedup < 5 {
		t.Errorf("cached second pass speedup %v too small", cachedSpeedup)
	}
	if uncachedSpeedup > 1.1 {
		t.Errorf("cache-disabled second pass should not speed up: %v", uncachedSpeedup)
	}
}

func TestA3Shape(t *testing.T) {
	tbl := runExp(t, "A3")
	// Deeper trees cost more in both metrics (the depth trade-off that
	// motivates matching tree depth to physical packaging, not making it
	// arbitrarily deep).
	prevHops, prevLat := -1.0, -1.0
	for i := range tbl.Rows {
		hops := cell(t, tbl, tbl.Rows, i, 3)
		lat := dur(t, tbl.Rows[i][4])
		if hops < prevHops || lat < prevLat {
			t.Errorf("row %d: cost not increasing with depth", i)
		}
		prevHops, prevLat = hops, lat
	}
}

func TestA4Shape(t *testing.T) {
	tbl := runExp(t, "A4")
	for i := 1; i < len(tbl.Rows); i++ {
		if tbl.Rows[i][1] != tbl.Rows[0][1] {
			t.Errorf("remote read latency should be page-size independent")
		}
		if dur(t, tbl.Rows[i][2]) <= dur(t, tbl.Rows[i-1][2]) {
			t.Errorf("migration cost should grow with page size")
		}
		if dur(t, tbl.Rows[i][3]) <= dur(t, tbl.Rows[i-1][3]) {
			t.Errorf("dirty handoff cost should grow with page size")
		}
	}
}

func TestE16Shape(t *testing.T) {
	tbl := runExp(t, "E16")
	// Sparse touches favor load/store; dense touches favor DMA; there
	// is a crossover.
	if tbl.Rows[0][4] != "load/store" {
		t.Error("sparsest gather should favor load/store")
	}
	if tbl.Rows[len(tbl.Rows)-1][4] != "dma" {
		t.Error("densest gather should favor bulk DMA")
	}
	prev := -1.0
	for i := range tbl.Rows {
		ls := dur(t, tbl.Rows[i][2])
		if ls <= prev {
			t.Errorf("row %d: load/store time not growing with touches", i)
		}
		prev = ls
		// DMA cost is density-independent.
		if tbl.Rows[i][3] != tbl.Rows[0][3] {
			t.Errorf("row %d: DMA time should not vary", i)
		}
	}
}

func TestA5Shape(t *testing.T) {
	tbl := runExp(t, "A5")
	prev := 1e18
	for i := range tbl.Rows {
		end := dur(t, tbl.Rows[i][1])
		if end > prev {
			t.Errorf("row %d: completion grew with more link capacity", i)
		}
		prev = end
	}
	if sp := cell(t, tbl, tbl.Rows, 2, 2); sp < 1.5 {
		t.Errorf("capacity-4 speedup %v too small for a hotspot", sp)
	}
}

func TestR1Shape(t *testing.T) {
	tbl := runExp(t, "R1")
	// Makespan is monotone non-decreasing as MTBF shrinks, and the
	// highest fault rate must visibly degrade it with work moved.
	prev := 0.0
	for i := range tbl.Rows {
		end := dur(t, tbl.Rows[i][3])
		if end < prev {
			t.Errorf("row %d: makespan shrank as the fault rate grew", i)
		}
		prev = end
	}
	last := len(tbl.Rows) - 1
	if cell(t, tbl, tbl.Rows, last, 1) == 0 {
		t.Error("highest fault rate killed no Workers")
	}
	if cell(t, tbl, tbl.Rows, last, 2) == 0 {
		t.Error("highest fault rate moved no tasks")
	}
	if slow := cell(t, tbl, tbl.Rows, last, 4); slow <= 1.1 {
		t.Errorf("highest fault rate slowdown %vx — faults cost nothing?", slow)
	}
}

func TestR2Shape(t *testing.T) {
	tbl := runExp(t, "R2")
	// Some swept interval must beat no checkpointing, and an interval
	// longer than the run must behave exactly like "off".
	off := dur(t, tbl.Rows[0][3])
	best := off
	for i := 1; i < len(tbl.Rows); i++ {
		if end := dur(t, tbl.Rows[i][3]); end < best {
			best = end
		}
	}
	if best >= off {
		t.Errorf("no checkpoint interval beat off (%v)", off)
	}
	last := len(tbl.Rows) - 1
	if got := dur(t, tbl.Rows[last][3]); got != off {
		t.Errorf("never-fires interval makespan %v != off %v", got, off)
	}
	if tbl.Rows[1][2] == "0" {
		t.Error("frequent checkpointing produced no restores")
	}
}

func TestR3Shape(t *testing.T) {
	tbl := runExp(t, "R3")
	// Tasks evacuated tracks the queue depth; page count and latency do
	// not (evacuation cost is page migration, not queue bookkeeping).
	for i := range tbl.Rows {
		if cell(t, tbl, tbl.Rows, i, 1) != cell(t, tbl, tbl.Rows, i, 0) {
			t.Errorf("row %d: evacuated %s tasks at depth %s", i, tbl.Rows[i][1], tbl.Rows[i][0])
		}
		if tbl.Rows[i][2] != tbl.Rows[0][2] {
			t.Errorf("row %d: pages evacuated varied with queue depth", i)
		}
		if tbl.Rows[i][4] != tbl.Rows[0][4] {
			t.Errorf("row %d: evacuation latency varied with queue depth", i)
		}
	}
}

func TestR4Shape(t *testing.T) {
	tbl := runExp(t, "R4")
	prevBox := 1e18
	for i := range tbl.Rows {
		lost := cell(t, tbl, tbl.Rows, i, 1)
		redeployed := cell(t, tbl, tbl.Rows, i, 2)
		fallbacks := cell(t, tbl, tbl.Rows, i, 3)
		if lost == 0 {
			t.Errorf("row %d: targeted region failure lost no modules", i)
		}
		if redeployed+fallbacks != lost {
			t.Errorf("row %d: lost %v != redeployed %v + fallbacks %v", i, lost, redeployed, fallbacks)
		}
		box := cell(t, tbl, tbl.Rows, i, 4)
		if box > prevBox {
			t.Errorf("row %d: largest free box grew with more failures", i)
		}
		prevBox = box
	}
}
