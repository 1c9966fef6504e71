package runner

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ecoscale/internal/cas"
	"ecoscale/internal/trace"
)

// cacheTestValue rides Row.Value through the codec in tests.
type cacheTestValue struct {
	N int
	F float64
	S string
}

func init() { RegisterCacheValue(cacheTestValue{}) }

// countingScenario builds a Cacheable scenario whose points record how
// many times they actually simulate.
func countingScenario(id string, labels []string, sims *atomic.Int64, delay time.Duration) Scenario {
	return Scenario{
		ID: id, Title: "t", Source: "s",
		Table:     "tbl",
		Columns:   []string{"label", "n", "f"},
		Cacheable: true,
		Points: func() ([]Point, error) {
			var pts []Point
			for i, l := range labels {
				i, l := i, l
				pts = append(pts, Point{
					Label: l,
					Run: func(context.Context) (Row, error) {
						sims.Add(1)
						if delay > 0 {
							time.Sleep(delay)
						}
						r := R(l, i, float64(i)*1.5)
						r.Value = cacheTestValue{N: i, F: float64(i) * 1.5, S: l}
						return r, nil
					},
				})
			}
			return pts, nil
		},
		Finalize: func(tbl *trace.Table, rows []Row) error {
			// Consumes the gob-decoded Value exactly as experiments do.
			var sum float64
			for _, r := range rows {
				sum += r.Value.(cacheTestValue).F
			}
			tbl.AddRow("sum", len(rows), sum)
			return nil
		},
	}
}

// TestCacheWarmByteIdentical runs the same scenario uncached, cold and
// warm: all three tables must render byte-identically, and the warm
// run must not simulate at all.
func TestCacheWarmByteIdentical(t *testing.T) {
	labels := []string{"a=1", "a=2", "a=3", "a=4"}
	var simsPlain, simsCached atomic.Int64

	plainTbl, err := RunSeq(countingScenario("X1", labels, &simsPlain, 0))
	if err != nil {
		t.Fatal(err)
	}

	reg := trace.NewRegistry()
	store, err := cas.Open(cas.Options{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Parallel: 4, Metrics: trace.NewRegistry(), Cache: store, CacheVersion: "test/1"}
	coldTbl, err := Run(context.Background(), countingScenario("X1", labels, &simsCached, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if simsCached.Load() != int64(len(labels)) {
		t.Fatalf("cold run simulated %d points, want %d", simsCached.Load(), len(labels))
	}
	warmTbl, err := Run(context.Background(), countingScenario("X1", labels, &simsCached, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if simsCached.Load() != int64(len(labels)) {
		t.Fatalf("warm run re-simulated: %d total sims", simsCached.Load())
	}

	if plainTbl.String() != coldTbl.String() {
		t.Fatalf("cold cached table differs from uncached:\n%s\nvs\n%s", coldTbl, plainTbl)
	}
	if coldTbl.String() != warmTbl.String() {
		t.Fatalf("warm table differs from cold:\n%s\nvs\n%s", warmTbl, coldTbl)
	}
	if plainTbl.CSV() != warmTbl.CSV() {
		t.Fatal("CSV rendering differs warm vs uncached")
	}
	if hits := reg.CounterTotal(cas.MetricHits); hits < uint64(len(labels)) {
		t.Fatalf("cache.hits = %d, want >= %d", hits, len(labels))
	}
}

// TestCacheWarmAcrossStores proves the disk tier carries results
// across processes: a second store on the same directory serves every
// point without simulating.
func TestCacheWarmAcrossStores(t *testing.T) {
	labels := []string{"p=1", "p=2", "p=3"}
	dir := t.TempDir()
	var sims atomic.Int64

	s1, err := cas.Open(cas.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(context.Background(), countingScenario("X2", labels, &sims, 0),
		Options{Parallel: 1, Cache: s1, CacheVersion: "test/1"})
	if err != nil {
		t.Fatal(err)
	}

	s2, err := cas.Open(cas.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), countingScenario("X2", labels, &sims, 0),
		Options{Parallel: 1, Cache: s2, CacheVersion: "test/1"})
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != int64(len(labels)) {
		t.Fatalf("second store re-simulated: %d sims", sims.Load())
	}
	if cold.String() != warm.String() {
		t.Fatal("cross-store warm table differs")
	}
}

// TestCacheVersionInvalidates: bumping the kernel stamp must miss
// every prior entry.
func TestCacheVersionInvalidates(t *testing.T) {
	labels := []string{"q=1"}
	var sims atomic.Int64
	store, err := cas.Open(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []string{"kernel/1", "kernel/2"} {
		if _, err := Run(context.Background(), countingScenario("X3", labels, &sims, 0),
			Options{Parallel: 1, Cache: store, CacheVersion: v}); err != nil {
			t.Fatal(err)
		}
		if sims.Load() != int64(i+1) {
			t.Fatalf("after version %q: %d sims, want %d", v, sims.Load(), i+1)
		}
	}
}

// TestConcurrentDuplicatePointsSingleflight is the dedup acceptance
// test: N identical in-flight points (same scenario, same key) must
// trigger exactly one simulation, with the other N-1 served from the
// in-flight computation or the memory tier.
func TestConcurrentDuplicatePointsSingleflight(t *testing.T) {
	const n = 8
	labels := make([]string, n)
	for i := range labels {
		labels[i] = "dup=0" // every point identical -> one cache key
	}
	var sims atomic.Int64
	reg := trace.NewRegistry()
	store, err := cas.Open(cas.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// The delay holds the first computation open long enough that the
	// pool has dispatched every duplicate, forcing the in-flight path
	// (not just later memory hits) to carry most of them.
	tbl, err := Run(context.Background(), countingScenario("X4", labels, &sims, 50*time.Millisecond),
		Options{Parallel: n, Cache: store, CacheVersion: "test/1"})
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 1 {
		t.Fatalf("%d identical in-flight points ran %d simulations, want 1", n, sims.Load())
	}
	if got := len(tbl.Rows); got != n+1 { // n point rows + finalize row
		t.Fatalf("table has %d rows, want %d", got, n+1)
	}
	for i := 1; i < n; i++ {
		if tbl.Rows[i][1] != tbl.Rows[0][1] || tbl.Rows[i][2] != tbl.Rows[0][2] {
			t.Fatalf("deduplicated rows differ: %v vs %v", tbl.Rows[i], tbl.Rows[0])
		}
	}
	if got := reg.CounterTotal(cas.MetricDedup) + reg.CounterTotal(cas.MetricHits); got != n-1 {
		t.Fatalf("dedup+hits = %d, want %d", got, n-1)
	}
}

// TestUncacheableScenarioBypassesStore: without Cacheable or Key, the
// store must stay untouched even when configured.
func TestUncacheableScenarioBypassesStore(t *testing.T) {
	var sims atomic.Int64
	s := countingScenario("X5", []string{"u=1"}, &sims, 0)
	s.Cacheable = false
	reg := trace.NewRegistry()
	store, err := cas.Open(cas.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Parallel: 1, Cache: store, CacheVersion: "test/1"}
	for i := 1; i <= 2; i++ {
		if _, err := Run(context.Background(), s, opts); err != nil {
			t.Fatal(err)
		}
		if sims.Load() != int64(i) {
			t.Fatalf("run %d: %d sims", i, sims.Load())
		}
	}
	if reg.CounterTotal(cas.MetricHits)+reg.CounterTotal(cas.MetricMisses) != 0 {
		t.Fatal("uncacheable scenario touched the store")
	}
}

// TestExplicitPointKeyOverridesLabel: two points with identical labels
// but distinct Keys must not collide.
func TestExplicitPointKeyOverridesLabel(t *testing.T) {
	var sims atomic.Int64
	s := Scenario{
		ID: "X6", Title: "t", Source: "s", Table: "tbl",
		Columns: []string{"v"},
		Points: func() ([]Point, error) {
			mk := func(key string, v int) Point {
				return Point{
					Label: "same-label",
					Key:   key,
					Run: func(context.Context) (Row, error) {
						sims.Add(1)
						return R(v), nil
					},
				}
			}
			return []Point{mk("total=100", 100), mk("total=200", 200)}, nil
		},
	}
	store, err := cas.Open(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Run(context.Background(), s, Options{Parallel: 1, Cache: store, CacheVersion: "test/1"})
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 2 {
		t.Fatalf("sims = %d, want 2 (keys must not collide)", sims.Load())
	}
	if tbl.Rows[0][0] != "100" || tbl.Rows[1][0] != "200" {
		t.Fatalf("rows = %v", tbl.Rows)
	}
}

// TestEncodeRowRoundTrip pins the codec: rendered cells, exact shares,
// gob-typed values.
func TestEncodeRowRoundTrip(t *testing.T) {
	r := Row{
		Cells:  [][]any{{1, "two", 3.14159, uint64(7)}, {int64(-5), true}},
		Shares: []NamedShare{{Name: "compute", Frac: 0.625}, {Name: "noc", Frac: 0.375}},
		Value:  cacheTestValue{N: 9, F: 2.5, S: "v"},
	}
	b, err := EncodeRow(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, cells := range r.Cells {
		for j, c := range cells {
			want := trace.RenderCell(c)
			if got.Cells[i][j] != want {
				t.Fatalf("cell (%d,%d) = %v, want %q", i, j, got.Cells[i][j], want)
			}
		}
	}
	if len(got.Shares) != 2 || got.Shares[0] != r.Shares[0] || got.Shares[1] != r.Shares[1] {
		t.Fatalf("shares = %v", got.Shares)
	}
	if v, ok := got.Value.(cacheTestValue); !ok || v != r.Value.(cacheTestValue) {
		t.Fatalf("value = %#v", got.Value)
	}

	// A value-less row comes back value-less.
	b2, err := EncodeRow(R("only", 1))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := DecodeRow(b2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Value != nil {
		t.Fatalf("nil value round-tripped as %#v", got2.Value)
	}
}

// TestUnregisteredValueFailsLoudly: caching a Value type nobody
// registered must fail the point with a helpful error, not cache a
// truncated row.
func TestUnregisteredValueFailsLoudly(t *testing.T) {
	type secret struct{ X int }
	s := Scenario{
		ID: "X7", Title: "t", Source: "s", Table: "tbl",
		Columns: []string{"v"}, Cacheable: true,
		Points: func() ([]Point, error) {
			return []Point{{Label: "p", Run: func(context.Context) (Row, error) {
				return V(secret{X: 1}), nil
			}}}, nil
		},
	}
	store, err := cas.Open(cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), s, Options{Parallel: 1, Cache: store, CacheVersion: "test/1"})
	if err == nil {
		t.Fatal("unregistered Value type cached silently")
	}
}
