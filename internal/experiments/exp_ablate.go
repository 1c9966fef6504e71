package experiments

// A1–A5: ablations of the reproduction's own design choices (DESIGN.md
// §4 calls these out): stream pipelining depth, accelerator-side
// caching, machine-tree shape, UNIMEM page granularity, and link
// serialization capacity.

import (
	"context"
	"fmt"

	"ecoscale/internal/mpi"
	"ecoscale/internal/noc"
	"ecoscale/internal/part"
	"ecoscale/internal/runner"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
	"ecoscale/internal/unimem"
)

// sweepResult carries one (parameter, latency) measurement for the A1
// and A5 sweeps whose speedup column derives against the first point.
type sweepResult struct {
	X int
	T sim.Time
}

// scenA1 ablates the in-flight window of UNIMEM streams: the
// write-combining depth that hides per-line round trips. The "speedup
// vs window 1" column derives against the first point in Finalize.
func scenA1() runner.Scenario {
	return runner.Scenario{
		ID: "A1", Title: "Ablation: stream in-flight window", Source: "DESIGN.md §4",
		Table:   "A1: 64 KiB remote stream vs in-flight window",
		Columns: []string{"window", "latency", "speedup vs window 1"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, window := range []int{1, 2, 4, 8, 16, 32} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("window=%d", window),
					Run: func(context.Context) (runner.Row, error) {
						eng := sim.NewEngine(1)
						tree := topo.NewTree(4, 4)
						net := noc.NewNetwork(eng, tree, noc.DefaultConfig(tree.MaxHops()), nil, nil)
						space := unimem.NewSpace(net, unimem.DefaultConfig(), nil)
						addr := space.Alloc(4, 65536)
						var lat sim.Time
						space.StreamFetch(0, addr, 65536, window, func() { lat = eng.Now() })
						eng.RunUntilIdle()
						return runner.V(sweepResult{X: window, T: lat}), nil
					},
				})
			}
			return pts, nil
		},
		Finalize: func(tbl *trace.Table, rows []runner.Row) error {
			base := rows[0].Value.(sweepResult).T
			for _, r := range rows {
				v := r.Value.(sweepResult)
				tbl.AddRow(v.X, fmt.Sprint(v.T), fmt.Sprintf("%.2fx", float64(base)/float64(v.T)))
			}
			return nil
		},
	}
}

// scenA2 ablates the ACE cache path: the same worker streams the same
// 64 KiB twice, with the page's caching right held locally versus
// parked elsewhere (cache-disabled, the ACE-lite situation).
func scenA2() runner.Scenario {
	return runner.Scenario{
		ID: "A2", Title: "Ablation: accelerator-side caching", Source: "DESIGN.md §4",
		Table:   "A2: repeated 64 KiB local stream, caching right held vs withheld",
		Columns: []string{"caching", "first pass", "second pass", "second-pass speedup"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, cached := range []bool{true, false} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("cached=%v", cached),
					Run: func(context.Context) (runner.Row, error) {
						eng := sim.NewEngine(1)
						tree := topo.NewTree(4)
						net := noc.NewNetwork(eng, tree, noc.DefaultConfig(tree.MaxHops()), nil, nil)
						space := unimem.NewSpace(net, unimem.DefaultConfig(), nil)
						addr := space.Alloc(0, 65536)
						if !cached {
							// Hand the caching right to another worker: worker 0 must
							// bypass its cache (the UNIMEM one-owner rule).
							for p := 0; p < 16; p++ {
								space.SetCacher(addr+uint64(p*4096), 1, nil)
							}
							eng.RunUntilIdle()
						}
						var first, second sim.Time
						space.StreamFetch(0, addr, 65536, 8, func() {
							first = eng.Now()
							space.StreamFetch(0, addr, 65536, 8, func() { second = eng.Now() - first })
						})
						eng.RunUntilIdle()
						label := "cache disabled"
						if cached {
							label = "ACE (cached)"
						}
						return runner.R(label, fmt.Sprint(first), fmt.Sprint(second),
							fmt.Sprintf("%.1fx", float64(first)/float64(second))), nil
					},
				})
			}
			return pts, nil
		},
	}
}

// scenA3 ablates hierarchy depth at fixed machine size: 64 workers
// arranged flat to deep, measured on halo partitioning cost and an
// allreduce.
func scenA3() runner.Scenario {
	return runner.Scenario{
		ID: "A3", Title: "Ablation: machine-tree depth", Source: "DESIGN.md §4",
		Table:   "A3: 64 workers, tree depth ablation",
		Columns: []string{"tree", "levels", "diameter", "halo weighted hops", "allreduce latency"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, fan := range [][]int{{64}, {8, 8}, {4, 4, 4}, {2, 2, 2, 2, 2, 2}} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("fan=%v", fan),
					Run: func(context.Context) (runner.Row, error) {
						tree := topo.NewTree(fan...)
						hier := part.Hierarchical(128, 128, tree).Evaluate(tree)
						eng := sim.NewEngine(1)
						net := noc.NewNetwork(eng, tree, noc.DefaultConfig(tree.MaxHops()), nil, nil)
						comm := mpi.WorldComm(net)
						contrib := make([][]float64, 64)
						for r := range contrib {
							contrib[r] = []float64{1}
						}
						var lat sim.Time
						comm.Allreduce(contrib, mpi.OpSum, func([][]float64) { lat = eng.Now() })
						eng.RunUntilIdle()
						return runner.R(tree.Name(), tree.Levels(), tree.MaxHops(), hier.WeightedHops, fmt.Sprint(lat)), nil
					},
				})
			}
			return pts, nil
		},
	}
}

// scenA4 ablates the UNIMEM page granularity: remote-read cost is
// page-size independent, but migration cost and false-sharing exposure
// scale with the page.
func scenA4() runner.Scenario {
	return runner.Scenario{
		ID: "A4", Title: "Ablation: UNIMEM page size", Source: "DESIGN.md §4",
		Table:   "A4: UNIMEM page-size ablation",
		Columns: []string{"page bytes", "remote 64B read", "page migration", "cacher handoff (dirty)"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, page := range []int{1024, 4096, 16384, 65536} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("page=%d", page),
					Run: func(context.Context) (runner.Row, error) {
						eng := sim.NewEngine(1)
						tree := topo.NewTree(4, 4)
						net := noc.NewNetwork(eng, tree, noc.DefaultConfig(tree.MaxHops()), nil, nil)
						cfg := unimem.DefaultConfig()
						cfg.PageBytes = page
						space := unimem.NewSpace(net, cfg, nil)
						addr := space.Alloc(0, page)

						var readLat sim.Time
						start := eng.Now()
						space.Read(5, addr, 64, func([]byte) { readLat = eng.Now() - start })
						eng.RunUntilIdle()

						start = eng.Now()
						var migLat sim.Time
						space.MigratePage(addr, 5, func() { migLat = eng.Now() - start })
						eng.RunUntilIdle()

						// Dirty handoff: a remote cacher dirties its copy of a fresh
						// page, then the caching right moves — the flush scales with
						// the dirty footprint inside the page.
						addr2 := space.Alloc(0, page)
						space.SetCacher(addr2, 5, nil)
						eng.RunUntilIdle()
						for off := 0; off < page; off += 256 {
							space.Write(5, addr2+uint64(off), make([]byte, 64), nil)
						}
						eng.RunUntilIdle()
						start = eng.Now()
						var handLat sim.Time
						space.SetCacher(addr2, 0, func() { handLat = eng.Now() - start })
						eng.RunUntilIdle()

						return runner.R(page, fmt.Sprint(readLat), fmt.Sprint(migLat), fmt.Sprint(handLat)), nil
					},
				})
			}
			return pts, nil
		},
	}
}

// scenA5 ablates the per-link serialization capacity of the multi-layer
// interconnect: 8 workers concurrently stream 64 KiB each from worker
// 0's DRAM, serializing on its uplink. The "speedup vs capacity 1"
// column derives against the first point in Finalize.
func scenA5() runner.Scenario {
	return runner.Scenario{
		ID: "A5", Title: "Ablation: interconnect link capacity", Source: "DESIGN.md §4",
		Table:   "A5: hotspot drain time vs link serialization capacity",
		Columns: []string{"link capacity", "completion", "speedup vs capacity 1"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, capacity := range []int{1, 2, 4} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("capacity=%d", capacity),
					Run: func(context.Context) (runner.Row, error) {
						eng := sim.NewEngine(1)
						tree := topo.NewTree(8)
						cfg := noc.DefaultConfig(tree.MaxHops())
						cfg.LinkCapacity = capacity
						net := noc.NewNetwork(eng, tree, cfg, nil, nil)
						space := unimem.NewSpace(net, unimem.DefaultConfig(), nil)
						addr := space.Alloc(0, 65536)
						done := 0
						for w := 1; w < 8; w++ {
							space.StreamFetch(w, addr, 65536, 8, func() { done++ })
						}
						end := eng.RunUntilIdle()
						if done != 7 {
							return runner.Row{}, fmt.Errorf("A5: %d of 7 streams completed", done)
						}
						return runner.V(sweepResult{X: capacity, T: end}), nil
					},
				})
			}
			return pts, nil
		},
		Finalize: func(tbl *trace.Table, rows []runner.Row) error {
			base := rows[0].Value.(sweepResult).T
			for _, r := range rows {
				v := r.Value.(sweepResult)
				tbl.AddRow(v.X, fmt.Sprint(v.T), fmt.Sprintf("%.2fx", float64(base)/float64(v.T)))
			}
			return nil
		},
	}
}
