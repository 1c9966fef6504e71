package experiments

// E1–E5: the architecture-level experiments (partitioning, scaling,
// coherence, transfer granularity, remote accelerator access). Each
// scenario point is self-contained — it builds its own engine, tree and
// address space — so the runner may execute points concurrently.

import (
	"context"
	"fmt"

	"ecoscale/internal/energy"
	"ecoscale/internal/mem"
	"ecoscale/internal/noc"
	"ecoscale/internal/part"
	"ecoscale/internal/runner"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
	"ecoscale/internal/unimem"
)

// scenE1 reproduces the Fig. 1 argument: hierarchical, topology-matched
// partitioning reduces halo traffic-distance versus flat partitioning
// as the machine grows.
func scenE1() runner.Scenario {
	strategies := []struct {
		name  string
		build func(n int, tree *topo.Tree) *part.Partition
	}{
		{"strips", func(n int, tree *topo.Tree) *part.Partition { return part.Strips(n, n, tree.NumWorkers()) }},
		{"tiles", func(n int, tree *topo.Tree) *part.Partition { return part.Tiles(n, n, tree.NumWorkers()) }},
		{"hierarchical", func(n int, tree *topo.Tree) *part.Partition { return part.Hierarchical(n, n, tree) }},
	}
	return runner.Scenario{
		ID: "E1", Title: "Hierarchical vs flat partitioning", Source: "Fig. 1, §2(2)",
		Table:   "E1: 5-point stencil halo cost by partitioning strategy (per Jacobi step)",
		Columns: []string{"workers", "tree", "strategy", "boundary cells", "weighted hops", "mean hops", "energy/step"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, fan := range [][]int{{4, 4}, {4, 4, 4}, {8, 4, 4}, {8, 8, 8}} {
				for _, strat := range strategies {
					pts = append(pts, runner.Point{
						Label: fmt.Sprintf("fan=%v/%s", fan, strat.name),
						Run: func(context.Context) (runner.Row, error) {
							tree := topo.NewTree(fan...)
							cost := energy.DefaultCostModel()
							n := 256
							p := strat.build(n, tree)
							s := p.Evaluate(tree)
							// Each boundary cell pair exchanges one 8-byte value per
							// step; energy ≈ flits × hops × per-hop energy.
							flitsPerCell := 1.0
							e := energy.Joules(float64(s.WeightedHops)*flitsPerCell) * cost.LinkPerFlit
							return runner.R(tree.NumWorkers(), tree.Name(), p.Name, s.BoundaryCells,
								s.WeightedHops, fmt.Sprintf("%.2f", s.MeanHops()), e.String()), nil
						},
					})
				}
			}
			return pts, nil
		},
	}
}

// e2Result carries one weak-scaling point's raw measurement; the
// efficiency column is derived against the first point in Finalize.
type e2Result struct {
	Workers, Total int
	End            sim.Time
	Thr            float64
}

// scenE2 is the weak-scaling sweep behind §2's demand for 1000x
// concurrency: per-worker throughput must stay flat as workers grow,
// i.e. aggregate throughput scales linearly when the workload
// partitions hierarchically.
func scenE2() runner.Scenario {
	return runner.Scenario{
		ID: "E2", Title: "Weak-scaling concurrency sweep", Source: "§2(1) '1000x concurrency'",
		Table:   "E2: weak scaling, independent task soup (1000 tasks per worker)",
		Columns: []string{"workers", "tasks", "makespan", "tasks/us aggregate", "efficiency vs 4 workers"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, fan := range [][]int{{4}, {4, 4}, {8, 4}, {8, 8}, {8, 8, 4}} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("fan=%v", fan),
					Run: func(context.Context) (runner.Row, error) {
						tree := topo.NewTree(fan...)
						workers := tree.NumWorkers()
						const perWorker = 1000
						taskDur := 500 * sim.Nanosecond
						// Each worker executes its local queue (4 cores): model as 4-way
						// resource per worker.
						eng := sim.NewEngine(1)
						finished := 0
						for w := 0; w < workers; w++ {
							cores := sim.NewResource(eng, fmt.Sprintf("c%d", w), 4)
							for t := 0; t < perWorker; t++ {
								cores.Use(taskDur, func() { finished++ })
							}
						}
						end := eng.RunUntilIdle()
						total := workers * perWorker
						if finished != total {
							return runner.Row{}, fmt.Errorf("E2: lost tasks: %d of %d", finished, total)
						}
						thr := float64(total) / end.Micros()
						return runner.V(e2Result{Workers: workers, Total: total, End: end, Thr: thr}), nil
					},
				})
			}
			return pts, nil
		},
		Finalize: func(tbl *trace.Table, rows []runner.Row) error {
			var base float64
			for _, r := range rows {
				v := r.Value.(e2Result)
				if base == 0 {
					base = v.Thr / float64(v.Workers)
				}
				eff := v.Thr / float64(v.Workers) / base
				tbl.AddRow(v.Workers, v.Total, fmt.Sprint(v.End), fmt.Sprintf("%.1f", v.Thr), fmt.Sprintf("%.3f", eff))
			}
			return nil
		},
	}
}

// scenE3 is the paper's central scalability claim: a directory
// coherence protocol's traffic explodes with sharer count, while the
// UNIMEM one-owner model's per-access message count is constant.
func scenE3() runner.Scenario {
	return runner.Scenario{
		ID: "E3", Title: "UNIMEM vs directory coherence", Source: "§4.1 'cannot scale'",
		Table:   "E3: one widely-read line is written once — protocol messages and latency",
		Columns: []string{"workers", "sharers", "directory msgs", "directory latency", "unimem msgs", "unimem latency"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, workers := range []int{4, 16, 64, 256} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("workers=%d", workers),
					Run: func(context.Context) (runner.Row, error) {
						tree := topo.NewTree(workers)
						// Directory machine.
						engD := sim.NewEngine(1)
						regD := trace.NewRegistry()
						netD := noc.NewNetwork(engD, tree, noc.DefaultConfig(tree.MaxHops()), nil, regD)
						dir := mem.NewDirectory(netD, func(addr uint64) int { return 0 }, regD)
						sharers := workers - 1
						for w := 1; w < workers; w++ {
							dir.Read(w, 0, nil)
						}
						engD.RunUntilIdle()
						before := regD.Counter("coh.msgs").Value
						start := engD.Now()
						var dirLat sim.Time
						dir.Write(0, 0, func() { dirLat = engD.Now() - start })
						engD.RunUntilIdle()
						dirMsgs := regD.Counter("coh.msgs").Value - before

						// UNIMEM machine: same access pattern — N-1 remote reads then a
						// write by the owner. No invalidations exist at all.
						engU := sim.NewEngine(1)
						regU := trace.NewRegistry()
						netU := noc.NewNetwork(engU, tree, noc.DefaultConfig(tree.MaxHops()), nil, regU)
						space := unimem.NewSpace(netU, unimem.DefaultConfig(), regU)
						addr := space.Alloc(0, 64)
						for w := 1; w < workers; w++ {
							space.Read(w, addr, 8, nil)
						}
						engU.RunUntilIdle()
						msgsBefore := regU.Counter("noc.msgs.store").Value + regU.Counter("noc.msgs.load").Value
						startU := engU.Now()
						var uniLat sim.Time
						space.Write(0, addr, make([]byte, 8), func() { uniLat = engU.Now() - startU })
						engU.RunUntilIdle()
						uniMsgs := regU.Counter("noc.msgs.store").Value + regU.Counter("noc.msgs.load").Value - msgsBefore

						return runner.R(workers, sharers, dirMsgs, fmt.Sprint(dirLat), uniMsgs, fmt.Sprint(uniLat)), nil
					},
				})
			}
			return pts, nil
		},
	}
}

// scenE4 reproduces §4.1's DMA argument: descriptor DMA has fixed
// setup/completion costs that dominate small transfers, where UNIMEM's
// direct load/store path wins; bulk transfers amortize the setup and
// DMA wins back.
func scenE4() runner.Scenario {
	return runner.Scenario{
		ID: "E4", Title: "Load/store vs DMA small transfers", Source: "§4.1 'DMA not efficient'",
		Table:   "E4: one transfer between workers in a compute node",
		Columns: []string{"bytes", "load/store", "dma", "winner"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, size := range []int{8, 64, 256, 1024, 4096, 16384, 65536, 1 << 20} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("bytes=%d", size),
					Run: func(context.Context) (runner.Row, error) {
						lsT := measureTransfer(size, false)
						dmaT := measureTransfer(size, true)
						winner := "load/store"
						if dmaT < lsT {
							winner = "dma"
						}
						return runner.R(size, fmt.Sprint(lsT), fmt.Sprint(dmaT), winner), nil
					},
				})
			}
			return pts, nil
		},
	}
}

func measureTransfer(size int, dma bool) sim.Time {
	eng := sim.NewEngine(1)
	tree := topo.NewTree(4, 4)
	net := noc.NewNetwork(eng, tree, noc.DefaultConfig(tree.MaxHops()), nil, nil)
	var end sim.Time
	if dma {
		net.DMATransfer(0, 1, size, noc.DefaultDMAConfig(), func() { end = eng.Now() })
	} else {
		net.LoadStoreTransfer(0, 1, size, 8, func() { end = eng.Now() })
	}
	eng.RunUntilIdle()
	return end
}

// e5Result carries one stream's location and latency; the "vs local"
// ratio is derived against the first (owner-local) point in Finalize.
type e5Result struct {
	Name string
	Hops int
	Lat  sim.Time
}

// scenE5 measures the Fig. 4 NUMA effect: an accelerator streaming data
// it owns locally (ACE path, cacheable) versus data at increasing hop
// distance (ACE-lite path, cache disabled).
func scenE5() runner.Scenario {
	return runner.Scenario{
		ID: "E5", Title: "Local vs remote accelerator access", Source: "Fig. 4, ACE vs ACE-lite",
		Table:   "E5: accelerator streaming 64 KiB (second pass, caches warm where legal)",
		Columns: []string{"data location", "hops", "latency", "vs local"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, tc := range []struct {
				name  string
				owner int
			}{
				{"local (ACE, cached)", 0},
				{"same compute node", 1},
				{"same chassis", 4},
				{"across root", 16},
			} {
				pts = append(pts, runner.Point{
					Label: tc.name,
					Run: func(context.Context) (runner.Row, error) {
						tree := topo.NewTree(4, 4, 4)
						eng := sim.NewEngine(1)
						net := noc.NewNetwork(eng, tree, noc.DefaultConfig(tree.MaxHops()), nil, nil)
						space := unimem.NewSpace(net, unimem.DefaultConfig(), nil)
						addr := space.Alloc(tc.owner, 65536)
						// First pass warms the cache (only legal at the owner).
						done := 0
						space.StreamRead(0, addr, 65536, 8, func([]byte) { done++ })
						eng.RunUntilIdle()
						start := eng.Now()
						var lat sim.Time
						space.StreamRead(0, addr, 65536, 8, func([]byte) { lat = eng.Now() - start; done++ })
						eng.RunUntilIdle()
						if done != 2 {
							return runner.Row{}, fmt.Errorf("E5: stream lost")
						}
						return runner.V(e5Result{Name: tc.name, Hops: tree.HopDistance(0, tc.owner), Lat: lat}), nil
					},
				})
			}
			return pts, nil
		},
		Finalize: func(tbl *trace.Table, rows []runner.Row) error {
			local := rows[0].Value.(e5Result).Lat
			for _, r := range rows {
				v := r.Value.(e5Result)
				tbl.AddRow(v.Name, v.Hops, fmt.Sprint(v.Lat),
					fmt.Sprintf("%.1fx", float64(v.Lat)/float64(local)))
			}
			return nil
		},
	}
}
