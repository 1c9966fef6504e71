package experiments

// E6–E9: accelerator-layer experiments (UNILOGIC sharing, the
// virtualization block, bitstream compression, fabric fragmentation).

import (
	"context"
	"fmt"

	"ecoscale"
	"ecoscale/internal/accel"
	"ecoscale/internal/energy"
	"ecoscale/internal/fabric"
	"ecoscale/internal/profile"
	"ecoscale/internal/runner"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
	"ecoscale/internal/unilogic"
)

// mcDir is the Monte-Carlo engine implementation used by E6/E7.
var mcDir = ecoscale.Directives{Unroll: 8, MemPorts: 8, Share: 1, Pipeline: true}

// burst runs nCalls compute-bound pricing calls from Worker 0 against
// nEngines engines under the given policies and returns the makespan
// (excluding deployment).
func burst(policy unilogic.Policy, virtualize bool, workers, nEngines, nCalls, paths int) (sim.Time, float64, error) {
	mk, bal, _, err := burstRun(policy, virtualize, workers, nEngines, nCalls, paths, false)
	return mk, bal, err
}

// burstProfiled is burst with the simulation profiler enabled; it also
// returns the run's critical-path category shares for the table.
func burstProfiled(policy unilogic.Policy, virtualize bool, workers, nEngines, nCalls, paths int) (sim.Time, []runner.NamedShare, error) {
	mk, _, shares, err := burstRun(policy, virtualize, workers, nEngines, nCalls, paths, true)
	return mk, shares, err
}

func burstRun(policy unilogic.Policy, virtualize bool, workers, nEngines, nCalls, paths int, profiled bool) (sim.Time, float64, []runner.NamedShare, error) {
	w, err := ecoscale.KernelByName("montecarlo")
	if err != nil {
		return 0, 0, nil, err
	}
	cfg := ecoscale.DefaultConfig(workers, 1)
	cfg.Sharing = policy
	cfg.Virtualize = virtualize
	cfg.Profile = profiled
	m := ecoscale.New(cfg)
	for h := 0; h < nEngines; h++ {
		if _, err := m.DeployKernel(w.Source, mcDir, h); err != nil {
			return 0, 0, nil, err
		}
	}
	seed := m.Space.Alloc(0, 4096)
	out := m.Space.Alloc(0, 4096)
	start := m.Eng.Now()
	calls := 0
	for b := 0; b < nCalls; b++ {
		m.Domain.Call(0, "montecarlo", accel.CallSpec{
			Bindings: map[string]float64{"N": float64(paths)},
			Reads:    []accel.Span{{Addr: seed, Size: 1024}},
			Writes:   []accel.Span{{Addr: out, Size: 8}},
			Ops:      uint64(paths) * 4,
		}, func(err error) {
			if err == nil {
				calls++
			}
		})
	}
	end := m.Run()
	if calls != nCalls {
		return 0, 0, nil, fmt.Errorf("burst: %d of %d calls completed", calls, nCalls)
	}
	var shares []runner.NamedShare
	if profiled {
		// Critical path over the measured burst only: the deployment
		// phase is excluded from the makespan column, so it is excluded
		// from the share columns too.
		var burstSpans []trace.Span
		for _, s := range m.Tracer.Spans() {
			if s.Start >= int64(start) {
				burstSpans = append(burstSpans, s)
			}
		}
		for _, sh := range profile.CriticalPath(burstSpans).Shares() {
			shares = append(shares, runner.NamedShare{Name: sh.Cat.String(), Frac: sh.Frac})
		}
	}
	return end - start, m.Domain.Balance("montecarlo"), shares, nil
}

// scenE6 compares the UNILOGIC shared pool against private accelerators
// under skewed demand across engine counts.
func scenE6() runner.Scenario {
	return runner.Scenario{
		ID: "E6", Title: "Shared vs private reconfigurable blocks", Source: "§4.1 UNILOGIC",
		Table:   "E6: 32-call burst at one worker, compute-bound 8192-path pricing",
		Columns: []string{"engines", "shared makespan", "private makespan", "UNILOGIC speedup", "shared balance"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, engines := range []int{1, 2, 4, 8} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("engines=%d", engines),
					Run: func(context.Context) (runner.Row, error) {
						shared, bal, err := burst(unilogic.Shared, true, 8, engines, 32, 8192)
						if err != nil {
							return runner.Row{}, err
						}
						private, _, err := burst(unilogic.Private, true, 8, engines, 32, 8192)
						if err != nil {
							return runner.Row{}, err
						}
						return runner.R(engines, fmt.Sprint(shared), fmt.Sprint(private),
							fmt.Sprintf("%.2fx", float64(private)/float64(shared)), fmt.Sprintf("%.2f", bal)), nil
					},
				})
			}
			return pts, nil
		},
	}
}

// scenE7 measures the Virtualization block: many short calls through
// one engine, pipelined versus serialized, across call sizes (the
// shorter the call, the larger the drain fraction the block hides).
func scenE7() runner.Scenario {
	return runner.Scenario{
		ID: "E7", Title: "Fine-grain pipelined sharing", Source: "§4.1 Virtualization block",
		Table:   "E7: 256 calls through one engine — fine-grain pipelined sharing",
		Columns: []string{"paths/call", "serialized", "virtualized", "speedup"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, paths := range []int{16, 64, 256, 1024} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("paths=%d", paths),
					Run: func(context.Context) (runner.Row, error) {
						serial, _, err := burst(unilogic.Shared, false, 2, 1, 256, paths)
						if err != nil {
							return runner.Row{}, err
						}
						pipe, shares, err := burstProfiled(unilogic.Shared, true, 2, 1, 256, paths)
						if err != nil {
							return runner.Row{}, err
						}
						row := runner.R(paths, fmt.Sprint(serial), fmt.Sprint(pipe),
							fmt.Sprintf("%.2fx", float64(serial)/float64(pipe)))
						row.Shares = shares
						return row, nil
					},
				})
			}
			return pts, nil
		},
	}
}

// scenE8 measures configuration-data compression (ref [11]): bitstream
// size, reconfiguration latency and energy, plain vs RLE, across module
// sizes and configuration densities. Each (regions, density) cell
// places its module on a fresh fabric — equivalent to the place/remove
// cycle on a shared one, and independent across points.
func scenE8() runner.Scenario {
	return runner.Scenario{
		ID: "E8", Title: "Bitstream compression", Source: "§4.3, ref [11]",
		Table:   "E8: partial reconfiguration with and without bitstream compression",
		Columns: []string{"regions", "density", "plain bytes", "rle bytes", "plain latency", "rle latency", "energy saved"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, regions := range []int{1, 4, 16} {
				for _, density := range []float64{0.1, 0.25, 0.5} {
					pts = append(pts, runner.Point{
						Label: fmt.Sprintf("regions=%d/density=%.2f", regions, density),
						Run: func(context.Context) (runner.Row, error) {
							eng := sim.NewEngine(1)
							meter := energy.NewMeter(eng, energy.DefaultCostModel())
							fab := fabric.New(eng, fabric.DefaultConfig(), meter)
							per := fab.Config().PerRegion
							mod := fabric.Module{Name: fmt.Sprintf("m%dd%.0f", regions, density*100), Req: per.Scale(regions)}
							p, err := fab.Place(mod)
							if err != nil {
								return runner.Row{}, err
							}
							plainOpt := fabric.LoadOptions{Density: density}
							rleOpt := fabric.LoadOptions{Density: density, Compressed: true}
							plain, rle := fab.WireBytes(p, plainOpt), fab.WireBytes(p, rleOpt)
							saved := energy.Joules(plain-rle) * meter.Model.ReconfigPerByte
							return runner.R(regions, density, plain, rle,
								fmt.Sprint(fab.LoadLatency(p, plainOpt)), fmt.Sprint(fab.LoadLatency(p, rleOpt)), saved.String()), nil
						},
					})
				}
			}
			return pts, nil
		},
	}
}

// scenE9 runs module churn on a fabric and measures placement failure
// rate and largest placeable module, with and without periodic
// defragmentation — the middleware virtualization feature of §4.3.
func scenE9() runner.Scenario {
	return runner.Scenario{
		ID: "E9", Title: "Fragmentation and defragmentation", Source: "§4.3 middleware",
		Table:   "E9: 600 load/unload churn steps on an 8x8 fabric",
		Columns: []string{"defrag", "placement failures", "final utilization", "largest free box", "modules moved"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, defrag := range []bool{false, true} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("defrag=%v", defrag),
					Run: func(context.Context) (runner.Row, error) {
						eng := sim.NewEngine(1)
						fab := fabric.New(eng, fabric.DefaultConfig(), nil)
						per := fab.Config().PerRegion
						rng := sim.NewRNG(42)
						var live []*fabric.Placement
						failures, moved := 0, 0
						for i := 0; i < 600; i++ {
							if len(live) > 0 && rng.Float64() < 0.45 {
								k := rng.Intn(len(live))
								fab.Remove(live[k])
								live = append(live[:k], live[k+1:]...)
								continue
							}
							mod := fabric.Module{Name: fmt.Sprintf("c%d", i), Req: per.Scale(1 + rng.Intn(6))}
							p, err := fab.Place(mod)
							if err != nil {
								if defrag {
									moved += fab.Defragment()
									if p2, err2 := fab.Place(mod); err2 == nil {
										live = append(live, p2)
										continue
									}
								}
								failures++
								continue
							}
							live = append(live, p)
						}
						return runner.R(defrag, failures, fmt.Sprintf("%.0f%%", 100*fab.Utilization()),
							fab.LargestFreeBox(), moved), nil
					},
				})
			}
			return pts, nil
		},
	}
}
