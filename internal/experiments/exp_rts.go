package experiments

// E10–E13: runtime-system experiments (dispatch policies, lazy
// scheduling, accelerator chaining, exascale power extrapolation).

import (
	"context"
	"fmt"

	"ecoscale"
	"ecoscale/internal/accel"
	"ecoscale/internal/energy"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
	"ecoscale/internal/runner"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// e10Result carries one policy's raw measurement; the "vs always-sw"
// column is derived against the first (always-sw) point in Finalize.
type e10Result struct {
	Policy  string
	End     sim.Time
	CPU, HW uint64
}

// e10Ref is one call's software reference: the scalar bindings its
// task carries and the op counts of running it in software. Points only
// read it.
type e10Ref struct {
	bindings map[string]float64
	stats    hls.RunStats
}

// scenE10 compares the dispatch policies of §4.2 on a mixed-size
// CART-split stream: static CPU, static HW, the history-trained model,
// and the perfect-knowledge oracle.
func scenE10() runner.Scenario {
	sizes := []int{64, 32768, 128, 65536, 96, 49152, 64, 32768, 128, 65536,
		96, 49152, 64, 65536, 128, 32768, 96, 65536, 64, 49152}
	return runner.Scenario{
		ID: "E10", Title: "Model-driven SW/HW dispatch", Source: "§4.2 runtime models",
		Table:   "E10: 20-call mixed-size CART split stream",
		Columns: []string{"policy", "makespan", "cpu calls", "hw calls", "vs always-sw"},
		Points: func() ([]runner.Point, error) {
			w, err := ecoscale.KernelByName("cartsplit")
			if err != nil {
				return nil, err
			}
			// Every policy sees the same 20 calls, so their software
			// reference runs are computed once and shared read-only.
			// Their inputs are drawn in size order from one RNG, and the
			// points waiting for them run the references together.
			rng := sim.NewRNG(11)
			type input struct {
				args     []hls.Value
				bindings map[string]float64
			}
			refs := runner.Shared(len(sizes),
				func(i int) (input, error) {
					args, bindings := w.Make(sizes[i], rng)
					return input{args, bindings}, nil
				},
				func(i int, in input) (e10Ref, error) {
					stats, err := hls.Run(w.Kernel(), in.args)
					if err != nil {
						return e10Ref{}, fmt.Errorf("E10: size %d: %w", sizes[i], err)
					}
					return e10Ref{bindings: in.bindings, stats: stats}, nil
				})
			var pts []runner.Point
			for _, policy := range []rts.Policy{rts.PolicyCPU{}, rts.PolicyHW{}, rts.PolicyModel{}, rts.PolicyOracle{}} {
				pts = append(pts, runner.Point{
					Label: policy.Name(),
					Run: func(context.Context) (runner.Row, error) {
						refs, err := refs()
						if err != nil {
							return runner.Row{}, err
						}
						m := ecoscale.New(ecoscale.DefaultConfig(4, 1))
						if _, err := m.DeployKernel(w.Source,
							ecoscale.Directives{Unroll: 16, MemPorts: 16, Share: 1, Pipeline: true}, 0); err != nil {
							return runner.Row{}, err
						}
						s := m.Sched(0)
						s.Policy = policy
						x := m.Space.Alloc(0, 65536*8)
						y := m.Space.Alloc(0, 65536*8)
						out := m.Space.Alloc(0, 4096)
						start := m.Eng.Now()
						idx := 0
						var submit func()
						submit = func() {
							if idx == len(sizes) {
								return
							}
							n, ref := sizes[idx], refs[idx]
							idx++
							s.Submit(&rts.Task{
								Kernel: "cartsplit", Bindings: ref.bindings,
								Reads:   []accel.Span{{Addr: x, Size: n * 8}, {Addr: y, Size: n * 8}},
								Writes:  []accel.Span{{Addr: out, Size: 24}},
								SWStats: ref.stats,
							}, func(rts.Device, error) { submit() })
						}
						submit()
						end := m.Run() - start
						if s.Executed(rts.DeviceCPU)+s.Executed(rts.DeviceHW) != uint64(len(sizes)) {
							return runner.Row{}, fmt.Errorf("E10: tasks lost under %s", policy.Name())
						}
						return runner.V(e10Result{Policy: policy.Name(), End: end,
							CPU: s.Executed(rts.DeviceCPU), HW: s.Executed(rts.DeviceHW)}), nil
					},
				})
			}
			return pts, nil
		},
		Finalize: func(tbl *trace.Table, rows []runner.Row) error {
			baseline := rows[0].Value.(e10Result).End
			for _, r := range rows {
				v := r.Value.(e10Result)
				tbl.AddRow(v.Policy, fmt.Sprint(v.End), v.CPU, v.HW,
					fmt.Sprintf("%.2fx", float64(baseline)/float64(v.End)))
			}
			return nil
		},
	}
}

// scenE11 compares full status polling against Lazy-Scheduling-style
// single probes: monitoring messages per successful steal and makespan
// under an imbalanced task arrival.
func scenE11() runner.Scenario {
	return runner.Scenario{
		ID: "E11", Title: "Lazy vs polling load balance", Source: "§4.2, ref [9]",
		Table:   "E11: imbalanced burst (all tasks at worker 0), work stealing strategies",
		Columns: []string{"workers", "strategy", "makespan", "steals", "monitor msgs", "msgs/steal"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, workers := range []int{4, 16, 64} {
				for _, kind := range []rts.BalanceKind{rts.NoBalance, rts.Polling, rts.Lazy} {
					pts = append(pts, runner.Point{
						Label: fmt.Sprintf("workers=%d/%s", workers, kind),
						Run: func(context.Context) (runner.Row, error) {
							cfg := ecoscale.DefaultConfig(workers, 1)
							cfg.Balance = kind
							m := ecoscale.New(cfg)
							// Every worker participates in stealing here, so
							// materialize all of them to pin Cores down.
							for w := 0; w < m.Workers(); w++ {
								s := m.Sched(w)
								s.Policy = rts.PolicyCPU{}
								s.Cores = 1
							}
							// Seed all workers so completions trigger idle probes, then
							// the burst lands on worker 0.
							mkTask := func(ops uint64) *rts.Task {
								return &rts.Task{Kernel: "t", Bindings: map[string]float64{},
									SWStats: hls.RunStats{Ops: ops, Loads: ops / 4, Stores: ops / 8}}
							}
							done := 0
							for w := 1; w < workers; w++ {
								m.Cluster.Submit(w, mkTask(100), func(rts.Device, error) { done++ })
							}
							total := 8 * workers
							for i := 0; i < total; i++ {
								m.Cluster.Submit(0, mkTask(20000), func(rts.Device, error) { done++ })
							}
							end := m.Run()
							if done != total+workers-1 {
								return runner.Row{}, fmt.Errorf("E11: %d of %d tasks done", done, total+workers-1)
							}
							perSteal := "-"
							if m.Cluster.Steals > 0 {
								perSteal = fmt.Sprintf("%.1f", float64(m.Cluster.StealMsgs)/float64(m.Cluster.Steals))
							}
							return runner.R(workers, kind.String(), fmt.Sprint(end),
								m.Cluster.Steals, m.Cluster.StealMsgs, perSteal), nil
						},
					})
				}
			}
			return pts, nil
		},
	}
}

// scenE12 compares a chained accelerator pipeline with store-and-forward
// invocations of the same stages (§4.3: chaining "will substantially
// increase the amount of processing that is carried out per unit of
// transferred data").
func scenE12() runner.Scenario {
	return runner.Scenario{
		ID: "E12", Title: "Accelerator chaining", Source: "§4.3 'processing pipelines'",
		Table:   "E12: k-stage pipeline over a 64 KiB buffer — chained vs store-and-forward",
		Columns: []string{"stages", "separate calls", "chained", "speedup", "bytes moved separate", "bytes moved chained"},
		Points: func() ([]runner.Point, error) {
			w, err := ecoscale.KernelByName("vecadd")
			if err != nil {
				return nil, err
			}
			var pts []runner.Point
			for _, stages := range []int{2, 3, 5} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("stages=%d", stages),
					Run: func(context.Context) (runner.Row, error) {
						sep, sepBytes, err := chainRun(w, stages, false)
						if err != nil {
							return runner.Row{}, err
						}
						chained, chBytes, err := chainRun(w, stages, true)
						if err != nil {
							return runner.Row{}, err
						}
						return runner.R(stages, fmt.Sprint(sep), fmt.Sprint(chained),
							fmt.Sprintf("%.2fx", float64(sep)/float64(chained)), sepBytes, chBytes), nil
					},
				})
			}
			return pts, nil
		},
	}
}

func chainRun(w ecoscale.Workload, stages int, chained bool) (sim.Time, uint64, error) {
	m := ecoscale.New(ecoscale.DefaultConfig(2, 1))
	var insts []*accel.Instance
	for s := 0; s < stages; s++ {
		src := fmt.Sprintf(`
kernel stage%d(global float* A, int N) {
    for (i = 0; i < N; i++) {
        A[i] = A[i] * 1.5 + %d.0;
    }
}`, s, s)
		// All stages live on Worker 1's fabric; the data lives in
		// Worker 0's DRAM, so every buffer stream crosses the
		// interconnect — the data movement chaining eliminates.
		in, err := m.DeployKernel(src, w.DefaultDir, 1)
		if err != nil {
			return 0, 0, err
		}
		insts = append(insts, in)
	}
	const size = 65536
	addr := m.Space.Alloc(0, size)
	bind := map[string]float64{"N": float64(size / 8)}
	start := m.Eng.Now()
	bytesBefore := m.Reg.Counter("noc.bytes").Value
	drams := m.Space.DRAM(0).Bytes()
	if chained {
		done := false
		accel.Chain(0, insts, accel.Span{Addr: addr, Size: size}, bind, func(error) { done = true })
		m.Run()
		if !done {
			return 0, 0, fmt.Errorf("chain never completed")
		}
	} else {
		idx := 0
		var step func()
		step = func() {
			if idx == stages {
				return
			}
			in := insts[idx]
			idx++
			in.Invoke(0, accel.CallSpec{
				Bindings: bind,
				Reads:    []accel.Span{{Addr: addr, Size: size}},
				Writes:   []accel.Span{{Addr: addr, Size: size}},
			}, func(error) { step() })
		}
		step()
		m.Run()
	}
	moved := m.Reg.Counter("noc.bytes").Value - bytesBefore + (m.Space.DRAM(0).Bytes() - drams)
	return m.Eng.Now() - start, moved, nil
}

// scenE13 reproduces the §1 power argument: extrapolating measured
// 2015-era efficiency to an exaflop, and what the energy model says an
// ECOSCALE-style CPU+FPGA node changes.
func scenE13() runner.Scenario {
	gfw := func(s energy.ScalingModel) float64 {
		return s.FlopsPerNode / 1e9 / (float64(s.EnergyPerFlop)*s.FlopsPerNode + float64(s.StaticPerNodeW))
	}
	// CPU-only node: every flop costs a CPU op plus its share of cache
	// and DRAM traffic (1 cache access per 4 flops, 1 DRAM line per 32).
	cpuNode := func(cost energy.CostModel) energy.ScalingModel {
		return energy.ScalingModel{
			EnergyPerFlop:  cost.CPUOp + cost.CacheAccess/4 + cost.DRAMAccess/32,
			StaticPerNodeW: cost.CPUStatic*4 + cost.DRAMStatic,
			FlopsPerNode:   4 * 8e9, // 4 cores x 8 GF
		}
	}
	// ECOSCALE node: datapath flops at FPGA energy, same memory share,
	// plus the fabric's static power; sustained rate from pipelined
	// datapaths.
	ecoNode := func(cost energy.CostModel) energy.ScalingModel {
		return energy.ScalingModel{
			EnergyPerFlop:  cost.FPGAOp + cost.CacheAccess/4 + cost.DRAMAccess/32,
			StaticPerNodeW: cost.CPUStatic*1 + cost.FPGAStatic + cost.DRAMStatic,
			FlopsPerNode:   64e9, // 64 GF of pipelined datapath
		}
	}
	measured := func(dp energy.MachinePoint) runner.Point {
		return runner.Point{
			Label: dp.Name,
			Run: func(context.Context) (runner.Row, error) {
				return runner.R(dp.Name, fmt.Sprintf("%.2f", dp.GFlopsPerWatt()),
					fmt.Sprintf("%.0f", energy.ExtrapolateToExaflop(dp))), nil
			},
		}
	}
	modelled := func(name string, build func(energy.CostModel) energy.ScalingModel) runner.Point {
		return runner.Point{
			Label: name,
			Run: func(context.Context) (runner.Row, error) {
				node := build(energy.DefaultCostModel())
				return runner.R(name, fmt.Sprintf("%.2f", gfw(node)),
					fmt.Sprintf("%.0f", node.ExaflopPowerMW())), nil
			},
		}
	}
	return runner.Scenario{
		ID: "E13", Title: "Exascale power extrapolation", Source: "§1 '1GW'",
		Table:   "E13: exaflop power extrapolation",
		Columns: []string{"design point", "GF/W", "exaflop power (MW)"},
		Points: func() ([]runner.Point, error) {
			return []runner.Point{
				measured(energy.Tianhe2),
				measured(energy.Green500Top2015),
				modelled("CPU-only worker (model)", cpuNode),
				modelled("ECOSCALE CPU+FPGA worker (model)", ecoNode),
			}, nil
		},
	}
}
