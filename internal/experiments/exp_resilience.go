package experiments

// R1–R4: resilience experiments. The E-suite measures what ECOSCALE
// gains when everything works; the R-series measures what it keeps
// when Workers die, fabric regions fail and links flap — the
// "decreased reliability" axiom an exascale runtime must absorb.
// Every point builds its own machine and arms a seeded fault.Plan, so
// the tables are byte-identical at every -parallel setting.

import (
	"context"
	"fmt"

	"ecoscale"
	"ecoscale/internal/accel"
	"ecoscale/internal/fault"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
	"ecoscale/internal/runner"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// rTask returns a CPU-bound task of ~55us software time — long enough
// that faults land while work is queued and in flight.
func rTask() *rts.Task {
	return &rts.Task{
		Kernel:   "rwork",
		Bindings: map[string]float64{"N": 1024},
		SWStats:  hls.RunStats{Ops: 50000, Flops: 25000, Loads: 10000, Stores: 10000},
	}
}

// r1Result carries one fault rate's raw measurement; slowdown is
// derived against the fault-free first row in Finalize.
type r1Result struct {
	MTBF  string
	Kills int
	Moved uint64
	End   sim.Time
}

// scenR1 sweeps the Worker death rate and measures makespan
// degradation: every task still completes (evacuation + reroute), the
// cost is the recompute and migration time.
func scenR1() runner.Scenario {
	mtbfs := []sim.Time{0, 400 * sim.Microsecond, 200 * sim.Microsecond,
		100 * sim.Microsecond, 50 * sim.Microsecond}
	total := 480
	if Quick {
		mtbfs = []sim.Time{0, 100 * sim.Microsecond}
		total = 160
	}
	return runner.Scenario{
		ID: "R1", Title: "Makespan vs Worker fault rate", Source: "resilience axis",
		Table:   fmt.Sprintf("R1: %d-task stream on 16 Workers, Worker deaths at decreasing MTBF", total),
		Columns: []string{"worker MTBF", "kills", "tasks moved", "makespan", "vs fault-free"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, mtbf := range mtbfs {
				mtbf := mtbf
				label := "none"
				if mtbf > 0 {
					label = fmt.Sprint(mtbf)
				}
				pts = append(pts, runner.Point{
					Label: "mtbf=" + label,
					Run: func(context.Context) (runner.Row, error) {
						m := ecoscale.New(ecoscale.DefaultConfig(4, 4))
						completed := 0
						var lastDone sim.Time
						for i := 0; i < total; i++ {
							m.Cluster.Submit(i%m.Workers(), rTask(), func(_ rts.Device, err error) {
								if err == nil {
									completed++
									lastDone = m.Eng.Now()
								}
							})
						}
						if mtbf > 0 {
							// Horizon covers the fault-free makespan (~410us), so
							// every scheduled death lands while work is in flight.
							m.InjectFaults(&fault.Plan{
								Seed: 7, Horizon: 600 * sim.Microsecond,
								WorkerMTBF: mtbf, MaxKills: m.Workers() - 4,
							})
						}
						m.Run()
						if completed != total {
							return runner.Row{}, fmt.Errorf("R1: completed %d of %d tasks", completed, total)
						}
						moved := m.Reg.CounterTotal("fault.tasks_evacuated") +
							m.Reg.CounterTotal("fault.tasks_rerouted") +
							m.Reg.CounterTotal("fault.tasks_requeued")
						return runner.V(r1Result{MTBF: label, Kills: m.DeadWorkers(),
							Moved: moved, End: lastDone}), nil
					},
				})
			}
			return pts, nil
		},
		Finalize: func(tbl *trace.Table, rows []runner.Row) error {
			baseline := rows[0].Value.(r1Result).End
			for _, r := range rows {
				v := r.Value.(r1Result)
				tbl.AddRow(v.MTBF, v.Kills, v.Moved, fmt.Sprint(v.End),
					fmt.Sprintf("%.2fx", float64(v.End)/float64(baseline)))
			}
			return nil
		},
	}
}

// r2Result carries one checkpoint interval's measurement.
type r2Result struct {
	Interval    string
	Checkpoints uint64
	Restores    uint64
	End         sim.Time
}

// scenR2 sweeps the checkpoint interval under a fixed pair of Worker
// deaths: no checkpointing pays full recompute-from-start on each
// death, too-frequent checkpointing pays the pause/transfer overhead
// every round — the interval trades one against the other.
func scenR2() runner.Scenario {
	intervals := []sim.Time{0, 50 * sim.Microsecond, 100 * sim.Microsecond,
		250 * sim.Microsecond, 500 * sim.Microsecond, sim.Millisecond}
	// Quick trims the sweep, not the stream — the kills are pinned at
	// absolute times and must land while work is still in flight.
	total := 384
	if Quick {
		intervals = []sim.Time{0, 250 * sim.Microsecond}
	}
	// Deaths land late in the stream: without checkpointing the restart
	// penalty recomputes from t=0, so the later the death the more a
	// snapshot is worth.
	kills := []fault.Event{
		{At: 300 * sim.Microsecond, Kind: fault.KillWorker, Worker: 2},
		{At: 550 * sim.Microsecond, Kind: fault.KillWorker, Worker: 5},
	}
	return runner.Scenario{
		ID: "R2", Title: "Checkpoint interval trade-off", Source: "resilience axis",
		Table:   fmt.Sprintf("R2: %d-task stream on 8 Workers, 2 deaths, checkpoint interval sweep", total),
		Columns: []string{"interval", "checkpoints", "restores", "makespan", "vs no-ckpt"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, iv := range intervals {
				iv := iv
				label := "off"
				if iv > 0 {
					label = fmt.Sprint(iv)
				}
				pts = append(pts, runner.Point{
					Label: "interval=" + label,
					Run: func(context.Context) (runner.Row, error) {
						m := ecoscale.New(ecoscale.DefaultConfig(4, 2))
						completed := 0
						var lastDone sim.Time
						for i := 0; i < total; i++ {
							m.Cluster.Submit(i%m.Workers(), rTask(), func(_ rts.Device, err error) {
								if err == nil {
									completed++
									lastDone = m.Eng.Now()
								}
							})
						}
						m.InjectFaults(&fault.Plan{
							Events: kills,
							Checkpoint: fault.CheckpointConfig{
								Interval: iv, Bytes: 256 << 10, RecomputeFraction: 1.0,
							},
						})
						m.Run()
						if completed != total {
							return runner.Row{}, fmt.Errorf("R2: completed %d of %d tasks", completed, total)
						}
						return runner.V(r2Result{Interval: label,
							Checkpoints: m.Reg.CounterTotal("fault.checkpoints"),
							Restores:    m.Reg.CounterTotal("fault.restores"),
							End:         lastDone}), nil
					},
				})
			}
			return pts, nil
		},
		Finalize: func(tbl *trace.Table, rows []runner.Row) error {
			baseline := rows[0].Value.(r2Result).End
			for _, r := range rows {
				v := r.Value.(r2Result)
				tbl.AddRow(v.Interval, v.Checkpoints, v.Restores, fmt.Sprint(v.End),
					fmt.Sprintf("%.2fx", float64(v.End)/float64(baseline)))
			}
			return nil
		},
	}
}

// scenR3 kills one Worker at increasing queue depth and measures the
// evacuation itself: how long the recovery span takes and how much
// task and UNIMEM-page state moves to the buddy. Work stealing is off
// so the victim's queue cannot drain before the kill lands.
func scenR3() runner.Scenario {
	depths := []int{4, 16, 64, 256}
	if Quick {
		depths = []int{4, 64}
	}
	return runner.Scenario{
		ID: "R3", Title: "Evacuation latency vs queue depth", Source: "resilience axis",
		Table:   "R3: one Worker killed at t=30us holding 16 UNIMEM pages, queue depth sweep (no stealing)",
		Columns: []string{"queue depth", "tasks evacuated", "pages", "bytes", "evac latency (us)"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, depth := range depths {
				depth := depth
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("depth=%d", depth),
					Run: func(context.Context) (runner.Row, error) {
						cfg := ecoscale.DefaultConfig(4, 2)
						cfg.Balance = rts.NoBalance
						m := ecoscale.New(cfg)
						m.Space.Alloc(1, 64<<10) // 16 pages owned by the victim
						total := depth + 2*(m.Workers()-1)
						completed := 0
						for w := 0; w < m.Workers(); w++ {
							if w == 1 {
								continue
							}
							for i := 0; i < 2; i++ {
								m.Cluster.Submit(w, rTask(), func(_ rts.Device, err error) {
									if err == nil {
										completed++
									}
								})
							}
						}
						for i := 0; i < depth; i++ {
							m.Cluster.Submit(1, rTask(), func(_ rts.Device, err error) {
								if err == nil {
									completed++
								}
							})
						}
						m.InjectFaults(&fault.Plan{
							Events: []fault.Event{{At: 30 * sim.Microsecond, Kind: fault.KillWorker, Worker: 1}},
						})
						m.Run()
						if completed != total {
							return runner.Row{}, fmt.Errorf("R3: completed %d of %d tasks", completed, total)
						}
						h := m.Reg.FindHistogram("lat.evac_us")
						if h == nil || h.Count() == 0 {
							return runner.Row{}, fmt.Errorf("R3: no evacuation latency recorded")
						}
						return runner.R(depth,
							m.Reg.CounterTotal("fault.tasks_evacuated"),
							m.Reg.CounterTotal("fault.pages_evacuated"),
							m.Reg.CounterTotal("fault.bytes_evacuated"),
							fmt.Sprintf("%.1f", h.Max())), nil
					},
				})
			}
			return pts, nil
		},
	}
}

// scenR4 fails k regions of a loaded fabric and reads the wreckage:
// modules lost and recovered (redeploy after defragmentation vs
// software fallback), the residual free-box fragmentation, and what
// the failures cost the task stream.
func scenR4() runner.Scenario {
	ks := []int{1, 2, 4, 6}
	total := 48
	if Quick {
		ks = []int{2}
	}
	const nmods = 6
	return runner.Scenario{
		ID: "R4", Title: "Post-failure fabric fragmentation", Source: "resilience axis",
		Table:   fmt.Sprintf("R4: %d modules loaded, k random region failures, defragment + re-place", nmods),
		Columns: []string{"regions failed", "modules lost", "redeployed", "sw fallbacks", "largest free box", "makespan"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, k := range ks {
				k := k
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("k=%d", k),
					Run: func(context.Context) (runner.Row, error) {
						m := ecoscale.New(ecoscale.DefaultConfig(2, 1))
						m.SetPolicy(rts.PolicyHW{})
						dirs := ecoscale.Directives{Unroll: 8, MemPorts: 8, Share: 1, Pipeline: true}
						names := make([]string, nmods)
						insts := make([]*accel.Instance, nmods)
						for s := 0; s < nmods; s++ {
							names[s] = fmt.Sprintf("rstage%d", s)
							src := fmt.Sprintf(`
kernel rstage%d(global float* A, int N) {
    for (i = 0; i < N; i++) {
        A[i] = A[i] * 1.5 + %d.0;
    }
}`, s, s)
							in, err := m.DeployKernel(src, dirs, 0)
							if err != nil {
								return runner.Row{}, err
							}
							insts[s] = in
						}
						buf := m.Space.Alloc(0, 8192)
						completed := 0
						var lastDone sim.Time
						for i := 0; i < total; i++ {
							m.Cluster.Submit(i%m.Workers(), &rts.Task{
								Kernel:   names[i%nmods],
								Bindings: map[string]float64{"N": 1024},
								Reads:    []accel.Span{{Addr: buf, Size: 8192}},
								SWStats:  hls.RunStats{Ops: 20000, Flops: 10000, Loads: 4000, Stores: 4000},
							}, func(_ rts.Device, err error) {
								if err == nil {
									completed++
									lastDone = m.Eng.Now()
								}
							})
						}
						// Each failure targets the region anchoring one loaded
						// module, captured at deploy time — so every event hits
						// live logic unless an earlier redeploy already moved it
						// (which is exactly the behaviour under test).
						events := make([]fault.Event, k)
						for i := range events {
							events[i] = fault.Event{
								At: sim.Time(40+20*i) * sim.Microsecond, Kind: fault.FailRegion,
								Worker: 0, Row: insts[i].Placement.Row, Col: insts[i].Placement.Col,
							}
						}
						m.InjectFaults(&fault.Plan{Seed: int64(100 + k), Events: events})
						m.Run()
						if completed != total {
							return runner.Row{}, fmt.Errorf("R4: completed %d of %d tasks", completed, total)
						}
						fab := m.Manager(0).Fab
						return runner.R(fab.FailedRegions(),
							m.Reg.CounterTotal("fault.modules_lost"),
							m.Reg.CounterTotal("fault.modules_redeployed"),
							m.Reg.CounterTotal("fault.sw_fallbacks"),
							fab.LargestFreeBox(),
							fmt.Sprint(lastDone)), nil
					},
				})
			}
			return pts, nil
		},
	}
}
