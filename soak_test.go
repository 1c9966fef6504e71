package ecoscale_test

// Soak tests: larger machines running a mixed workload with work
// stealing and model-driven dispatch both active, checking the cross-module conservation invariants
// (no task lost or duplicated, energy monotone, per-kernel results
// still correct). The configurations run as points of a
// runner.Scenario, so concurrent full machines double as the standing
// `go test -race` audit that no package shares mutable state between
// engines.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ecoscale"
	"ecoscale/internal/accel"
	"ecoscale/internal/fault"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
	"ecoscale/internal/runner"
	"ecoscale/internal/sim"
)

// soakRun drives one 32-worker machine under the given balance strategy
// through 600 mixed tasks and verifies every conservation invariant.
// It returns (simulated makespan, hw executions) for determinism checks.
func soakRun(balance rts.BalanceKind) (sim.Time, uint64, error) {
	cfg := ecoscale.DefaultConfig(8, 4) // 32 workers
	cfg.Balance = balance
	cfg.CompressedBitstreams = true
	m := ecoscale.New(cfg)

	// Deploy three kernels on scattered workers; montecarlo has no
	// hardware instance, so its tasks always run in software.
	kernels := []string{"vecadd", "reduce", "cartsplit"}
	dirs := ecoscale.Directives{Unroll: 8, MemPorts: 8, Share: 1, Pipeline: true}
	for i, name := range kernels {
		w, err := ecoscale.KernelByName(name)
		if err != nil {
			return 0, 0, err
		}
		if _, err := m.DeployKernel(w.Source, dirs, i*8); err != nil {
			return 0, 0, err
		}
	}
	m.SetPolicy(rts.PolicyModel{})

	rng := sim.NewRNG(7)
	buf := m.Space.Alloc(0, 1<<20)
	out := m.Space.Alloc(0, 4096)
	names := append(kernels, "montecarlo")

	const total = 600
	completed := 0
	var failures []error
	for i := 0; i < total; i++ {
		name := names[rng.Intn(len(names))]
		w, _ := ecoscale.KernelByName(name)
		n := 64 << rng.Intn(6) // 64..2048
		args, bindings := w.Make(n, rng)
		stats, err := hls.Run(w.Kernel(), args)
		if err != nil {
			return 0, 0, err
		}
		target := rng.Intn(m.Workers())
		m.Cluster.Submit(target, &rts.Task{
			Kernel:   name,
			Bindings: bindings,
			Reads:    []accel.Span{{Addr: buf, Size: n * 8}},
			Writes:   []accel.Span{{Addr: out, Size: 64}},
			SWStats:  stats,
		}, func(_ rts.Device, err error) {
			completed++
			if err != nil {
				failures = append(failures, err)
			}
		})
	}
	end := m.Run()

	if completed != total {
		return 0, 0, fmt.Errorf("completed %d of %d tasks", completed, total)
	}
	if len(failures) > 0 {
		return 0, 0, fmt.Errorf("%d task failures, first: %v", len(failures), failures[0])
	}
	var cpu, hw uint64
	m.EachSched(func(s *rts.Scheduler) {
		cpu += s.Executed(rts.DeviceCPU)
		hw += s.Executed(rts.DeviceHW)
	})
	if cpu+hw != total {
		return 0, 0, fmt.Errorf("executed %d+%d != %d", cpu, hw, total)
	}
	if hw == 0 {
		return 0, 0, fmt.Errorf("model policy never used hardware in the soak")
	}
	domTotal, _ := m.Domain.Calls()
	if domTotal != hw {
		return 0, 0, fmt.Errorf("domain calls %d != hw executions %d", domTotal, hw)
	}
	if e := m.Meter.Total(); e <= 0 || math.IsNaN(float64(e)) {
		return 0, 0, fmt.Errorf("energy total = %v", e)
	}
	if m.Eng.Pending() != 0 {
		return 0, 0, fmt.Errorf("%d events still pending after drain", m.Eng.Pending())
	}
	return end, hw, nil
}

func TestSoakMixedWorkloadLargeMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// Two full machines under different balance strategies run
	// concurrently through the runner's pool.
	s := runner.Scenario{
		ID: "soak", Table: "soak: 32-worker mixed workload", Columns: []string{"balance", "makespan", "hw"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for _, balance := range []rts.BalanceKind{ecoscale.Lazy, ecoscale.Polling} {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("balance=%v", balance),
					Run: func(context.Context) (runner.Row, error) {
						end, hw, err := soakRun(balance)
						if err != nil {
							return runner.Row{}, err
						}
						return runner.R(fmt.Sprint(balance), fmt.Sprint(end), hw), nil
					},
				})
			}
			return pts, nil
		},
	}
	tbl, err := runner.Run(context.Background(), s, runner.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
}

// TestSoakDeterminism: the identical soak twice — the two runs execute
// concurrently as points of one scenario — must produce identical
// simulated end times and execution splits, the reproducibility pillar.
func TestSoakDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64, error) {
		cfg := ecoscale.DefaultConfig(4, 2)
		m := ecoscale.New(cfg)
		w, _ := ecoscale.KernelByName("reduce")
		if _, err := m.DeployKernel(w.Source,
			ecoscale.Directives{Unroll: 8, MemPorts: 8, Share: 1, Pipeline: true}, 0); err != nil {
			return 0, 0, err
		}
		m.SetPolicy(rts.PolicyModel{})
		rng := sim.NewRNG(3)
		buf := m.Space.Alloc(0, 65536)
		for i := 0; i < 120; i++ {
			n := 64 << rng.Intn(5)
			args, bindings := w.Make(n, rng)
			stats, err := hls.Run(w.Kernel(), args)
			if err != nil {
				return 0, 0, err
			}
			m.Cluster.Submit(rng.Intn(m.Workers()), &rts.Task{
				Kernel: "reduce", Bindings: bindings,
				Reads:   []accel.Span{{Addr: buf, Size: n * 8}},
				SWStats: stats,
			}, nil)
		}
		end := m.Run()
		var hw uint64
		m.EachSched(func(s *rts.Scheduler) {
			hw += s.Executed(rts.DeviceHW)
		})
		return end, hw, nil
	}
	s := runner.Scenario{
		ID: "soak-det", Table: "soak determinism", Columns: []string{"end", "hw"},
		Points: func() ([]runner.Point, error) {
			var pts []runner.Point
			for i := 0; i < 2; i++ {
				pts = append(pts, runner.Point{
					Label: fmt.Sprintf("run%d", i+1),
					Run: func(context.Context) (runner.Row, error) {
						end, hw, err := run()
						if err != nil {
							return runner.Row{}, err
						}
						return runner.R(fmt.Sprint(end), hw), nil
					},
				})
			}
			return pts, nil
		},
	}
	tbl, err := runner.Run(context.Background(), s, runner.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := tbl.Rows[0], tbl.Rows[1]
	if r1[0] != r2[0] || r1[1] != r2[1] {
		t.Errorf("non-deterministic: (%s,%s) vs (%s,%s)", r1[0], r1[1], r2[0], r2[1])
	}
}

// soakFaultStorm drives a 16-worker machine through a mixed workload
// under an aggressive fault plan — stochastic Worker deaths, fabric
// region failures, link flaps and periodic checkpointing all at once —
// and verifies the conservation invariants still hold: every task
// completes exactly once with no errors, the executed split sums to the
// total, and the engine drains clean.
func soakFaultStorm() (sim.Time, uint64, error) {
	cfg := ecoscale.DefaultConfig(8, 2) // 16 workers
	cfg.CompressedBitstreams = true
	m := ecoscale.New(cfg)

	kernels := []string{"vecadd", "reduce"}
	dirs := ecoscale.Directives{Unroll: 8, MemPorts: 8, Share: 1, Pipeline: true}
	for i, name := range kernels {
		w, err := ecoscale.KernelByName(name)
		if err != nil {
			return 0, 0, err
		}
		if _, err := m.DeployKernel(w.Source, dirs, i*8); err != nil {
			return 0, 0, err
		}
	}
	m.SetPolicy(rts.PolicyModel{})

	rng := sim.NewRNG(13)
	buf := m.Space.Alloc(0, 1<<20)
	const total = 300
	completed := 0
	var failures []error
	for i := 0; i < total; i++ {
		name := kernels[rng.Intn(len(kernels))]
		w, _ := ecoscale.KernelByName(name)
		n := 64 << rng.Intn(5)
		args, bindings := w.Make(n, rng)
		stats, err := hls.Run(w.Kernel(), args)
		if err != nil {
			return 0, 0, err
		}
		m.Cluster.Submit(rng.Intn(m.Workers()), &rts.Task{
			Kernel:   name,
			Bindings: bindings,
			Reads:    []accel.Span{{Addr: buf, Size: n * 8}},
			SWStats:  stats,
		}, func(_ rts.Device, err error) {
			completed++
			if err != nil {
				failures = append(failures, err)
			}
		})
	}
	m.InjectFaults(&fault.Plan{
		Seed: 4, Horizon: 5 * sim.Millisecond,
		WorkerMTBF: 200 * sim.Microsecond, MaxKills: 5,
		RegionMTBF: 100 * sim.Microsecond, MaxRegionFails: 8,
		LinkMTBF: 150 * sim.Microsecond, MaxFlaps: 6,
		Checkpoint: fault.CheckpointConfig{Interval: 100 * sim.Microsecond},
	})
	end := m.Run()

	if completed != total {
		return 0, 0, fmt.Errorf("completed %d of %d tasks", completed, total)
	}
	if len(failures) > 0 {
		return 0, 0, fmt.Errorf("%d task failures, first: %v", len(failures), failures[0])
	}
	var cpu, hw uint64
	m.EachSched(func(s *rts.Scheduler) {
		cpu += s.Executed(rts.DeviceCPU)
		hw += s.Executed(rts.DeviceHW)
	})
	if cpu+hw != total {
		return 0, 0, fmt.Errorf("executed %d+%d != %d", cpu, hw, total)
	}
	// Retried hardware calls mean domain calls can exceed hw executions,
	// but never the reverse.
	domTotal, _ := m.Domain.Calls()
	if domTotal < hw {
		return 0, 0, fmt.Errorf("domain calls %d < hw executions %d", domTotal, hw)
	}
	if m.DeadWorkers() == 0 {
		return 0, 0, fmt.Errorf("aggressive fault plan killed nobody")
	}
	if e := m.Meter.Total(); e <= 0 || math.IsNaN(float64(e)) {
		return 0, 0, fmt.Errorf("energy total = %v", e)
	}
	if m.Eng.Pending() != 0 {
		return 0, 0, fmt.Errorf("%d events still pending after drain", m.Eng.Pending())
	}
	return end, hw, nil
}

// TestSoakFaultStorm runs two machines concurrently — one healthy
// control, one under the fault storm — as points of one scenario, so
// `go test -race` audits the whole recovery machinery (evacuation,
// requeue, reroute, checkpointing, re-floorplanning) for shared state
// between engines. The storm runs twice at the end to pin determinism:
// same seed, same makespan, same execution split.
func TestSoakFaultStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	type result struct {
		end sim.Time
		hw  uint64
	}
	results := map[string]result{}
	s := runner.Scenario{
		ID: "soak-faults", Table: "soak: fault storm vs control", Columns: []string{"machine", "makespan", "hw"},
		Points: func() ([]runner.Point, error) {
			pts := []runner.Point{{
				Label: "control",
				Run: func(context.Context) (runner.Row, error) {
					end, hw, err := soakRun(ecoscale.Lazy)
					if err != nil {
						return runner.Row{}, err
					}
					return runner.R("control", fmt.Sprint(end), hw), nil
				},
			}}
			for i := 0; i < 2; i++ {
				name := fmt.Sprintf("storm%d", i+1)
				pts = append(pts, runner.Point{
					Label: name,
					Run: func(context.Context) (runner.Row, error) {
						end, hw, err := soakFaultStorm()
						if err != nil {
							return runner.Row{}, err
						}
						results[name] = result{end, hw}
						return runner.R(name, fmt.Sprint(end), hw), nil
					},
				})
			}
			return pts, nil
		},
	}
	tbl, err := runner.Run(context.Background(), s, runner.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	if results["storm1"] != results["storm2"] {
		t.Errorf("fault storm not deterministic: %+v vs %+v", results["storm1"], results["storm2"])
	}
}
