// Command ecosim builds an ECOSCALE machine and runs a workload stream
// on it, printing the machine report — the quickest way to poke at the
// architecture's knobs (tree shape, sharing policy, balancing strategy,
// dispatch policy, virtualization, bitstream compression).
//
// Usage:
//
//	ecosim -workers 8 -nodes 4 -kernel matmul -tasks 64 -policy model
//	ecosim -kernel montecarlo -tasks 200 -n 8192 -sharing private
//	ecosim -balance polling -skew    # imbalanced arrival
//	ecosim -tasks 256 -fault-mtbf 100us -ckpt-interval 50us  # resilience
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ecoscale"
	"ecoscale/internal/accel"
	"ecoscale/internal/fabric"
	"ecoscale/internal/fault"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
	"ecoscale/internal/sim"
	"ecoscale/internal/workload"
)

// st converts a wall-clock flag duration into simulated time.
func st(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) * sim.Nanosecond }

func main() {
	workers := flag.Int("workers", 4, "workers per compute node")
	nodes := flag.Int("nodes", 2, "compute nodes")
	kernelName := flag.String("kernel", "vecadd", "workload kernel")
	tasks := flag.Int("tasks", 32, "number of task invocations")
	nSize := flag.Int("n", 1024, "problem size per task")
	policy := flag.String("policy", "model", "dispatch policy: sw|hw|model|oracle")
	sharing := flag.String("sharing", "shared", "accelerator sharing: shared|shared-cn|private")
	balance := flag.String("balance", "lazy", "work stealing: none|polling|lazy")
	skew := flag.Bool("skew", false, "submit all tasks at worker 0")
	unroll := flag.Int("unroll", 8, "HLS unroll for the deployed engine")
	ports := flag.Int("ports", 8, "HLS memory ports for the deployed engine")
	compress := flag.Bool("compress", true, "compressed bitstream loading")
	seed := flag.Int64("seed", 1, "simulation seed")
	flowTrace := flag.Bool("flowtrace", false, "print the Fig. 5 layer-interaction trace")
	flowCap := flag.Int("flowcap", 40, "max layer-interaction events to print with -flowtrace (0 = all)")
	diagram := flag.Bool("diagram", false, "print Worker 0's Fig. 4 block diagram before running")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file")
	metricsOut := flag.String("metrics", "", "write a Prometheus text-format metrics snapshot")
	metricsJSON := flag.String("metrics-json", "", "write a JSON metrics snapshot")
	profileOn := flag.Bool("profile", false, "print the bottleneck report (critical path, utilization, sampling profile)")
	profileInt := flag.Duration("profile-interval", 0, "sampling-profiler period in simulated time (default 10us)")
	faultMTBF := flag.Duration("fault-mtbf", 0, "Worker death MTBF in simulated time (0 = no deaths)")
	faultMaxKills := flag.Int("fault-max-kills", 0, "cap on stochastic Worker deaths (0 = uncapped)")
	faultRegionMTBF := flag.Duration("fault-region-mtbf", 0, "fabric-region failure MTBF (0 = none)")
	faultMaxRegions := flag.Int("fault-max-region-fails", 0, "cap on region failures (0 = uncapped)")
	faultLinkMTBF := flag.Duration("fault-link-mtbf", 0, "NoC link flap MTBF (0 = none)")
	faultLinkDown := flag.Duration("fault-link-down", 0, "outage duration per link flap (0 = plan default)")
	faultMaxFlaps := flag.Int("fault-max-flaps", 0, "cap on link flaps (0 = uncapped)")
	faultHorizon := flag.Duration("fault-horizon", 0, "stochastic fault window (0 = plan default)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault schedule")
	ckptInterval := flag.Duration("ckpt-interval", 0, "checkpoint interval (0 = checkpointing off)")
	ckptBytes := flag.Int("ckpt-bytes", 0, "snapshot bytes per Worker checkpoint (0 = default)")
	flag.Parse()

	if err := checkWorkload(*nSize, *tasks, *flowCap); err != nil {
		log.Fatal(err)
	}
	w, err := workload.ByName(*kernelName)
	if err != nil {
		log.Fatal(err)
	}

	cfg := ecoscale.DefaultConfig(*workers, *nodes)
	cfg.Seed = *seed
	cfg.CompressedBitstreams = *compress
	cfg.Trace = *traceOut != "" || *flowTrace
	cfg.Profile = *profileOn
	cfg.ProfileInterval = sim.Time(profileInt.Nanoseconds()) * sim.Nanosecond
	switch *sharing {
	case "shared":
		cfg.Sharing = ecoscale.Shared
	case "shared-cn":
		cfg.Sharing = ecoscale.SharedCN
	case "private":
		cfg.Sharing = ecoscale.Private
	default:
		log.Fatalf("unknown sharing %q", *sharing)
	}
	switch *balance {
	case "none":
		cfg.Balance = ecoscale.NoBalance
	case "polling":
		cfg.Balance = ecoscale.Polling
	case "lazy":
		cfg.Balance = ecoscale.Lazy
	default:
		log.Fatalf("unknown balance %q", *balance)
	}
	// Reject bad shapes (zero workers, absurd counts) with a usable
	// message instead of letting construction panic somewhere deep.
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	m := ecoscale.New(cfg)
	if *diagram {
		fmt.Println(m.WorkerDiagram(0))
	}

	var pol rts.Policy
	switch *policy {
	case "sw":
		pol = ecoscale.PolicyCPU
	case "hw":
		pol = ecoscale.PolicyHW
	case "model":
		pol = ecoscale.PolicyModel
	case "oracle":
		pol = ecoscale.PolicyOracle
	default:
		log.Fatalf("unknown policy %q", *policy)
	}
	m.SetPolicy(pol)

	if _, err := m.DeployKernel(w.Source,
		ecoscale.Directives{Unroll: *unroll, MemPorts: *ports, Share: 1, Pipeline: true}, 0); err != nil {
		// A fabric too small for the engine is a degraded mode, not a
		// crash: the dispatch policies fall back to software execution.
		var ns *fabric.ErrNoSpace
		if !errors.As(err, &ns) {
			log.Fatal(err)
		}
		fmt.Printf("fabric: %v — continuing in software\n", err)
	} else {
		fmt.Printf("deployed %s engine (reconfiguration took %v)\n", w.Name, m.Now())
	}

	// Reference software run for the op mix.
	rng := sim.NewRNG(*seed)
	args, bindings := w.Make(*nSize, rng)
	stats, err := hls.Run(w.Kernel(), args)
	if err != nil {
		log.Fatal(err)
	}
	buf := m.Space.Alloc(0, *nSize*8)
	out := m.Space.Alloc(0, 4096)

	done, taskErrs := 0, 0
	start := m.Now()
	for i := 0; i < *tasks; i++ {
		target := i % m.Workers()
		if *skew {
			target = 0
		}
		m.Submit(target, &rts.Task{
			Kernel:   w.Name,
			Bindings: bindings,
			Reads:    []accel.Span{{Addr: buf, Size: *nSize * 8}},
			Writes:   []accel.Span{{Addr: out, Size: 64}},
			SWStats:  stats,
		}, func(_ rts.Device, err error) {
			done++
			if err != nil {
				taskErrs++
			}
		})
	}
	plan := &fault.Plan{
		Seed: *faultSeed, Start: start, Horizon: st(*faultHorizon),
		WorkerMTBF: st(*faultMTBF), MaxKills: *faultMaxKills,
		RegionMTBF: st(*faultRegionMTBF), MaxRegionFails: *faultMaxRegions,
		LinkMTBF: st(*faultLinkMTBF), LinkDown: st(*faultLinkDown), MaxFlaps: *faultMaxFlaps,
		Checkpoint: fault.CheckpointConfig{Interval: st(*ckptInterval), Bytes: *ckptBytes},
	}
	if err := plan.Validate(); err != nil {
		log.Fatal(err)
	}
	if !plan.Empty() {
		fmt.Printf("armed %d fault events (seed %d)\n", m.InjectFaults(plan), *faultSeed)
	}
	end := m.Run()
	if done != *tasks {
		log.Fatalf("lost tasks: %d of %d", done, *tasks)
	}
	if taskErrs > 0 {
		fmt.Printf("%d tasks failed (no live Worker left to take them)\n", taskErrs)
	}
	if dead := m.DeadWorkers(); dead > 0 {
		fmt.Printf("faults: %d of %d Workers died during the run\n", dead, m.Workers())
	}
	fmt.Printf("%d tasks of %s(N=%d) finished in %v (policy=%s sharing=%s balance=%s)\n\n",
		*tasks, w.Name, *nSize, end-start, *policy, *sharing, *balance)
	fmt.Println(m.Report())
	if m.Cluster.Steals > 0 {
		fmt.Printf("work stealing: %d steals, %d monitor msgs\n", m.Cluster.Steals, m.Cluster.StealMsgs)
	}
	if *flowTrace {
		fmt.Println()
		fmt.Println("== layer interaction flow (Fig. 5) ==")
		if err := m.Tracer.WriteFlow(os.Stdout, *flowCap); err != nil {
			log.Fatal(err)
		}
	}
	if *profileOn {
		fmt.Println()
		fmt.Print(m.Prof.BottleneckReport())
	}
	if *traceOut != "" {
		m.Prof.EmitTracks()
		if err := writeFile(*traceOut, m.Tracer.WriteChrome); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d trace spans to %s\n", m.Tracer.Len(), *traceOut)
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, m.Metrics().WritePrometheus); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
	if *metricsJSON != "" {
		if err := writeFile(*metricsJSON, m.Metrics().WriteJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsJSON)
	}
}

// checkWorkload rejects a problem size, task count or listing cap no run
// can use, before any machine is built.
func checkWorkload(n, tasks, flowCap int) error {
	if n < 1 {
		return fmt.Errorf("ecosim: -n %d: the problem size must be at least 1", n)
	}
	if tasks < 0 {
		return fmt.Errorf("ecosim: -tasks %d: the task count cannot be negative", tasks)
	}
	if flowCap < 0 {
		return fmt.Errorf("ecosim: -flowcap %d: the listing cap cannot be negative (0 prints every event)", flowCap)
	}
	return nil
}

// writeFile streams render into path, reporting the first error from
// either the renderer or the file.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
