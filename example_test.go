package ecoscale_test

import (
	"fmt"
	"log"

	"ecoscale"
	"ecoscale/internal/ocl"
	"ecoscale/internal/rts"
	"ecoscale/internal/sim"
)

// Example is the smallest end-to-end ECOSCALE program: build a machine,
// compile a kernel with the HLS flow, deploy it to a Worker's
// reconfigurable block, run it through the OpenCL-style host API on both
// the CPU and the hardware path, and print the timing and the machine
// report.
func Example() {
	const src = `
kernel saxpy(global float* X, global float* Y, int N, float a) {
    for (i = 0; i < N; i++) {
        Y[i] = a * X[i] + Y[i];
    }
}`
	// A small machine: 4 Workers per Compute Node, 2 Compute Nodes.
	m := ecoscale.New(ecoscale.DefaultConfig(4, 2))
	fmt.Println(m.Tree.String())

	ctx := ecoscale.NewPlatform(m).CreateContext()
	prog, err := ctx.CreateProgram(src)
	if err != nil {
		log.Fatal(err)
	}
	// Synthesize with 4x unrolling and 8 memory ports, then load onto
	// Worker 0's fabric (partial reconfiguration is simulated and
	// costed).
	if err := prog.Build(ecoscale.Directives{Unroll: 4, MemPorts: 8, Share: 1, Pipeline: true}); err != nil {
		log.Fatal(err)
	}
	if err := prog.DeployTo("saxpy", 0); err != nil {
		log.Fatal(err)
	}
	im := prog.Impls["saxpy"]
	fmt.Printf("synthesized saxpy: II=%d depth=%d area=%v\n\n", im.II(), im.Depth(), im.Area)

	const n = 8192
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = 1
	}

	run := func(policy rts.Policy, label string) {
		m.SetPolicy(policy)
		bx := ctx.CreateBuffer(n, ocl.OnWorker, 0)
		by := ctx.CreateBuffer(n, ocl.OnWorker, 0)
		bx.Poke(x)
		by.Poke(y)
		start := m.Eng.Now()
		ev := ctx.CreateQueue(0).EnqueueKernel(prog, "saxpy",
			[]ocl.Arg{ocl.BufArg(bx), ocl.BufArg(by), ocl.ScalarArg(n), ocl.ScalarArg(2.0)}, nil)
		if err := ctx.WaitAll(ev); err != nil {
			log.Fatal(err)
		}
		out := by.Peek()
		fmt.Printf("%-8s  time=%-12v  y[1]=%v y[%d]=%v\n",
			label, m.Eng.Now()-start, out[1], n-1, out[n-1])
	}
	run(ecoscale.PolicyCPU, "cpu")
	run(ecoscale.PolicyHW, "hw")

	m.Eng.At(m.Eng.Now()+sim.Microsecond, func() {})
	m.Run()
	fmt.Println()
	fmt.Println(m.Report())
	// Output:
	// tree[4x2]: 8 workers, 3 levels, diameter 2 hops
	//   level 2 (chassis     ):    1 unit(s) x 8 worker(s)
	//   level 1 (compute-node):    2 unit(s) x 4 worker(s)
	//   level 0 (worker      ):    8 unit(s) x 1 worker(s)
	//
	// synthesized saxpy: II=2 depth=12 area={LUT:4120 FF:5350 BRAM:16 DSP:20}
	//
	// cpu       time=51.073us      y[1]=3 y[8191]=16383
	// hw        time=39.378us      y[1]=3 y[8191]=16383
	//
	// machine tree[4x2]: 8 workers, 2 compute nodes
	// simulated time: 419.131us, events: 4153
	// energy: 3.026mJ total (mean power 7.22 W)
	//   cpu            1.270uJ
	//   fpga           131.076nJ
	//   link           4.000nJ
	//   noc            256.000pJ
	//   reconfig       6.554uJ
	//   static.cpu     1.174mJ
	//   static.dram    1.006mJ
	//   static.fpga    838.263uJ
	// accelerator calls: 1 (0 remote)
	// tasks: 1 on cpu, 1 in hardware
	// latency breakdown (us):
	//   stage                 n        p50        p90        p99        max
	//   queue wait            2        0.0        0.0        0.0        0.0
	//   reconfig              1      327.7      327.7      327.7      327.7
	//   dma                   4       16.6       16.6       16.6       16.6
	//   compute (cpu)         1       50.6       50.6       50.6       50.6
	//   compute (hw)          1       20.6       20.6       20.6       20.6
	//   task total            2       50.6       50.6       50.6       50.6
	// utilization (busy fraction of simulated time):
	//   component            mean      max      n
	//   cpu cores            0.4%     3.0%      8
	//   hw window            0.3%     2.3%      8
	//   config port          9.8%    78.2%      8
	//   accel pipes          4.9%     4.9%      1
	//   noc links L0         0.0%     0.0%     16
	//   noc links L1         0.1%     0.1%      4
	//
}
