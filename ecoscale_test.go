package ecoscale_test

import (
	"math"
	"strings"
	"testing"

	"ecoscale"
	"ecoscale/internal/hls"
	"ecoscale/internal/ocl"
	"ecoscale/internal/rts"
	"ecoscale/internal/sim"
)

func TestBuildMachineShapes(t *testing.T) {
	for _, shape := range [][2]int{{2, 1}, {4, 2}, {8, 4}} {
		m := ecoscale.New(ecoscale.DefaultConfig(shape[0], shape[1]))
		if m.Workers() != shape[0]*shape[1] {
			t.Errorf("shape %v: %d workers", shape, m.Workers())
		}
		if m.Tree.NumComputeNodes() != shape[1] {
			t.Errorf("shape %v: %d compute nodes", shape, m.Tree.NumComputeNodes())
		}
		if m.Sched(0).Worker != 0 || m.Manager(m.Workers()-1).Worker != m.Workers()-1 {
			t.Error("per-worker components miswired")
		}
	}
}

func TestReportContents(t *testing.T) {
	m := ecoscale.New(ecoscale.DefaultConfig(2, 2))
	m.Run()
	r := m.Report()
	for _, want := range []string{"4 workers", "2 compute nodes", "energy", "tasks"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

func TestStaticEnergyAccrues(t *testing.T) {
	m := ecoscale.New(ecoscale.DefaultConfig(2, 1))
	m.Eng.At(sim.Millisecond, func() {})
	m.Run()
	if m.Meter.Category("static.cpu") <= 0 {
		t.Error("no static CPU energy after 1ms")
	}
}

// TestEndToEndSWHWEquivalence is the E14 integration check at the API
// level: every built-in kernel produces identical results through the
// software path and the hardware path.
func TestEndToEndSWHWEquivalence(t *testing.T) {
	for _, w := range ecoscale.Kernels() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			n := 12
			run := func(policy rts.Policy) []float64 {
				m := ecoscale.New(ecoscale.DefaultConfig(2, 1))
				ctx := ecoscale.NewPlatform(m).CreateContext()
				prog, err := ctx.CreateProgram(w.Source)
				if err != nil {
					t.Fatal(err)
				}
				if err := prog.Build(w.DefaultDir); err != nil {
					t.Fatal(err)
				}
				if err := prog.DeployTo(w.Name, 0); err != nil {
					t.Fatal(err)
				}
				m.SetPolicy(policy)
				rng := sim.NewRNG(99) // same data both runs
				args, _ := w.Make(n, rng)
				k := w.Kernel()
				var oclArgs []ocl.Arg
				var bufs []*ocl.Buffer
				for i, p := range k.Params {
					if p.IsBuffer {
						b := ctx.CreateBuffer(len(args[i].Buf), ocl.OnWorker, 0)
						b.Poke(args[i].Buf)
						bufs = append(bufs, b)
						oclArgs = append(oclArgs, ocl.BufArg(b))
					} else {
						bufs = append(bufs, nil)
						oclArgs = append(oclArgs, ocl.ScalarArg(args[i].Scalar))
					}
				}
				ev := ctx.CreateQueue(0).EnqueueKernel(prog, w.Name, oclArgs, nil)
				if err := ctx.WaitAll(ev); err != nil {
					t.Fatal(err)
				}
				var out []float64
				for _, b := range bufs {
					if b != nil {
						out = append(out, b.Peek()...)
					}
				}
				return out
			}
			sw := run(ecoscale.PolicyCPU)
			hw := run(ecoscale.PolicyHW)
			if len(sw) != len(hw) {
				t.Fatal("output shapes differ")
			}
			for i := range sw {
				if math.Abs(sw[i]-hw[i]) > 1e-9*math.Max(1, math.Abs(sw[i])) {
					t.Fatalf("%s: sw/hw diverge at %d: %v vs %v", w.Name, i, sw[i], hw[i])
				}
			}
		})
	}
}

func TestDeployKernelFacade(t *testing.T) {
	m := ecoscale.New(ecoscale.DefaultConfig(2, 1))
	w, _ := ecoscale.KernelByName("vecadd")
	inst, err := m.DeployKernel(w.Source, ecoscale.DefaultDirectives(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Worker != 1 {
		t.Errorf("deployed on worker %d", inst.Worker)
	}
	if len(m.Domain.Instances("vecadd")) != 1 {
		t.Error("not registered in UNILOGIC domain")
	}
	if _, err := m.DeployKernel("garbage", ecoscale.DefaultDirectives(), 0); err == nil {
		t.Error("bad source should fail")
	}
}

func TestExploreFacade(t *testing.T) {
	w, _ := ecoscale.KernelByName("vecadd")
	k, err := ecoscale.ParseKernel(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	front, err := ecoscale.Explore(k, ecoscale.New(ecoscale.DefaultConfig(1, 1)).Cfg.Fabric.PerRegion.Scale(64),
		map[string]float64{"N": 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Error("empty Pareto front")
	}
}

// TestVecAddHWBeatsCPUEndToEnd pins the headline accelerator win through
// the whole stack (HLS → fabric → UNILOGIC → runtime): a well-unrolled
// hardware implementation finishes a large streaming kernel sooner than
// the CPU path.
func TestVecAddHWBeatsCPUEndToEnd(t *testing.T) {
	w, _ := ecoscale.KernelByName("vecadd")
	run := func(policy rts.Policy) sim.Time {
		m := ecoscale.New(ecoscale.DefaultConfig(2, 1))
		if _, err := m.DeployKernel(w.Source,
			ecoscale.Directives{Unroll: 8, MemPorts: 16, Share: 1, Pipeline: true}, 0); err != nil {
			t.Fatal(err)
		}
		m.SetPolicy(policy)
		n := 16384
		rng := sim.NewRNG(5)
		args, _ := w.Make(n, rng)
		st, err := hls.Run(w.Kernel(), args)
		if err != nil {
			t.Fatal(err)
		}
		task := &rts.Task{
			Kernel:   "vecadd",
			Bindings: map[string]float64{"N": float64(n)},
			SWStats:  st,
		}
		start := m.Eng.Now()
		var end sim.Time
		m.Sched(0).Submit(task, func(rts.Device, error) { end = m.Eng.Now() - start })
		m.Run()
		if end == 0 {
			t.Fatal("task never completed")
		}
		return end
	}
	hw, cpu := run(ecoscale.PolicyHW), run(ecoscale.PolicyCPU)
	if hw >= cpu {
		t.Errorf("hardware path (%v) should beat CPU path (%v) at N=16K", hw, cpu)
	}
}
