package core

import (
	"strings"
	"testing"

	"ecoscale/internal/accel"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
	"ecoscale/internal/sim"
	"ecoscale/internal/unilogic"
)

const srcScale = `
kernel scale(global float* A, int N) {
    for (i = 0; i < N; i++) {
        A[i] = A[i] * 2.0;
    }
}`

func TestNewMachineWiring(t *testing.T) {
	m := New(DefaultConfig(4, 2))
	if m.Workers() != 8 {
		t.Fatalf("workers = %d", m.Workers())
	}
	if m.Space.NumWorkers() != 8 {
		t.Error("space not sized to workers")
	}
	for w := 0; w < m.Workers(); w++ {
		if mgr := m.Manager(w); mgr.Worker != w {
			t.Errorf("manager %d mislabeled as %d", w, mgr.Worker)
		}
	}
	if m.Domain.Policy != unilogic.Shared {
		t.Error("default sharing policy should be UNILOGIC shared")
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty fan-out did not panic")
		}
	}()
	New(Config{})
}

func TestConfigValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"empty fanout", func(c *Config) { c.FanOut = nil }, "tree shape"},
		{"zero fanout level", func(c *Config) { c.FanOut = []int{4, 0} }, "FanOut[1] = 0"},
		{"negative fanout level", func(c *Config) { c.FanOut = []int{-2, 2} }, "FanOut[0] = -2"},
		{"absurd workers", func(c *Config) { c.FanOut = []int{1 << 12, 1 << 13} }, "more than"},
		{"empty fabric", func(c *Config) { c.Fabric.Rows = 0 }, "fabric grid"},
		{"no tlb", func(c *Config) { c.SMMU.TLBEntries = 0 }, "TLB"},
		// Each of these used to pass Validate and then panic in New or on
		// the first Worker's materialization.
		{"zero page", func(c *Config) { c.Unimem.PageBytes = 0 }, "PageBytes = 0"},
		{"negative page", func(c *Config) { c.Unimem.PageBytes = -4096 }, "PageBytes = -4096"},
		{"zero smmu page bits", func(c *Config) { c.SMMU.PageBits = 0 }, "PageBits = 0"},
		{"huge smmu page bits", func(c *Config) { c.SMMU.PageBits = 70 }, "PageBits = 70"},
		{"no config port", func(c *Config) { c.Fabric.PortBytesPerNs = 0 }, "PortBytesPerNs = 0"},
		{"negative bitstream", func(c *Config) { c.Fabric.BytesPerRegion = -1 }, "BytesPerRegion = -1"},
		{"tiny smmu pages", func(c *Config) { c.SMMU.PageBits = 1 }, "PageBits = 1"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(2, 1)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a bad config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := DefaultConfig(4, 2).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// FuzzConfigValidate: Validate never panics, and a config it accepts
// builds without panicking, including the first Worker's fabric, SMMU
// and scheduler, which materialize lazily. Machines above 64 Workers are
// only validated, to keep each input cheap.
func FuzzConfigValidate(f *testing.F) {
	def := DefaultConfig(4, 2)
	seed := func(mut func(*Config)) {
		c := def
		mut(&c)
		f.Add(c.FanOut[0], c.FanOut[1], c.Unimem.PageBytes, c.SMMU.PageBits, c.SMMU.TLBEntries,
			c.Fabric.Rows, c.Fabric.Cols, c.Fabric.BytesPerRegion, c.Fabric.PortBytesPerNs)
	}
	seed(func(*Config) {})
	seed(func(c *Config) { c.Unimem.PageBytes = 0 })
	seed(func(c *Config) { c.Unimem.PageBytes = -4096 })
	seed(func(c *Config) { c.SMMU.PageBits = 0 })
	seed(func(c *Config) { c.SMMU.PageBits = 70 })
	seed(func(c *Config) { c.Fabric.PortBytesPerNs = 0 })
	seed(func(c *Config) { c.Fabric.BytesPerRegion = -1 })
	// 1 GiB pages: the 16 MiB identity window maps no whole page.
	seed(func(c *Config) { c.SMMU.PageBits = 30 })
	seed(func(c *Config) { c.FanOut = []int{8, 8}; c.Fabric.Rows = 256; c.Fabric.Cols = 256 })
	f.Fuzz(func(t *testing.T, wpc, nodes, pageBytes, pageBits, tlb, rows, cols, bytesPerRegion int,
		portBytesPerNs float64) {
		cfg := def
		cfg.FanOut = []int{wpc, nodes}
		cfg.Unimem.PageBytes = pageBytes
		cfg.SMMU.PageBits = pageBits
		cfg.SMMU.TLBEntries = tlb
		cfg.Fabric.Rows, cfg.Fabric.Cols = rows, cols
		cfg.Fabric.BytesPerRegion = bytesPerRegion
		cfg.Fabric.PortBytesPerNs = portBytesPerNs
		if cfg.Validate() != nil || wpc*nodes > 64 {
			return
		}
		m := New(cfg)
		m.Manager(0)
		m.Sched(0)
	})
}

// The flyweight invariants: construction materializes no Workers, the
// first touch materializes exactly one, quiescent Compute Nodes stay
// summary records, and read-only aggregation (Report) wakes nobody.
func TestMachineLazyMaterialization(t *testing.T) {
	m := New(DefaultConfig(4, 4))
	if m.LiveWorkers() != 0 {
		t.Fatalf("construction materialized %d workers", m.LiveWorkers())
	}
	for cn, sh := range m.shells {
		if sh != nil {
			t.Fatalf("compute node %d live before any event", cn)
		}
	}
	s := m.Sched(5)
	if s.Worker != 5 {
		t.Fatalf("Sched(5) returned worker %d", s.Worker)
	}
	if m.Sched(5) != s {
		t.Fatal("second touch built a different scheduler")
	}
	if m.LiveWorkers() != 1 {
		t.Fatalf("%d live workers after touching one", m.LiveWorkers())
	}
	if m.shells[m.Tree.ComputeNodeOf(5)] == nil {
		t.Error("worker 5's compute node still reads quiescent")
	}
	if m.shells[0] != nil || m.shells[3] != nil || m.QuiescentNodes() != 3 {
		t.Error("untouched compute nodes lost quiescence")
	}
	live := m.LiveWorkers()
	_ = m.Report()
	if m.LiveWorkers() != live {
		t.Errorf("Report materialized workers: %d -> %d", live, m.LiveWorkers())
	}
	seen := 0
	m.EachSched(func(*rts.Scheduler) { seen++ })
	if seen != 1 {
		t.Errorf("EachSched visited %d schedulers, want 1", seen)
	}
}

// A run on a lazy machine must match the same run on a machine whose
// Workers were all forced into existence up front: materialization
// timing must not perturb the event stream, energy, or the report.
func TestLazyMatchesEagerMaterialization(t *testing.T) {
	run := func(pretouch bool) (string, sim.Time) {
		m := New(DefaultConfig(2, 2))
		if pretouch {
			for w := 0; w < m.Workers(); w++ {
				m.Sched(w)
				m.Manager(w)
			}
		}
		if _, err := m.DeployKernel(srcScale, hls.DefaultDirectives(), 1); err != nil {
			t.Fatal(err)
		}
		addr := m.Space.Alloc(0, 4096)
		for i := 0; i < 6; i++ {
			m.Sched(i%3).Submit(&rts.Task{
				Kernel:   "scale",
				Bindings: map[string]float64{"N": 256},
				Reads:    []accel.Span{{Addr: addr, Size: 2048}},
				SWStats:  hls.RunStats{Ops: 512, Flops: 256, Loads: 256, Stores: 256},
			}, nil)
		}
		end := m.Run()
		return m.Report(), end
	}
	lazyReport, lazyEnd := run(false)
	eagerReport, eagerEnd := run(true)
	if lazyEnd != eagerEnd {
		t.Fatalf("final time diverged: lazy %v, eager %v", lazyEnd, eagerEnd)
	}
	if lazyReport != eagerReport {
		t.Fatalf("reports diverged:\n--- lazy ---\n%s\n--- eager ---\n%s", lazyReport, eagerReport)
	}
}

func TestDeployKernelAndReport(t *testing.T) {
	m := New(DefaultConfig(2, 1))
	inst, err := m.DeployKernel(srcScale, hls.DefaultDirectives(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Worker != 1 {
		t.Error("deployed to wrong worker")
	}
	r := m.Report()
	if !strings.Contains(r, "2 workers") || !strings.Contains(r, "reconfig") {
		t.Errorf("report missing content:\n%s", r)
	}
}

func TestBadKernelDeploy(t *testing.T) {
	m := New(DefaultConfig(2, 1))
	if _, err := m.DeployKernel("nonsense", hls.DefaultDirectives(), 0); err == nil {
		t.Error("bad kernel source should fail")
	}
}

func TestSchedulersShareDomain(t *testing.T) {
	m := New(DefaultConfig(2, 2))
	if _, err := m.DeployKernel(srcScale, hls.DefaultDirectives(), 0); err != nil {
		t.Fatal(err)
	}
	// A scheduler on another compute node sees the instance via the
	// shared domain.
	for w := 0; w < m.Workers(); w++ {
		if m.Sched(w).Domain != m.Domain {
			t.Fatal("scheduler not wired to the shared domain")
		}
	}
	if len(m.Domain.Instances("scale")) != 1 {
		t.Error("instance invisible to domain")
	}
	_ = rts.DeviceCPU
}

func TestWorkerDiagram(t *testing.T) {
	m := New(DefaultConfig(2, 2))
	d := m.WorkerDiagram(3)
	for _, want := range []string{"Worker 3", "compute node 1", "SMMU", "reconfigurable block", "ACE-lite"} {
		if !strings.Contains(d, want) {
			t.Errorf("diagram missing %q:\n%s", want, d)
		}
	}
}
