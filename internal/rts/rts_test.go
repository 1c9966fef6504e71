package rts

import (
	"reflect"
	"strings"
	"testing"

	"ecoscale/internal/accel"
	"ecoscale/internal/energy"
	"ecoscale/internal/fabric"
	"ecoscale/internal/hls"
	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/smmu"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
	"ecoscale/internal/unilogic"
	"ecoscale/internal/unimem"
)

const srcScale = `
kernel scale(global float* A, int N) {
    for (i = 0; i < N; i++) {
        A[i] = A[i] * 2.0;
    }
}`

// staticManagers adapts an eager per-Worker manager slice to
// unilogic.ManagerProvider.
type staticManagers []*accel.Manager

func (p staticManagers) NumWorkers() int                  { return len(p) }
func (p staticManagers) Manager(w int) *accel.Manager     { return p[w] }
func (p staticManagers) PeekManager(w int) *accel.Manager { return p[w] }
func (p staticManagers) FreeRegions(w int) int            { return p[w].Fab.FreeRegions() }

// staticScheds adapts an eager scheduler slice to SchedulerProvider.
type staticScheds []*Scheduler

func (p staticScheds) NumWorkers() int            { return len(p) }
func (p staticScheds) Sched(w int) *Scheduler     { return p[w] }
func (p staticScheds) PeekSched(w int) *Scheduler { return p[w] }

type rig struct {
	eng    *sim.Engine
	net    *noc.Network
	space  *unimem.Space
	meter  *energy.Meter
	domain *unilogic.Domain
	scheds []*Scheduler
	impl   *hls.Impl
	addr   uint64
}

func newRig(t testing.TB, workers int) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	tr := topo.NewTree(workers)
	meter := energy.NewMeter(eng, energy.DefaultCostModel())
	net := noc.NewNetwork(eng, tr, noc.DefaultConfig(tr.MaxHops()), meter, nil)
	space := unimem.NewSpace(net, unimem.DefaultConfig(), nil)
	var mgrs []*accel.Manager
	for w := 0; w < workers; w++ {
		m := accel.NewManager(w, fabric.New(eng, fabric.DefaultConfig(), meter), space,
			smmu.New(smmu.DefaultConfig()), meter)
		// Identity map all streams this rig will use.
		for sid := w * 1000; sid < w*1000+4; sid++ {
			m.MMU.BindContext(sid, 1, 1)
		}
		for p := uint64(0); p < 64; p++ {
			m.MMU.MapStage1(1, p*4096, p*4096, smmu.PermRW)
			m.MMU.MapStage2(1, p*4096, p*4096, smmu.PermRW)
		}
		mgrs = append(mgrs, m)
	}
	domain := unilogic.NewDomainFrom(tr, staticManagers(mgrs), eng)
	r := &rig{eng: eng, net: net, space: space, meter: meter, domain: domain}
	for w := 0; w < workers; w++ {
		r.scheds = append(r.scheds, NewScheduler(w, domain, eng, meter))
	}
	// A well-unrolled, multi-port implementation: the fabric must beat
	// the CPU on large inputs for the dispatch experiments to have a
	// trade-off at all.
	im, err := hls.Synthesize(hls.MustParse(srcScale),
		hls.Directives{Unroll: 8, MemPorts: 16, Share: 1, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	r.impl = im
	r.addr = space.Alloc(0, 65536)
	return r
}

func (r *rig) deployHW(t testing.TB, w int) {
	t.Helper()
	ok := false
	r.domain.Deploy(w, r.impl, func(in *accel.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		ok = true
	})
	r.eng.RunUntilIdle()
	if !ok {
		t.Fatal("deploy failed")
	}
}

// task builds a scale-kernel task of n elements.
func (r *rig) task(n int) *Task {
	return &Task{
		Kernel:   "scale",
		Bindings: map[string]float64{"N": float64(n)},
		Reads:    []accel.Span{{Addr: r.addr, Size: n * 8}},
		Writes:   []accel.Span{{Addr: r.addr, Size: n * 8}},
		SWStats:  hls.RunStats{Ops: uint64(3 * n), Flops: uint64(n), Loads: uint64(n), Stores: uint64(n)},
	}
}

func TestPolicyCPUOnly(t *testing.T) {
	r := newRig(t, 2)
	r.deployHW(t, 0)
	s := r.scheds[0]
	s.Policy = PolicyCPU{}
	var dev Device
	s.Submit(r.task(512), func(d Device, err error) {
		if err != nil {
			t.Error(err)
		}
		dev = d
	})
	r.eng.RunUntilIdle()
	if dev != DeviceCPU {
		t.Errorf("ran on %v, want cpu", dev)
	}
	if s.Executed(DeviceCPU) != 1 || s.Executed(DeviceHW) != 0 {
		t.Error("execution counts wrong")
	}
	if r.meter.Category("cpu") <= 0 {
		t.Error("no CPU energy charged")
	}
}

func TestPolicyHWUsesHardware(t *testing.T) {
	r := newRig(t, 2)
	r.deployHW(t, 0)
	s := r.scheds[0]
	s.Policy = PolicyHW{}
	var dev Device
	s.Submit(r.task(512), func(d Device, err error) {
		if err != nil {
			t.Error(err)
		}
		dev = d
	})
	r.eng.RunUntilIdle()
	if dev != DeviceHW {
		t.Errorf("ran on %v, want hw", dev)
	}
}

func TestPolicyHWFallsBackWithoutInstance(t *testing.T) {
	r := newRig(t, 2)
	s := r.scheds[0]
	s.Policy = PolicyHW{}
	var dev Device
	s.Submit(r.task(64), func(d Device, err error) { dev = d })
	r.eng.RunUntilIdle()
	if dev != DeviceCPU {
		t.Error("missing instance should fall back to CPU")
	}
}

func TestHistoryAccumulates(t *testing.T) {
	r := newRig(t, 2)
	s := r.scheds[0]
	s.Policy = PolicyCPU{}
	for i := 0; i < 5; i++ {
		s.Submit(r.task(128), nil)
	}
	r.eng.RunUntilIdle()
	if s.History.Len() != 5 {
		t.Errorf("history has %d records, want 5", s.History.Len())
	}
	if s.History.Samples("scale", DeviceCPU) != 5 {
		t.Error("samples miscounted")
	}
	if s.History.TotalTime("scale") <= 0 {
		t.Error("no time recorded")
	}
	if s.MeanWait() < 0 {
		t.Error("negative wait")
	}
}

func TestHistoryModelPredicts(t *testing.T) {
	r := newRig(t, 2)
	s := r.scheds[0]
	s.Policy = PolicyCPU{}
	for _, n := range []int{64, 128, 256, 512, 1024, 2048} {
		s.Submit(r.task(n), nil)
	}
	r.eng.RunUntilIdle()
	m := s.History.Model("scale", DeviceCPU)
	if m == nil {
		t.Fatal("model not trained")
	}
	// Larger input → larger predicted time.
	small := m.Predict(r.task(64).Features())
	large := m.Predict(r.task(4096).Features())
	if large <= small {
		t.Errorf("model not monotone: %v vs %v", small, large)
	}
}

func TestHistoryModelNeedsSamples(t *testing.T) {
	h := NewHistory()
	if h.Model("x", DeviceCPU) != nil {
		t.Error("model from empty history")
	}
	for i := 0; i < 3; i++ {
		h.Add(Record{Kernel: "x", Device: DeviceCPU, Features: []float64{1, 2}, Duration: 5})
	}
	if h.Model("x", DeviceCPU) != nil {
		t.Error("model from 3 samples (min is 4)")
	}
}

func TestPolicyModelConverges(t *testing.T) {
	// After exploration, big tasks should go to HW (faster there) and the
	// model policy should beat always-CPU on a big-task stream.
	run := func(p Policy) sim.Time {
		r := newRig(t, 2)
		r.deployHW(t, 0)
		s := r.scheds[0]
		s.Policy = p
		var submit func(i int)
		submit = func(i int) {
			if i >= 40 {
				return
			}
			s.Submit(r.task(4096), func(Device, error) { submit(i + 1) })
		}
		submit(0)
		r.eng.RunUntilIdle()
		return r.eng.Now()
	}
	model, cpuOnly := run(PolicyModel{}), run(PolicyCPU{})
	if model >= cpuOnly {
		t.Errorf("model policy (%v) should beat always-CPU (%v) on large tasks", model, cpuOnly)
	}
}

func TestPolicyOracleChoosesFasterDevice(t *testing.T) {
	r := newRig(t, 2)
	r.deployHW(t, 0)
	s := r.scheds[0]
	s.Policy = PolicyOracle{}
	var devBig, devTiny Device
	s.Submit(r.task(8192), func(d Device, err error) { devBig = d })
	r.eng.RunUntilIdle()
	s.Submit(r.task(2), func(d Device, err error) { devTiny = d })
	r.eng.RunUntilIdle()
	if devBig != DeviceHW {
		t.Errorf("oracle sent big task to %v", devBig)
	}
	if devTiny != DeviceCPU {
		t.Errorf("oracle sent tiny task to %v (HW call overhead should dominate)", devTiny)
	}
}

func TestCoreLimitSerializes(t *testing.T) {
	r := newRig(t, 1)
	s := r.scheds[0]
	s.Policy = PolicyCPU{}
	s.Cores = 1
	var finished []sim.Time
	for i := 0; i < 3; i++ {
		s.Submit(r.task(1024), func(Device, error) { finished = append(finished, r.eng.Now()) })
	}
	if s.QueueLen() != 2 {
		t.Errorf("queue len = %d, want 2 with 1 core", s.QueueLen())
	}
	r.eng.RunUntilIdle()
	if len(finished) != 3 {
		t.Fatal("tasks lost")
	}
	if !(finished[0] < finished[1] && finished[1] < finished[2]) {
		t.Error("single core did not serialize")
	}
}

func TestTaskConservation(t *testing.T) {
	r := newRig(t, 4)
	r.deployHW(t, 0)
	for _, s := range r.scheds {
		s.Policy = PolicyModel{}
	}
	total := 60
	got := 0
	for i := 0; i < total; i++ {
		r.scheds[i%4].Submit(r.task(64+i), func(Device, error) { got++ })
	}
	r.eng.RunUntilIdle()
	if got != total {
		t.Errorf("%d/%d tasks completed", got, total)
	}
	var counted uint64
	for _, s := range r.scheds {
		counted += s.Executed(DeviceCPU) + s.Executed(DeviceHW)
	}
	if counted != uint64(total) {
		t.Errorf("executed %d, want %d", counted, total)
	}
}

func TestDeviceString(t *testing.T) {
	if DeviceCPU.String() != "cpu" || DeviceHW.String() != "hw" {
		t.Error("device strings wrong")
	}
}

func TestTasksCounterFollowsPolicy(t *testing.T) {
	r := newRig(t, 2)
	r.deployHW(t, 0)
	s := r.scheds[0]
	s.Reg = trace.NewRegistry()
	run := func(p Policy, n int) {
		s.Policy = p
		for i := 0; i < n; i++ {
			s.Submit(r.task(128), nil)
		}
		r.eng.RunUntilIdle()
	}
	run(PolicyCPU{}, 3)
	run(PolicyHW{}, 2)
	run(PolicyCPU{}, 1)
	want := map[string]uint64{
		`rts.tasks{device="cpu",kernel="scale",policy="always-sw",worker="0"}`: 4,
		`rts.tasks{device="hw",kernel="scale",policy="always-hw",worker="0"}`:  2,
	}
	got := map[string]uint64{}
	for _, name := range s.Reg.CounterNames() {
		if strings.HasPrefix(name, "rts.tasks{") {
			got[name] = s.Reg.CounterL(name).Value
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rts.tasks series = %v, want %v", got, want)
	}
}
