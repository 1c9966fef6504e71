package unilogic

import (
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
	"ecoscale/internal/unimem"
)

const srcScale = `
kernel scale(global float* A, int N) {
    for (i = 0; i < N; i++) {
        A[i] = A[i] * 2.0;
    }
}`

// staticManagers adapts an eager per-Worker manager slice to
// ManagerProvider.
type staticManagers []*accel.Manager

func (p staticManagers) NumWorkers() int              { return len(p) }
func (p staticManagers) Manager(w int) *accel.Manager { return p[w] }

// newDomain creates a domain over eagerly built managers; mgrs[i] must
// be Worker i's manager.
func newDomain(t *topo.Tree, mgrs []*accel.Manager, eng *sim.Engine) *Domain {
	return NewDomainFrom(t, staticManagers(mgrs), eng)
}

type rig struct {
	eng    *sim.Engine
	space  *unimem.Space
	domain *Domain
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
		fab := fabric.New(eng, fabric.DefaultConfig(), meter)
		mgrs = append(mgrs, accel.NewManager(w, fab, space, smmu.New(smmu.DefaultConfig()), meter))
	}
	return &rig{eng: eng, space: space, domain: newDomain(tr, mgrs, eng)}
}

func deploy(t testing.TB, r *rig, w int) *accel.Instance {
	t.Helper()
	im, err := hls.Synthesize(hls.MustParse(srcScale), hls.DefaultDirectives())
	if err != nil {
		t.Fatal(err)
	}
	var got *accel.Instance
	r.domain.Deploy(w, im, func(in *accel.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = in
	})
	r.eng.RunUntilIdle()
	if got == nil {
		t.Fatal("deploy never completed")
	}
	// Identity-map the stream so SMMU passes.
	m := r.domain.Manager(w)
	m.MMU.BindContext(got.StreamID, 1, 1)
	for p := uint64(0); p < 64; p++ {
		m.MMU.MapStage1(1, p*4096, p*4096, smmu.PermRW)
		m.MMU.MapStage2(1, p*4096, p*4096, smmu.PermRW)
	}
	return got
}

func spec(r *rig, addr uint64) accel.CallSpec {
	return accel.CallSpec{
		Bindings: map[string]float64{"N": 256},
		Reads:    []accel.Span{{Addr: addr, Size: 1024}},
	}
}

func TestSharedRemoteCall(t *testing.T) {
	r := newRig(t, 4)
	deploy(t, r, 0)
	addr := r.space.Alloc(0, 4096)
	var callErr error
	ok := false
	r.domain.Call(3, "scale", spec(r, addr), func(err error) { callErr = err; ok = true })
	r.eng.RunUntilIdle()
	if !ok || callErr != nil {
		t.Fatalf("remote call failed: %v", callErr)
	}
	total, remote := r.domain.Calls()
	if total != 1 || remote != 1 {
		t.Errorf("calls = %d/%d, want 1 total 1 remote", total, remote)
	}
}

func TestPrivatePolicyRejectsRemote(t *testing.T) {
	r := newRig(t, 4)
	r.domain.Policy = Private
	deploy(t, r, 0)
	addr := r.space.Alloc(0, 4096)
	var callErr error
	r.domain.Call(3, "scale", spec(r, addr), func(err error) { callErr = err })
	r.eng.RunUntilIdle()
	if callErr == nil {
		t.Fatal("private policy allowed a remote call")
	}
	if !strings.Contains(callErr.Error(), "private") {
		t.Errorf("error %v should name the policy", callErr)
	}
	if r.domain.Rejected() != 1 {
		t.Error("rejection not counted")
	}
	// Local call still fine.
	r.domain.Call(0, "scale", spec(r, addr), func(err error) { callErr = err })
	r.eng.RunUntilIdle()
	if callErr != nil {
		t.Errorf("local call under private policy failed: %v", callErr)
	}
}

func TestUnknownKernel(t *testing.T) {
	r := newRig(t, 2)
	var err error
	r.domain.Call(0, "nope", accel.CallSpec{}, func(e error) { err = e })
	if err == nil {
		t.Error("unknown kernel should fail")
	}
}

func TestLeastLoadedRouting(t *testing.T) {
	r := newRig(t, 4)
	deploy(t, r, 0)
	deploy(t, r, 1)
	addr := r.space.Alloc(0, 4096)
	// Fire many concurrent calls from worker 3 (equidistant on a flat
	// 1-level tree): they must spread across both instances.
	for i := 0; i < 10; i++ {
		r.domain.Call(3, "scale", spec(r, addr), nil)
	}
	r.eng.RunUntilIdle()
	util := r.domain.Utilization()
	if util["scale@0"] == 0 || util["scale@1"] == 0 {
		t.Errorf("load not spread: %v", util)
	}
	if b := r.domain.Balance("scale"); b > 1.5 {
		t.Errorf("balance %v too skewed", b)
	}
}

func TestNearestPreferredWhenIdle(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := topo.NewTree(2, 2) // workers 0,1 in CN0; 2,3 in CN1
	meter := energy.NewMeter(eng, energy.DefaultCostModel())
	net := noc.NewNetwork(eng, tr, noc.DefaultConfig(tr.MaxHops()), meter, nil)
	space := unimem.NewSpace(net, unimem.DefaultConfig(), nil)
	var mgrs []*accel.Manager
	for w := 0; w < 4; w++ {
		mgrs = append(mgrs, accel.NewManager(w, fabric.New(eng, fabric.DefaultConfig(), meter), space, smmu.New(smmu.DefaultConfig()), meter))
	}
	d := newDomain(tr, mgrs, eng)
	r := &rig{eng: eng, space: space, domain: d}
	inNear := deploy(t, r, 1) // same CN as caller 0
	deploy(t, r, 3)           // remote CN
	addr := space.Alloc(0, 4096)
	d.Call(0, "scale", spec(r, addr), nil)
	eng.RunUntilIdle()
	if inNear.Calls() != 1 {
		t.Error("idle nearest instance was not preferred")
	}
}

func TestSharedBeatsPrivateUnderSkew(t *testing.T) {
	// E6 shape: skewed demand (all calls from one worker) finishes sooner
	// when the worker can use everyone's fabric.
	run := func(policy Policy) sim.Time {
		r := newRig(t, 4)
		r.domain.Policy = policy
		for w := 0; w < 4; w++ {
			deploy(t, r, w)
		}
		addr := r.space.Alloc(0, 4096)
		for i := 0; i < 32; i++ {
			r.domain.Call(0, "scale", accel.CallSpec{
				Bindings: map[string]float64{"N": 4096},
				Reads:    []accel.Span{{Addr: addr, Size: 1024}},
			}, nil)
		}
		r.eng.RunUntilIdle()
		return r.eng.Now()
	}
	shared, private := run(Shared), run(Private)
	if shared >= private {
		t.Errorf("shared pool (%v) should beat private (%v) under skewed demand", shared, private)
	}
}

func TestDeployDuplicateRegistersOnce(t *testing.T) {
	r := newRig(t, 2)
	deploy(t, r, 0)
	deploy(t, r, 0)
	if n := len(r.domain.Instances("scale")); n != 1 {
		t.Errorf("duplicate deploy registered %d instances", n)
	}
}

func TestKernelsSorted(t *testing.T) {
	r := newRig(t, 2)
	deploy(t, r, 0)
	im, _ := hls.Synthesize(hls.MustParse(strings.Replace(srcScale, "scale", "alpha", 1)), hls.DefaultDirectives())
	r.domain.Deploy(1, im, func(*accel.Instance, error) {})
	r.eng.RunUntilIdle()
	ks := r.domain.Kernels()
	if len(ks) != 2 || ks[0] != "alpha" || ks[1] != "scale" {
		t.Errorf("Kernels = %v", ks)
	}
}

func TestManagerMismatchPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := topo.NewTree(4)
	defer func() {
		if recover() == nil {
			t.Error("manager count mismatch did not panic")
		}
	}()
	newDomain(tr, nil, eng)
}

func TestPolicyString(t *testing.T) {
	if Shared.String() != "shared" || Private.String() != "private" {
		t.Error("policy strings wrong")
	}
}

func TestSharedCNScopesToComputeNode(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := topo.NewTree(2, 2) // workers 0,1 | 2,3
	meter := energy.NewMeter(eng, energy.DefaultCostModel())
	net := noc.NewNetwork(eng, tr, noc.DefaultConfig(tr.MaxHops()), meter, nil)
	space := unimem.NewSpace(net, unimem.DefaultConfig(), nil)
	var mgrs []*accel.Manager
	for w := 0; w < 4; w++ {
		mgrs = append(mgrs, accel.NewManager(w, fabric.New(eng, fabric.DefaultConfig(), meter), space,
			smmu.New(smmu.DefaultConfig()), meter))
	}
	d := newDomain(tr, mgrs, eng)
	d.Policy = SharedCN
	r := &rig{eng: eng, space: space, domain: d}
	deploy(t, r, 0) // instance in CN0
	addr := space.Alloc(0, 4096)
	// Same-CN caller succeeds.
	var err1, err2 error
	d.Call(1, "scale", spec(r, addr), func(e error) { err1 = e })
	eng.RunUntilIdle()
	if err1 != nil {
		t.Errorf("intra-CN call failed: %v", err1)
	}
	// Cross-CN caller is refused: that path belongs to MPI.
	d.Call(2, "scale", spec(r, addr), func(e error) { err2 = e })
	eng.RunUntilIdle()
	if err2 == nil {
		t.Error("cross-CN call succeeded under SharedCN")
	}
	if SharedCN.String() != "shared-cn" {
		t.Error("policy string wrong")
	}
}
