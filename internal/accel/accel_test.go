package accel

import (
	"bytes"
	"errors"
	"strings"
	"testing"

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

type rig struct {
	eng   *sim.Engine
	space *unimem.Space
	meter *energy.Meter
	mgrs  []*Manager
}

func newRig(t testing.TB, workers int) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	tr := topo.NewTree(workers)
	meter := energy.NewMeter(eng, energy.DefaultCostModel())
	net := noc.NewNetwork(eng, tr, noc.DefaultConfig(tr.MaxHops()), meter, nil)
	space := unimem.NewSpace(net, unimem.DefaultConfig(), nil)
	r := &rig{eng: eng, space: space, meter: meter}
	for w := 0; w < workers; w++ {
		fab := fabric.New(eng, fabric.DefaultConfig(), meter)
		mmu := smmu.New(smmu.DefaultConfig())
		r.mgrs = append(r.mgrs, NewManager(w, fab, space, mmu, meter))
	}
	return r
}

// identityMap makes stream sid see VA==PA for the whole space.
func identityMap(m *Manager, sid int) {
	m.MMU.BindContext(sid, 1, 1)
	for p := uint64(0); p < 64; p++ {
		m.MMU.MapStage1(1, p*4096, p*4096, smmu.PermRW)
		m.MMU.MapStage2(1, p*4096, p*4096, smmu.PermRW)
	}
}

func mustImpl(t testing.TB, src string, dir hls.Directives) *hls.Impl {
	t.Helper()
	im, err := hls.Synthesize(hls.MustParse(src), dir)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func ensure(t testing.TB, r *rig, w int, im *hls.Impl) *Instance {
	t.Helper()
	var inst *Instance
	r.mgrs[w].Ensure(im, func(in *Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		inst = in
	})
	r.eng.RunUntilIdle()
	if inst == nil {
		t.Fatal("Ensure never completed")
	}
	identityMap(r.mgrs[w], inst.StreamID)
	return inst
}

func TestEnsureLoadsOnce(t *testing.T) {
	r := newRig(t, 2)
	im := mustImpl(t, srcScale, hls.DefaultDirectives())
	in1 := ensure(t, r, 0, im)
	loads := r.mgrs[0].Fab.Loads()
	in2 := ensure(t, r, 0, im)
	if in1 != in2 {
		t.Error("second Ensure returned a different instance")
	}
	if r.mgrs[0].Fab.Loads() != loads {
		t.Error("second Ensure reconfigured")
	}
	if r.mgrs[0].Instances() != 1 || r.mgrs[0].Lookup(im.Module().Name) != in1 {
		t.Error("bookkeeping wrong")
	}
}

func TestInvokeTimedAndCounted(t *testing.T) {
	r := newRig(t, 2)
	im := mustImpl(t, srcScale, hls.DefaultDirectives())
	in := ensure(t, r, 0, im)
	addr := r.space.Alloc(0, 4096)
	var end sim.Time
	var callErr error
	in.Invoke(0, CallSpec{
		Bindings: map[string]float64{"N": 256},
		Reads:    []Span{{addr, 2048}},
		Writes:   []Span{{addr, 2048}},
	}, func(err error) { callErr = err; end = r.eng.Now() })
	r.eng.RunUntilIdle()
	if callErr != nil {
		t.Fatal(callErr)
	}
	if end == 0 {
		t.Fatal("invoke took no time")
	}
	if in.Calls() != 1 {
		t.Error("call accounting wrong")
	}
	if r.meter.Category("fpga") <= 0 {
		t.Error("no FPGA energy charged")
	}
}

func TestInvokeDataPlane(t *testing.T) {
	r := newRig(t, 2)
	im := mustImpl(t, srcScale, hls.DefaultDirectives())
	in := ensure(t, r, 0, im)
	addr := r.space.Alloc(0, 4096)
	n := 8
	for i := 0; i < n; i++ {
		r.space.PokeWord(addr+uint64(i*8), uint64(i))
	}
	in.Invoke(1, CallSpec{
		Bindings: map[string]float64{"N": float64(n)},
		Reads:    []Span{{addr, n * 8}},
		Writes:   []Span{{addr, n * 8}},
		Exec: func() error {
			for i := 0; i < n; i++ {
				a := addr + uint64(i*8)
				r.space.PokeWord(a, r.space.PeekWord(a)*2)
			}
			return nil
		},
	}, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	r.eng.RunUntilIdle()
	for i := 0; i < n; i++ {
		if got := r.space.PeekWord(addr + uint64(i*8)); got != uint64(i*2) {
			t.Errorf("word %d = %d, want %d", i, got, i*2)
		}
	}
}

func TestSMMUFaultAborts(t *testing.T) {
	r := newRig(t, 2)
	im := mustImpl(t, srcScale, hls.DefaultDirectives())
	var inst *Instance
	r.mgrs[0].Ensure(im, func(in *Instance, err error) { inst = in })
	r.eng.RunUntilIdle()
	// No SMMU mappings installed: the call must fault, not run.
	addr := r.space.Alloc(0, 4096)
	var callErr error
	inst.Invoke(0, CallSpec{
		Bindings: map[string]float64{"N": 4},
		Reads:    []Span{{addr, 64}},
	}, func(err error) { callErr = err })
	r.eng.RunUntilIdle()
	if callErr == nil {
		t.Fatal("unmapped accelerator access did not fault")
	}
	if !strings.Contains(callErr.Error(), "smmu") {
		t.Errorf("error %v is not an SMMU fault", callErr)
	}
}

func TestVirtualizationPipelines(t *testing.T) {
	run := func(virt bool) sim.Time {
		r := newRig(t, 2)
		r.mgrs[0].Virtualize = virt
		im := mustImpl(t, srcScale, hls.DefaultDirectives())
		in := ensure(t, r, 0, im)
		addr := r.space.Alloc(0, 4096)
		for c := 0; c < 8; c++ {
			in.Invoke(0, CallSpec{Bindings: map[string]float64{"N": 512}, Reads: []Span{{addr, 64}}}, nil)
		}
		r.eng.RunUntilIdle()
		return r.eng.Now()
	}
	pipe, serial := run(true), run(false)
	if pipe >= serial {
		t.Errorf("virtualized pipelined calls (%v) should beat serialized (%v)", pipe, serial)
	}
}

func TestEnsureFullFabricFails(t *testing.T) {
	r := newRig(t, 1)
	// Shrink the fabric to 2x2 regions so multi-region modules collide.
	small := fabric.DefaultConfig()
	small.Rows, small.Cols = 2, 2
	r.mgrs[0] = NewManager(0, fabric.New(r.eng, small, r.meter), r.space, smmu.New(smmu.DefaultConfig()), r.meter)
	m := r.mgrs[0]
	big := hls.Directives{Unroll: 16, MemPorts: 4, Share: 1, Pipeline: true}
	var resident []string
	for i := 0; i < 5; i++ {
		src := strings.Replace(srcScale, "kernel scale", "kernel scale"+string(rune('a'+i)), 1)
		im := mustImpl(t, src, big)
		failures := m.Fab.PlacementFailures()
		var ensureErr error
		m.Ensure(im, func(_ *Instance, err error) { ensureErr = err })
		r.eng.RunUntilIdle()
		if ensureErr == nil {
			resident = append(resident, im.Module().Name)
			continue
		}
		var nos *fabric.ErrNoSpace
		if !errors.As(ensureErr, &nos) {
			t.Fatalf("Ensure on a full fabric: %v, want *fabric.ErrNoSpace", ensureErr)
		}
		// One failed Place before the defragmentation, one after it.
		if got := m.Fab.PlacementFailures() - failures; got != 2 {
			t.Errorf("%d failed placements, want 2 (place, defragment, place)", got)
		}
		if len(resident) == 0 {
			t.Fatal("no module fit in the empty fabric")
		}
		for _, n := range resident {
			if m.Lookup(n) == nil {
				t.Errorf("resident module %s unloaded by a failed Ensure", n)
			}
		}
		if m.Instances() != len(resident) {
			t.Errorf("%d instances, want %d", m.Instances(), len(resident))
		}
		return
	}
	t.Fatal("five multi-region modules fit in a 2x2 fabric")
}

func TestLocalCallerFasterThanRemote(t *testing.T) {
	// The UNILOGIC NUMA effect at the accel layer: invoking an
	// accelerator whose data is local beats streaming from a remote page.
	measure := func(dataOwner int) sim.Time {
		r := newRig(t, 4)
		im := mustImpl(t, srcScale, hls.DefaultDirectives())
		in := ensure(t, r, 0, im)
		addr := r.space.Alloc(dataOwner, 65536)
		var end sim.Time
		in.Invoke(0, CallSpec{
			Bindings: map[string]float64{"N": 1024},
			Reads:    []Span{{addr, 32768}},
			Writes:   []Span{{addr, 32768}},
		}, func(error) { end = r.eng.Now() })
		r.eng.RunUntilIdle()
		return end
	}
	local, remote := measure(0), measure(3)
	if local >= remote {
		t.Errorf("local-data call (%v) should beat remote-data call (%v)", local, remote)
	}
}

func TestChainMovesLessData(t *testing.T) {
	// E12 shape: a 3-stage chain should beat 3 separate invocations that
	// each stream the buffer in and out.
	const size = 65536
	im := func(r *rig, i int) *Instance {
		src := strings.Replace(srcScale, "kernel scale", "kernel stage"+string(rune('a'+i)), 1)
		return ensure(t, r, 0, mustImpl(t, src, hls.DefaultDirectives()))
	}
	bind := map[string]float64{"N": 1024}

	rc := newRig(t, 2)
	stages := []*Instance{im(rc, 0), im(rc, 1), im(rc, 2)}
	addr := rc.space.Alloc(0, size)
	var chainEnd sim.Time
	start := rc.eng.Now()
	Chain(0, stages, Span{addr, size}, bind, func(error) { chainEnd = rc.eng.Now() - start })
	rc.eng.RunUntilIdle()

	rs := newRig(t, 2)
	sep := []*Instance{im(rs, 0), im(rs, 1), im(rs, 2)}
	addr2 := rs.space.Alloc(0, size)
	var sepEnd sim.Time
	var step func(i int)
	step = func(i int) {
		if i == 3 {
			sepEnd = rs.eng.Now()
			return
		}
		sep[i].Invoke(0, CallSpec{Bindings: bind,
			Reads:  []Span{{addr2, size}},
			Writes: []Span{{addr2, size}},
		}, func(error) { step(i + 1) })
	}
	step(0)
	rs.eng.RunUntilIdle()

	if chainEnd >= sepEnd {
		t.Errorf("chained pipeline (%v) should beat store-and-forward (%v)", chainEnd, sepEnd)
	}
}

func TestChainEmpty(t *testing.T) {
	done := false
	Chain(0, nil, Span{}, nil, func(error) { done = true })
	if !done {
		t.Error("empty chain did not complete")
	}
}

// TestChainPreservesData checks that a chain's tail stream leaves the
// chained span's bytes as they were: the stages model timing only, so
// the write-out is an identity write-back.
func TestChainPreservesData(t *testing.T) {
	const size = 4096 + 1000
	r := newRig(t, 2)
	stages := []*Instance{
		ensure(t, r, 0, mustImpl(t, srcScale, hls.DefaultDirectives())),
		ensure(t, r, 1, mustImpl(t, strings.Replace(srcScale, "kernel scale", "kernel scaleb", 1), hls.DefaultDirectives())),
	}
	addr := r.space.Alloc(0, size)
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*13 + 1)
	}
	r.space.Poke(addr, want[:4096])
	r.space.Poke(addr+4096, want[4096:])
	var done bool
	Chain(0, stages, Span{addr, size}, map[string]float64{"N": 16}, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	r.eng.RunUntilIdle()
	if !done {
		t.Fatal("chain never completed")
	}
	if got := r.space.PeekRange(addr, size); !bytes.Equal(got, want) {
		t.Error("chain overwrote the span it streams")
	}
}
