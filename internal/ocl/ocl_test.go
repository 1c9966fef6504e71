package ocl

import (
	"math"
	"strings"
	"testing"

	"ecoscale/internal/core"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
	"ecoscale/internal/workload"
)

func newCtx(t testing.TB, workersPerCN, cns int) *Context {
	t.Helper()
	m := core.New(core.DefaultConfig(workersPerCN, cns))
	return NewPlatform(m).CreateContext()
}

func TestBufferPokePeek(t *testing.T) {
	ctx := newCtx(t, 2, 1)
	b := ctx.CreateBuffer(100, OnWorker, 1)
	host := make([]float64, 100)
	for i := range host {
		host[i] = float64(i) * 1.5
	}
	b.Poke(host)
	got := b.Peek()
	for i := range host {
		if got[i] != host[i] {
			t.Fatalf("elem %d = %v, want %v", i, got[i], host[i])
		}
	}
	if ctx.p.M.Space.OwnerOf(b.addr) != 1 {
		t.Error("OnWorker placement ignored")
	}
}

// TestBufferPokePeekMatchWords checks the page-at-a-time Poke and Peek
// of a 3-page interleaved buffer against per-word PokeWord/PeekWord.
func TestBufferPokePeekMatchWords(t *testing.T) {
	ctx := newCtx(t, 2, 1)
	space := ctx.p.M.Space
	elems := 2*space.PageBytes()/8 + 100
	b := ctx.CreateBuffer(elems, Interleaved, 0)
	host := make([]float64, elems)
	for i := range host {
		host[i] = float64(i)*1.5 - 7
	}
	b.Poke(host)
	for i, v := range host {
		if got := space.PeekWord(b.addr + uint64(8*i)); got != math.Float64bits(v) {
			t.Fatalf("word %d after Poke = %#x, want %#x", i, got, math.Float64bits(v))
		}
	}
	for i := range host {
		host[i] = -float64(i) / 3
		space.PokeWord(b.addr+uint64(8*i), math.Float64bits(host[i]))
	}
	got := b.Peek()
	if len(got) != elems {
		t.Fatalf("Peek returned %d elements, want %d", len(got), elems)
	}
	for i, v := range host {
		if got[i] != v {
			t.Fatalf("Peek elem %d = %v, want %v", i, got[i], v)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Poke of elems+1 values did not panic")
			}
		}()
		b.Poke(make([]float64, elems+1))
	}()
	if n := testing.AllocsPerRun(10, func() { b.Poke(host) }); n != 0 {
		t.Errorf("Poke makes %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { b.Peek() }); n != 1 {
		t.Errorf("Peek makes %v allocations, want 1", n)
	}
}

func TestBufferInterleaved(t *testing.T) {
	ctx := newCtx(t, 4, 1)
	// 4 pages worth of elements.
	elems := 4 * ctx.p.M.Space.PageBytes() / 8
	b := ctx.CreateBuffer(elems, Interleaved, 0)
	owners := map[int]bool{}
	pageB := uint64(ctx.p.M.Space.PageBytes())
	for p := uint64(0); p < 4; p++ {
		owners[ctx.p.M.Space.OwnerOf(b.addr+p*pageB)] = true
	}
	if len(owners) != 4 {
		t.Errorf("interleaving used %d owners, want 4", len(owners))
	}
}

func TestProgramBuildAndEnqueue(t *testing.T) {
	ctx := newCtx(t, 2, 1)
	prog, err := ctx.CreateProgram(workload.VecAdd.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(hls.DefaultDirectives()); err != nil {
		t.Fatal(err)
	}
	n := 32
	a := ctx.CreateBuffer(n, OnWorker, 0)
	bb := ctx.CreateBuffer(n, OnWorker, 0)
	cc := ctx.CreateBuffer(n, OnWorker, 0)
	av := make([]float64, n)
	bv := make([]float64, n)
	for i := 0; i < n; i++ {
		av[i] = float64(i)
		bv[i] = float64(10 * i)
	}
	a.Poke(av)
	bb.Poke(bv)
	q := ctx.CreateQueue(0)
	ev := q.EnqueueKernel(prog, "vecadd",
		[]Arg{BufArg(a), BufArg(bb), BufArg(cc), ScalarArg(float64(n))}, nil)
	if err := ctx.WaitAll(ev); err != nil {
		t.Fatal(err)
	}
	got := cc.Peek()
	for i := 0; i < n; i++ {
		if got[i] != av[i]+bv[i] {
			t.Fatalf("c[%d] = %v, want %v", i, got[i], av[i]+bv[i])
		}
	}
}

func TestEnqueueErrors(t *testing.T) {
	ctx := newCtx(t, 2, 1)
	prog, _ := ctx.CreateProgram(workload.VecAdd.Source)
	q := ctx.CreateQueue(0)
	if ev := q.EnqueueKernel(prog, "nope", nil, nil); ev.Err == nil {
		t.Error("unknown kernel should fail immediately")
	}
	if ev := q.EnqueueKernel(prog, "vecadd", []Arg{ScalarArg(1)}, nil); ev.Err == nil {
		t.Error("arg count mismatch should fail")
	}
	if ev := q.EnqueueKernel(prog, "vecadd",
		[]Arg{ScalarArg(1), ScalarArg(1), ScalarArg(1), ScalarArg(1)}, nil); ev.Err == nil {
		t.Error("missing buffer should fail")
	}
}

func TestEventDependencies(t *testing.T) {
	ctx := newCtx(t, 2, 1)
	prog, _ := ctx.CreateProgram(workload.VecAdd.Source)
	if err := prog.Build(hls.DefaultDirectives()); err != nil {
		t.Fatal(err)
	}
	n := 16
	a := ctx.CreateBuffer(n, OnWorker, 0)
	b := ctx.CreateBuffer(n, OnWorker, 0)
	c := ctx.CreateBuffer(n, OnWorker, 0)
	d := ctx.CreateBuffer(n, OnWorker, 0)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	a.Poke(ones)
	b.Poke(ones)
	q := ctx.CreateQueue(0)
	args1 := []Arg{BufArg(a), BufArg(b), BufArg(c), ScalarArg(float64(n))}
	ev1 := q.EnqueueKernel(prog, "vecadd", args1, nil)
	// d = c + a depends on ev1.
	args2 := []Arg{BufArg(c), BufArg(a), BufArg(d), ScalarArg(float64(n))}
	ev2 := q.EnqueueKernel(prog, "vecadd", args2, []*Event{ev1})
	if err := ctx.WaitAll(ev1, ev2); err != nil {
		t.Fatal(err)
	}
	for i, v := range d.Peek() {
		if v != 3 {
			t.Fatalf("d[%d] = %v, want 3 (chain broken)", i, v)
		}
	}
}

func TestRuntimeDispatchesToHardware(t *testing.T) {
	ctx := newCtx(t, 2, 1)
	prog, _ := ctx.CreateProgram(workload.VecAdd.Source)
	if err := prog.Build(hls.Directives{Unroll: 8, MemPorts: 16, Share: 1, Pipeline: true}); err != nil {
		t.Fatal(err)
	}
	if err := prog.DeployTo("vecadd", 0); err != nil {
		t.Fatal(err)
	}
	ctx.p.M.SetPolicy(rts.PolicyHW{})
	n := 512
	a := ctx.CreateBuffer(n, OnWorker, 0)
	b := ctx.CreateBuffer(n, OnWorker, 0)
	c := ctx.CreateBuffer(n, OnWorker, 0)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = float64(i % 7)
	}
	a.Poke(ones)
	b.Poke(ones)
	q := ctx.CreateQueue(0)
	ev := q.EnqueueKernel(prog, "vecadd", []Arg{BufArg(a), BufArg(b), BufArg(c), ScalarArg(float64(n))}, nil)
	if err := ctx.WaitAll(ev); err != nil {
		t.Fatal(err)
	}
	if ctx.p.M.Sched(0).Executed(rts.DeviceHW) != 1 {
		t.Error("task did not run in hardware")
	}
	for i, v := range c.Peek() {
		if math.Abs(v-2*ones[i]) > 1e-12 {
			t.Fatalf("hw result wrong at %d: %v", i, v)
		}
	}
}

func TestCreateProgramErrors(t *testing.T) {
	ctx := newCtx(t, 2, 1)
	if _, err := ctx.CreateProgram("garbage"); err == nil {
		t.Error("bad source should fail")
	}
	if _, err := ctx.CreateProgram(workload.VecAdd.Source, workload.VecAdd.Source); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate kernels should fail: %v", err)
	}
	prog, _ := ctx.CreateProgram(workload.VecAdd.Source)
	if err := prog.DeployTo("vecadd", 0); err == nil {
		t.Error("deploy before build should fail")
	}
}

func TestPanics(t *testing.T) {
	ctx := newCtx(t, 2, 1)
	for name, fn := range map[string]func(){
		"zero buffer": func() { ctx.CreateBuffer(0, OnWorker, 0) },
		"bad queue":   func() { ctx.CreateQueue(5) },
		"big poke":    func() { ctx.CreateBuffer(2, OnWorker, 0).Poke(make([]float64, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
