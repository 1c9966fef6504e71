package hls

import (
	"strings"
	"testing"

	"ecoscale/internal/fabric"
)

func TestSynthesizeVecAdd(t *testing.T) {
	k := MustParse(srcVecAdd)
	im, err := Synthesize(k, DefaultDirectives())
	if err != nil {
		t.Fatal(err)
	}
	if im.II() != 3 { // 2 loads + 1 store over 1 mem port
		t.Errorf("II = %d, want 3 (memory-bound)", im.II())
	}
	if im.Area.IsZero() {
		t.Error("zero area estimate")
	}
	if im.Depth() <= 0 {
		t.Error("non-positive depth")
	}
}

func TestSynthesizeDotRecurrence(t *testing.T) {
	k := MustParse(srcDot)
	im, err := Synthesize(k, Directives{Unroll: 1, MemPorts: 4, Share: 1, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	// acc = acc + A[i]*B[i]: recurrence through the fadd (plus the chain
	// feeding it has no effect on RecMII beyond the add itself being in
	// the cycle — our conservative model uses the RHS critical path).
	if im.II() < opLatency[OpFAdd] {
		t.Errorf("II = %d; reduction recurrence must bound II to >= %d", im.II(), opLatency[OpFAdd])
	}
}

func TestMorePortsLowerII(t *testing.T) {
	k := MustParse(srcVecAdd)
	im1, _ := Synthesize(k, Directives{Unroll: 1, MemPorts: 1, Share: 1, Pipeline: true})
	im4, _ := Synthesize(k, Directives{Unroll: 1, MemPorts: 4, Share: 1, Pipeline: true})
	if im4.II() >= im1.II() {
		t.Errorf("4-port II (%d) should be below 1-port II (%d)", im4.II(), im1.II())
	}
}

func TestUnrollNeedsPorts(t *testing.T) {
	k := MustParse(srcVecAdd)
	base, _ := Synthesize(k, Directives{Unroll: 1, MemPorts: 1, Share: 1, Pipeline: true})
	u4p1, _ := Synthesize(k, Directives{Unroll: 4, MemPorts: 1, Share: 1, Pipeline: true})
	u4p4, _ := Synthesize(k, Directives{Unroll: 4, MemPorts: 4, Share: 1, Pipeline: true})
	bind := map[string]float64{"N": 4096}
	cb, _ := base.Cycles(bind)
	c41, _ := u4p1.Cycles(bind)
	c44, _ := u4p4.Cycles(bind)
	// Unrolling without ports is pointless (memory bound), with ports it pays.
	if c44 >= cb {
		t.Errorf("unroll4+ports4 (%d) should beat baseline (%d)", c44, cb)
	}
	if c41 < c44 {
		t.Errorf("unroll4+1port (%d) should not beat unroll4+4ports (%d)", c41, c44)
	}
}

func TestPipelineBeatsSequential(t *testing.T) {
	k := MustParse(srcVecAdd)
	pipe, _ := Synthesize(k, Directives{Unroll: 1, MemPorts: 1, Share: 1, Pipeline: true})
	seq, _ := Synthesize(k, Directives{Unroll: 1, MemPorts: 1, Share: 1, Pipeline: false})
	bind := map[string]float64{"N": 4096}
	cp, _ := pipe.Cycles(bind)
	cs, _ := seq.Cycles(bind)
	if cp >= cs {
		t.Errorf("pipelined (%d) should beat sequential (%d)", cp, cs)
	}
}

func TestSharingShrinksAreaRaisesII(t *testing.T) {
	k := MustParse(`
kernel wide(global float* A, global float* B, int N) {
    for (i = 0; i < N; i++) {
        B[i] = A[i]*2.0 + A[i]*3.0 + A[i]*4.0 + A[i]*5.0;
    }
}`)
	full, _ := Synthesize(k, Directives{Unroll: 1, MemPorts: 4, Share: 1, Pipeline: true})
	shared, _ := Synthesize(k, Directives{Unroll: 1, MemPorts: 4, Share: 4, Pipeline: true})
	if AreaScalar(shared.Area) >= AreaScalar(full.Area) {
		t.Errorf("shared area (%d) should be below full (%d)", AreaScalar(shared.Area), AreaScalar(full.Area))
	}
	if shared.II() <= full.II() {
		t.Errorf("shared II (%d) should exceed full II (%d)", shared.II(), full.II())
	}
}

func TestCyclesMatMulScaling(t *testing.T) {
	k := MustParse(srcMatMul)
	im, err := Synthesize(k, DefaultDirectives())
	if err != nil {
		t.Fatal(err)
	}
	c16, err := im.Cycles(map[string]float64{"N": 16})
	if err != nil {
		t.Fatal(err)
	}
	c32, _ := im.Cycles(map[string]float64{"N": 32})
	ratio := float64(c32) / float64(c16)
	// O(N^3) work with pipelined inner loop: ~N^2 * (depth + (N-1)*II),
	// so doubling N should give ~6-8x.
	if ratio < 5 || ratio > 10 {
		t.Errorf("N 16→32 cycle ratio = %.1f, want ~8 (O(N^3))", ratio)
	}
}

func TestCyclesZeroTrip(t *testing.T) {
	k := MustParse(srcVecAdd)
	im, _ := Synthesize(k, DefaultDirectives())
	c, err := im.Cycles(map[string]float64{"N": 0})
	if err != nil {
		t.Fatal(err)
	}
	if c > im.CallOverheadCycles+4 {
		t.Errorf("zero-trip kernel cost %d cycles", c)
	}
}

func TestTimePositive(t *testing.T) {
	k := MustParse(srcVecAdd)
	im, _ := Synthesize(k, DefaultDirectives())
	d, err := im.Time(map[string]float64{"N": 1024})
	if err != nil || d <= 0 {
		t.Errorf("Time = %v, %v", d, err)
	}
}

// Directives past MaxDirective are rejected before the unrolled dataflow
// graph is built; the default and the DSE's largest point still synthesize.
func TestSynthesizeDirectiveBounds(t *testing.T) {
	k := MustParse(srcVecAdd)
	for _, c := range []struct {
		dir Directives
		ok  bool
	}{
		{DefaultDirectives(), true},
		{Directives{Unroll: 16, MemPorts: 16, Share: 4, Pipeline: true}, true},
		{Directives{Unroll: MaxDirective, MemPorts: MaxDirective, Share: MaxDirective}, true},
		{Directives{Unroll: 100000000, MemPorts: 1, Share: 1}, false},
		{Directives{Unroll: 1, MemPorts: MaxDirective + 1, Share: 1}, false},
		{Directives{Unroll: 1, MemPorts: 1, Share: 1 << 40}, false},
	} {
		_, err := Synthesize(k, c.dir)
		if (err == nil) != c.ok {
			t.Errorf("Synthesize(%s): err = %v, want ok = %v", c.dir, err, c.ok)
		}
	}
}

// A problem size whose estimate cannot be represented is an error, not a
// wrapped negative cycle count or time.
func TestEstimateOverflow(t *testing.T) {
	for _, c := range []struct {
		src      string
		n        float64
		cyclesOK bool
		timeOK   bool
	}{
		{srcVecAdd, 1e12, true, true},
		{srcVecAdd, 1e15, true, false},
		{srcMatMul, 1e4, true, true},
		{srcMatMul, 1e7, false, false},
	} {
		im, err := Synthesize(MustParse(c.src), DefaultDirectives())
		if err != nil {
			t.Fatal(err)
		}
		bind := map[string]float64{"N": c.n}
		cycles, err := im.Cycles(bind)
		if (err == nil) != c.cyclesOK || cycles < 0 {
			t.Errorf("%s N=%g: Cycles = %d, %v; want ok = %v", im.Kernel.Name, c.n, cycles, err, c.cyclesOK)
		}
		d, err := im.Time(bind)
		if (err == nil) != c.timeOK || d < 0 {
			t.Errorf("%s N=%g: Time = %v, %v; want ok = %v", im.Kernel.Name, c.n, d, err, c.timeOK)
		}
	}
}

func TestModuleDescriptor(t *testing.T) {
	k := MustParse(srcVecAdd)
	im, _ := Synthesize(k, DefaultDirectives())
	mod := im.Module()
	if !strings.HasPrefix(mod.Name, "vecadd_") {
		t.Errorf("module name %q", mod.Name)
	}
	if mod.Req != im.Area {
		t.Error("module resources differ from impl area")
	}
}

func TestCPUModel(t *testing.T) {
	m := DefaultCPUModel()
	small := m.Time(RunStats{Ops: 10, Loads: 2, Stores: 1})
	big := m.Time(RunStats{Ops: 1000000, Loads: 200000, Stores: 100000})
	if small >= big {
		t.Error("CPU time not monotone in work")
	}
	if small < m.CallOverhead {
		t.Error("CPU time below call overhead")
	}
}

func TestExploreParetoFront(t *testing.T) {
	k := MustParse(srcVecAdd)
	front, err := Explore(k, fabric.Resources{}, map[string]float64{"N": 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 2 {
		t.Fatalf("front has %d points; expected a real trade-off space", len(front))
	}
	for i := 1; i < len(front); i++ {
		if !(front[i].Cycles >= front[i-1].Cycles && front[i].Area < front[i-1].Area) {
			t.Errorf("front not Pareto-ordered at %d: %+v then %+v",
				i, front[i-1], front[i])
		}
	}
}

func TestExploreBudget(t *testing.T) {
	k := MustParse(srcMatMul)
	bind := map[string]float64{"N": 64}
	unbounded, err := Fastest(k, fabric.Resources{}, bind)
	if err != nil {
		t.Fatal(err)
	}
	tight := fabric.Resources{LUT: 2500, FF: 4000, BRAM: 8, DSP: 12}
	constrained, err := Fastest(k, tight, bind)
	if err != nil {
		t.Fatal(err)
	}
	if !constrained.Area.FitsIn(tight) {
		t.Error("constrained point exceeds budget")
	}
	cu, _ := unbounded.Cycles(bind)
	cc, _ := constrained.Cycles(bind)
	if cu > cc {
		// Unbounded must be at least as fast.
		t.Errorf("unbounded (%d cycles) slower than constrained (%d)", cu, cc)
	}
}

func TestExploreImpossibleBudget(t *testing.T) {
	k := MustParse(srcVecAdd)
	_, err := Explore(k, fabric.Resources{LUT: 1}, map[string]float64{"N": 16})
	if err == nil {
		t.Error("impossible budget should error")
	}
}

func TestReport(t *testing.T) {
	k := MustParse(srcDot)
	im, _ := Synthesize(k, DefaultDirectives())
	r := im.Report(map[string]float64{"N": 128})
	if !strings.Contains(r, "II=") || !strings.Contains(r, "cycles") {
		t.Errorf("report missing fields: %s", r)
	}
}

func TestTripCountShapes(t *testing.T) {
	cases := []struct {
		src  string
		n    float64
		want int64
	}{
		{`kernel f(global float* A, int N) { for (i = 0; i < N; i++) { A[0] = i; } }`, 10, 10},
		{`kernel f(global float* A, int N) { for (i = 0; i <= N; i++) { A[0] = i; } }`, 10, 11},
		{`kernel f(global float* A, int N) { for (i = 0; i < N; i = i + 2) { A[0] = i; } }`, 10, 5},
		{`kernel f(global float* A, int N) { for (i = N; i > 0; i--) { A[0] = i; } }`, 10, 10},
		{`kernel f(global float* A, int N) { for (i = N; i >= 1; i--) { A[0] = i; } }`, 10, 10},
		{`kernel f(global float* A, int N) { for (i = 0; i < N; i++) { A[0] = i; } }`, 0, 0},
	}
	for _, c := range cases {
		k := MustParse(c.src)
		loop := k.Body[0].(*For)
		got, err := tripCount(loop, map[string]float64{"N": c.n})
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("tripCount(N=%v) = %d, want %d for %s", c.n, got, c.want, c.src)
		}
	}
}

func TestTripCountErrors(t *testing.T) {
	for _, c := range []struct {
		src string
		n   float64
	}{
		{`kernel f(global float* A, int N) { for (i = 0; i < M; i++) { A[0] = i; } }`, 4}, // unbound M
		{`kernel f(global float* A, int N) { for (i = 0; i < N; i++) { A[0] = i; } }`, 1e300},
	} {
		loop := MustParse(c.src).Body[0].(*For)
		if got, err := tripCount(loop, map[string]float64{"N": c.n}); err == nil {
			t.Errorf("tripCount(N=%g) = %d for %s, want an error", c.n, got, c.src)
		}
	}
}

func TestTypeInference(t *testing.T) {
	k := MustParse(`
kernel f(global float* A, global int* B, int N, float alpha) {
    int i2 = N * 2;
    float x = alpha * 2.0;
    for (i = 0; i < N; i++) { A[i] = x; B[i] = i2; }
}`)
	te := newTypeEnv(k)
	te.learn(k.Body)
	if te.vars["i2"] != Int || te.vars["x"] != Float || te.vars["i"] != Int {
		t.Errorf("inferred types: i2=%v x=%v i=%v", te.vars["i2"], te.vars["x"], te.vars["i"])
	}
	if te.buffers["A"] != Float || te.buffers["B"] != Int {
		t.Error("buffer types wrong")
	}
}

func TestListScheduleRespectsDeps(t *testing.T) {
	// Chain of 3 fadds must take 3*latency even with infinite units.
	ops := []op{
		{kind: OpFAdd},
		{kind: OpFAdd, deps: []int{0}},
		{kind: OpFAdd, deps: []int{1}},
	}
	alloc := Allocation{MemPorts: 4}
	alloc.Units[OpFAdd] = 8
	depth := listSchedule(ops, alloc)
	if depth != 3*opLatency[OpFAdd] {
		t.Errorf("depth = %d, want %d", depth, 3*opLatency[OpFAdd])
	}
}

func TestListScheduleResourceLimit(t *testing.T) {
	// 4 independent fmuls on 1 unit: issue once per cycle.
	ops := make([]op, 4)
	for i := range ops {
		ops[i] = op{kind: OpFMul}
	}
	alloc := Allocation{MemPorts: 1}
	alloc.Units[OpFMul] = 1
	depth := listSchedule(ops, alloc)
	want := 3 + opLatency[OpFMul] // last issues at cycle 3
	if depth != want {
		t.Errorf("depth = %d, want %d", depth, want)
	}
	alloc.Units[OpFMul] = 4
	if d := listSchedule(ops, alloc); d != opLatency[OpFMul] {
		t.Errorf("parallel depth = %d, want %d", d, opLatency[OpFMul])
	}
}

func TestListScheduleEmpty(t *testing.T) {
	if listSchedule(nil, Allocation{MemPorts: 1}) != 1 {
		t.Error("empty schedule should have depth 1")
	}
}

func TestOpKindString(t *testing.T) {
	if OpFMul.String() != "fmul" || OpLoad.String() != "load" {
		t.Error("OpKind strings wrong")
	}
}

func TestDirectivesString(t *testing.T) {
	d := Directives{Unroll: 4, MemPorts: 2, Share: 1, Pipeline: true}
	if d.String() != "u4_m2_s1_pipe" {
		t.Errorf("Directives.String = %q", d.String())
	}
}
