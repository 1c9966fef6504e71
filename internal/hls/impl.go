package hls

import (
	"fmt"
	"math"
	"sort"

	"ecoscale/internal/fabric"
	"ecoscale/internal/sim"
)

// Directives are the synthesis knobs the DSE explores (§4.3: pipelining,
// loop unrolling, data-path partitioning and duplication, DRAM port
// parallelism — "automated as much as possible (while still retaining
// designer control, if and when needed)").
type Directives struct {
	// Unroll replicates the innermost loop body this many times.
	Unroll int
	// MemPorts is the number of memory ports the datapath may issue
	// loads/stores on per cycle.
	MemPorts int
	// Share divides functional units: 1 = fully spatial datapath,
	// higher values share units and raise the initiation interval.
	Share int
	// Pipeline enables modulo pipelining of innermost loops.
	Pipeline bool
}

// MaxDirective caps Unroll, MemPorts and Share: unrolling copies the loop
// body's dataflow graph, and the DSE explores factors up to 16.
const MaxDirective = 64

// DefaultDirectives returns the baseline implementation: no unrolling,
// one memory port, pipelined.
func DefaultDirectives() Directives {
	return Directives{Unroll: 1, MemPorts: 1, Share: 1, Pipeline: true}
}

func (d Directives) String() string {
	p := "nopipe"
	if d.Pipeline {
		p = "pipe"
	}
	return fmt.Sprintf("u%d_m%d_s%d_%s", d.Unroll, d.MemPorts, d.Share, p)
}

// unitArea is the fabric cost of one pipelined unit of each kind.
var unitArea = [numOpKinds]fabric.Resources{
	OpIAdd:    {LUT: 64, FF: 64},
	OpIMul:    {LUT: 50, FF: 80, DSP: 1},
	OpIDiv:    {LUT: 600, FF: 500},
	OpFAdd:    {LUT: 300, FF: 400, DSP: 2},
	OpFMul:    {LUT: 200, FF: 300, DSP: 3},
	OpFDiv:    {LUT: 800, FF: 700, DSP: 2},
	OpCmp:     {LUT: 32, FF: 16},
	OpLoad:    {},
	OpStore:   {},
	OpSpecial: {LUT: 1200, FF: 900, DSP: 4},
}

// memPortArea is the cost of one memory port (address generator +
// buffering).
var memPortArea = fabric.Resources{LUT: 250, FF: 300, BRAM: 2}

// controlArea is the per-loop FSM/counter overhead.
var controlArea = fabric.Resources{LUT: 120, FF: 150}

// loopInfo is the synthesis result for one innermost loop.
type loopInfo struct {
	counts  [numOpKinds]int // per single body instance
	depth   int             // schedule depth of the unrolled body
	ii      int             // initiation interval of the unrolled body
	resOnly int             // ResMII component (for reports)
	recOnly int             // RecMII component
}

// Impl is one hardware implementation point of a kernel.
type Impl struct {
	Kernel *Kernel
	Dir    Directives
	// Area is the estimated fabric demand.
	Area fabric.Resources
	// ClockMHz is the fabric clock.
	ClockMHz float64
	// CallOverheadCycles covers argument setup and pipeline drain per
	// invocation.
	CallOverheadCycles int64

	te    *typeEnv
	loops map[*For]*loopInfo
}

// CPUModel converts a dynamic op mix into CPU time; used as the software
// half of the SW/HW decision (§4.2).
type CPUModel struct {
	ClockGHz     float64
	CPIArith     float64
	CPIMem       float64
	CallOverhead sim.Time
}

// DefaultCPUModel returns a 2 GHz in-order-ish core model.
func DefaultCPUModel() CPUModel {
	return CPUModel{ClockGHz: 2.0, CPIArith: 1.2, CPIMem: 2.5, CallOverhead: 200 * sim.Nanosecond}
}

// Time converts run statistics to execution time.
func (m CPUModel) Time(st RunStats) sim.Time {
	cycles := float64(st.Ops)*m.CPIArith + float64(st.Loads+st.Stores)*m.CPIMem
	ns := cycles / m.ClockGHz
	return m.CallOverhead + sim.Time(ns*float64(sim.Nanosecond))
}

// Synthesize produces an implementation of k under the given directives.
func Synthesize(k *Kernel, dir Directives) (*Impl, error) {
	if dir.Unroll <= 0 {
		dir.Unroll = 1
	}
	if dir.MemPorts <= 0 {
		dir.MemPorts = 1
	}
	if dir.Share <= 0 {
		dir.Share = 1
	}
	if dir.Unroll > MaxDirective || dir.MemPorts > MaxDirective || dir.Share > MaxDirective {
		return nil, fmt.Errorf("hls: directives %s: unroll, memory ports and sharing are each capped at %d", dir, MaxDirective)
	}
	te := newTypeEnv(k)
	te.learn(k.Body)
	im := &Impl{
		Kernel: k, Dir: dir, ClockMHz: 200, CallOverheadCycles: 20,
		te: te, loops: map[*For]*loopInfo{},
	}
	area := fabric.Resources{}
	nLoops := 0
	var walk func(stmts []Stmt) error
	walk = func(stmts []Stmt) error {
		for _, s := range stmts {
			switch st := s.(type) {
			case *For:
				nLoops++
				ops, innermost := bodyDFG(te, st.Body)
				if !innermost {
					if err := walk(st.Body); err != nil {
						return err
					}
					continue
				}
				info := &loopInfo{counts: opCounts(ops)}
				// Unroll: replicate the op list with intra-copy deps only
				// (cross-iteration reductions are tree-balanced).
				unrolled := make([]op, 0, len(ops)*dir.Unroll)
				for u := 0; u < dir.Unroll; u++ {
					base := len(unrolled)
					for _, o := range ops {
						d := make([]int, len(o.deps))
						for j, dep := range o.deps {
							d[j] = dep + base
						}
						unrolled = append(unrolled, op{kind: o.kind, arr: o.arr, deps: d})
					}
				}
				alloc := im.allocation(info.counts)
				info.depth = listSchedule(unrolled, alloc)
				info.resOnly = resMII(opCounts(unrolled), localAccessCounts(unrolled), alloc)
				info.recOnly = recMII(te, st.Body)
				info.ii = info.resOnly
				if info.recOnly > info.ii {
					info.ii = info.recOnly
				}
				im.loops[st] = info
				// Datapath area for this loop's allocation.
				for kind := OpKind(0); kind < numOpKinds; kind++ {
					area = area.Add(unitArea[kind].Scale(alloc.Units[kind]))
				}
			case *If:
				if err := walk(st.Then); err != nil {
					return err
				}
				if err := walk(st.Else); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(k.Body); err != nil {
		return nil, err
	}
	area = area.Add(memPortArea.Scale(dir.MemPorts))
	if nLoops == 0 {
		nLoops = 1
	}
	area = area.Add(controlArea.Scale(nLoops))
	// Local scratchpads: BRAM capacity plus address logic per array.
	for _, size := range te.locals {
		brams := (size*8 + 2047) / 2048
		if brams < 1 {
			brams = 1
		}
		area = area.Add(fabric.Resources{LUT: 80, FF: 60, BRAM: brams})
	}
	im.Area = area
	return im, nil
}

// allocation derives the unit allocation for a loop's op counts under
// the directives.
func (im *Impl) allocation(counts [numOpKinds]int) Allocation {
	var a Allocation
	a.MemPorts = im.Dir.MemPorts
	for k := OpKind(0); k < numOpKinds; k++ {
		if k == OpLoad || k == OpStore {
			continue
		}
		n := counts[k] * im.Dir.Unroll
		if n == 0 {
			continue
		}
		units := (n + im.Dir.Share - 1) / im.Dir.Share
		if units < 1 {
			units = 1
		}
		a.Units[k] = units
	}
	return a
}

// II returns the initiation interval of the kernel's hottest (deepest-II)
// innermost loop; 1 if there are no loops.
func (im *Impl) II() int {
	ii := 1
	for _, info := range im.loops {
		if info.ii > ii {
			ii = info.ii
		}
	}
	return ii
}

// Depth returns the maximum pipeline depth across innermost loops.
func (im *Impl) Depth() int {
	d := 1
	for _, info := range im.loops {
		if info.depth > d {
			d = info.depth
		}
	}
	return d
}

// Cycles estimates one invocation's cycle count given scalar bindings
// for the kernel's parameters (e.g. {"N": 256}).
func (im *Impl) Cycles(bindings map[string]float64) (int64, error) {
	b := map[string]float64{}
	for k, v := range bindings {
		b[k] = v
	}
	cycles, err := im.blockCycles(im.Kernel.Body, b)
	if err != nil {
		return 0, err
	}
	if cycles > maxCycles {
		return 0, fmt.Errorf("hls: %s: cycle estimate %g exceeds %d", im.Kernel.Name, cycles, int64(maxCycles))
	}
	return int64(cycles) + im.CallOverheadCycles, nil
}

// maxCycles bounds a cycle estimate (and a loop's trip count) far beyond
// any simulated run and below the int64 limit.
const maxCycles = 1 << 60

// blockCycles sums in float64, exact for integers below 2^53, so an
// estimate too large for int64 is detected instead of wrapping.
func (im *Impl) blockCycles(stmts []Stmt, bindings map[string]float64) (float64, error) {
	var total float64
	for _, s := range stmts {
		switch st := s.(type) {
		case *LocalDecl:
			total++
		case *Assign:
			lat := exprChainLatency(im.te, st.Value)
			if lat == 0 {
				lat = 1
			}
			total += float64(lat)
			if st.Index == nil {
				// Track scalar values needed by inner trip counts
				// (loop bounds depending on earlier assignments).
				if v, err := constEval(st.Value, bindings); err == nil {
					bindings[st.Target] = v
				}
			}
		case *If:
			t, err := im.blockCycles(st.Then, bindings)
			if err != nil {
				return 0, err
			}
			e, err := im.blockCycles(st.Else, bindings)
			if err != nil {
				return 0, err
			}
			if e > t {
				t = e
			}
			total += t + 1
		case *For:
			trips, err := tripCount(st, bindings)
			if err != nil {
				return 0, err
			}
			if trips == 0 {
				total += 2
				continue
			}
			if info, ok := im.loops[st]; ok {
				// Innermost: pipelined or sequential.
				iters := (trips + int64(im.Dir.Unroll) - 1) / int64(im.Dir.Unroll)
				if im.Dir.Pipeline {
					total += float64(info.depth) + float64(iters-1)*float64(info.ii)
				} else {
					total += float64(iters) * float64(info.depth)
				}
				continue
			}
			// Outer loop: body cycles per iteration + loop control. The
			// loop variable ranges; bind it to the first iteration for
			// inner bound evaluation (rectangular nests).
			init, ierr := constEval(st.Init.Value, bindings)
			if ierr == nil {
				bindings[st.Init.Target] = init
			}
			body, err := im.blockCycles(st.Body, bindings)
			if err != nil {
				return 0, err
			}
			total += float64(trips) * (body + 2)
		}
	}
	return total, nil
}

// Time converts a cycle estimate to simulated time at the fabric clock.
func (im *Impl) Time(bindings map[string]float64) (sim.Time, error) {
	cycles, err := im.Cycles(bindings)
	if err != nil {
		return 0, err
	}
	nsPerCycle := 1000.0 / im.ClockMHz
	ps := float64(cycles) * nsPerCycle * float64(sim.Nanosecond)
	if ps >= math.MaxInt64 {
		return 0, fmt.Errorf("hls: %d cycles at %g MHz overflow the simulated clock", cycles, im.ClockMHz)
	}
	return sim.Time(ps), nil
}

// Module returns the fabric module descriptor for placement.
func (im *Impl) Module() fabric.Module {
	return fabric.Module{Name: im.Kernel.Name + "_" + im.Dir.String(), Req: im.Area}
}

// AreaScalar is a single-figure area proxy (LUT-equivalents) for Pareto
// ranking.
func AreaScalar(r fabric.Resources) int {
	return r.LUT + r.FF/4 + 120*r.DSP + 350*r.BRAM
}

// DesignPoint pairs an implementation with its evaluated cost.
type DesignPoint struct {
	Impl   *Impl
	Cycles int64
	Area   int // AreaScalar
}

// Explore synthesizes the default design space (unroll × ports × sharing
// × pipelining), evaluates each point at the reference bindings, drops
// points over the area budget (zero budget = unbounded), and returns the
// Pareto frontier sorted fastest-first. This is the automated DSE of
// §4.3.
func Explore(k *Kernel, budget fabric.Resources, bindings map[string]float64) ([]DesignPoint, error) {
	var pts []DesignPoint
	for _, unroll := range []int{1, 2, 4, 8, 16} {
		for _, ports := range []int{1, 2, 4} {
			for _, share := range []int{1, 4} {
				for _, pipe := range []bool{true, false} {
					im, err := Synthesize(k, Directives{Unroll: unroll, MemPorts: ports, Share: share, Pipeline: pipe})
					if err != nil {
						return nil, err
					}
					if !budget.IsZero() && !im.Area.FitsIn(budget) {
						continue
					}
					cycles, err := im.Cycles(bindings)
					if err != nil {
						return nil, err
					}
					pts = append(pts, DesignPoint{Impl: im, Cycles: cycles, Area: AreaScalar(im.Area)})
				}
			}
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("hls: no design point fits budget %v", budget)
	}
	// Pareto filter: keep points not dominated in (cycles, area).
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Cycles != pts[j].Cycles {
			return pts[i].Cycles < pts[j].Cycles
		}
		return pts[i].Area < pts[j].Area
	})
	var front []DesignPoint
	bestArea := 1 << 62
	for _, p := range pts {
		if p.Area < bestArea {
			front = append(front, p)
			bestArea = p.Area
		}
	}
	return front, nil
}

// Fastest returns the lowest-cycle implementation within budget.
func Fastest(k *Kernel, budget fabric.Resources, bindings map[string]float64) (*Impl, error) {
	front, err := Explore(k, budget, bindings)
	if err != nil {
		return nil, err
	}
	return front[0].Impl, nil
}

// Report renders a human-readable synthesis report (cmd/ecohls output).
func (im *Impl) Report(bindings map[string]float64) string {
	cycles, err := im.Cycles(bindings)
	cyc := fmt.Sprint(cycles)
	if err != nil {
		cyc = "n/a (" + err.Error() + ")"
	}
	return fmt.Sprintf("%s dir=%s II=%d depth=%d area=%v cycles(%v)=%s",
		im.Kernel.String(), im.Dir, im.II(), im.Depth(), im.Area, bindings, cyc)
}
