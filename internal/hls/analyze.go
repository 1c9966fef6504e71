package hls

import (
	"fmt"
	"math"
)

// This file is the synthesis middle-end: type inference, dataflow
// extraction from the innermost loop body, resource-constrained list
// scheduling, and initiation-interval analysis (II = max(ResMII, RecMII),
// the classic modulo-scheduling bound).

// OpKind classifies a datapath operation.
type OpKind int

// Datapath operation kinds.
const (
	OpIAdd OpKind = iota // integer add/sub
	OpIMul
	OpIDiv // integer divide/modulo
	OpFAdd // float add/sub
	OpFMul
	OpFDiv
	OpCmp  // comparisons and logicals
	OpLoad // global buffer read (uses a memory port)
	OpStore
	OpSpecial // sqrt/exp/log
	OpLLoad   // local (BRAM) array read — per-array dual ports
	OpLStore  // local (BRAM) array write
	numOpKinds
)

func (k OpKind) String() string {
	return [...]string{"iadd", "imul", "idiv", "fadd", "fmul", "fdiv", "cmp", "load", "store", "special", "lload", "lstore"}[k]
}

// opLatency is the pipelined-unit latency in fabric cycles.
var opLatency = [numOpKinds]int{
	OpIAdd: 1, OpIMul: 3, OpIDiv: 12,
	OpFAdd: 4, OpFMul: 5, OpFDiv: 14,
	OpCmp: 1, OpLoad: 2, OpStore: 1, OpSpecial: 16,
	OpLLoad: 1, OpLStore: 1,
}

// op is one node of the extracted dataflow graph.
type op struct {
	kind OpKind
	arr  string // local array name for OpLLoad/OpLStore
	deps []int  // indices of ops this op must follow
}

// typeEnv tracks inferred scalar types and local-array declarations.
type typeEnv struct {
	vars    map[string]Type
	buffers map[string]Type
	locals  map[string]int // local array name → element count
}

func newTypeEnv(k *Kernel) *typeEnv {
	te := &typeEnv{vars: map[string]Type{}, buffers: map[string]Type{}, locals: map[string]int{}}
	for _, p := range k.Params {
		if p.IsBuffer {
			te.buffers[p.Name] = p.Type
		} else {
			te.vars[p.Name] = p.Type
		}
	}
	return te
}

// exprType infers an expression's type: float dominates.
func (te *typeEnv) exprType(e Expr) Type {
	switch ex := e.(type) {
	case *Num:
		if ex.IsFloat {
			return Float
		}
		return Int
	case *Var:
		return te.vars[ex.Name] // zero value Int for unknowns
	case *Index:
		return te.buffers[ex.Name]
	case *Unary:
		if ex.Op == "!" {
			return Int
		}
		return te.exprType(ex.X)
	case *Binary:
		switch ex.Op {
		case "<", "<=", ">", ">=", "==", "!=", "&&", "||", "%":
			return Int
		}
		if te.exprType(ex.L) == Float || te.exprType(ex.R) == Float {
			return Float
		}
		return Int
	case *Call:
		if ex.Name == "floor" {
			return Int
		}
		return Float
	default:
		return Int
	}
}

// learn records types introduced by statements (declarations and
// inferred assignment types) throughout a block, recursively.
func (te *typeEnv) learn(stmts []Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *Assign:
			if st.Index == nil {
				if st.DeclType != nil {
					te.vars[st.Target] = *st.DeclType
				} else if _, known := te.vars[st.Target]; !known {
					te.vars[st.Target] = te.exprType(st.Value)
				}
			}
		case *For:
			te.vars[st.Init.Target] = Int
			te.learn([]Stmt{st.Init})
			te.learn(st.Body)
		case *If:
			te.learn(st.Then)
			te.learn(st.Else)
		case *LocalDecl:
			te.buffers[st.Name] = st.Type
			te.locals[st.Name] = st.Size
		}
	}
}

// dfgBuilder extracts ops with dependencies from straight-line (possibly
// if-converted) code.
type dfgBuilder struct {
	te        *typeEnv
	ops       []op
	lastDef   map[string]int // scalar var → op producing it
	lastStore map[string]int // buffer → last store op
	loadsTo   map[string][]int
}

func newDFGBuilder(te *typeEnv) *dfgBuilder {
	return &dfgBuilder{te: te, lastDef: map[string]int{}, lastStore: map[string]int{}, loadsTo: map[string][]int{}}
}

func (b *dfgBuilder) add(kind OpKind, deps []int) int {
	return b.addArr(kind, "", deps)
}

func (b *dfgBuilder) addArr(kind OpKind, arr string, deps []int) int {
	b.ops = append(b.ops, op{kind: kind, arr: arr, deps: deps})
	return len(b.ops) - 1
}

// exprOps emits the ops computing e and returns the index of the op
// producing its value (-1 for leaf reads of scalars/constants).
func (b *dfgBuilder) exprOps(e Expr) int {
	switch ex := e.(type) {
	case *Num:
		return -1
	case *Var:
		if d, ok := b.lastDef[ex.Name]; ok {
			return d
		}
		return -1
	case *Index:
		var deps []int
		if i := b.exprOps(ex.Idx); i >= 0 {
			deps = append(deps, i)
		}
		if st, ok := b.lastStore[ex.Name]; ok {
			deps = append(deps, st) // read-after-write through memory
		}
		kind := OpLoad
		arr := ""
		if _, isLocal := b.te.locals[ex.Name]; isLocal {
			kind, arr = OpLLoad, ex.Name
		}
		id := b.addArr(kind, arr, deps)
		b.loadsTo[ex.Name] = append(b.loadsTo[ex.Name], id)
		return id
	case *Unary:
		var deps []int
		if i := b.exprOps(ex.X); i >= 0 {
			deps = append(deps, i)
		}
		kind := OpIAdd // negate ≈ add
		if ex.Op == "!" {
			kind = OpCmp
		} else if b.te.exprType(ex.X) == Float {
			kind = OpFAdd
		}
		return b.add(kind, deps)
	case *Binary:
		var deps []int
		if i := b.exprOps(ex.L); i >= 0 {
			deps = append(deps, i)
		}
		if i := b.exprOps(ex.R); i >= 0 {
			deps = append(deps, i)
		}
		return b.add(binOpKind(ex, b.te), deps)
	case *Call:
		var deps []int
		for _, a := range ex.Args {
			if i := b.exprOps(a); i >= 0 {
				deps = append(deps, i)
			}
		}
		kind := OpSpecial
		switch ex.Name {
		case "abs", "min", "max", "floor":
			kind = OpCmp
		}
		return b.add(kind, deps)
	default:
		return -1
	}
}

func binOpKind(ex *Binary, te *typeEnv) OpKind {
	isFloat := te.exprType(ex.L) == Float || te.exprType(ex.R) == Float
	switch ex.Op {
	case "+", "-":
		if isFloat {
			return OpFAdd
		}
		return OpIAdd
	case "*":
		if isFloat {
			return OpFMul
		}
		return OpIMul
	case "/":
		if isFloat {
			return OpFDiv
		}
		return OpIDiv
	case "%":
		return OpIDiv
	default:
		return OpCmp
	}
}

// stmtOps emits ops for a statement. If statements are if-converted:
// both arms execute, guarded by the condition (standard HLS predication).
func (b *dfgBuilder) stmtOps(s Stmt) error {
	switch st := s.(type) {
	case *Assign:
		v := b.exprOps(st.Value)
		if st.Index == nil {
			if v >= 0 {
				b.lastDef[st.Target] = v
			} else {
				delete(b.lastDef, st.Target) // constant: no producing op
			}
			return nil
		}
		var deps []int
		if v >= 0 {
			deps = append(deps, v)
		}
		if i := b.exprOps(st.Index); i >= 0 {
			deps = append(deps, i)
		}
		// Write-after-read and write-after-write ordering on the buffer.
		deps = append(deps, b.loadsTo[st.Target]...)
		if prev, ok := b.lastStore[st.Target]; ok {
			deps = append(deps, prev)
		}
		kind := OpStore
		arr := ""
		if _, isLocal := b.te.locals[st.Target]; isLocal {
			kind, arr = OpLStore, st.Target
		}
		id := b.addArr(kind, arr, deps)
		b.lastStore[st.Target] = id
		b.loadsTo[st.Target] = nil
		return nil
	case *If:
		if i := b.exprOps(st.Cond); i >= 0 {
			_ = i
		}
		for _, t := range st.Then {
			if err := b.stmtOps(t); err != nil {
				return err
			}
		}
		for _, t := range st.Else {
			if err := b.stmtOps(t); err != nil {
				return err
			}
		}
		return nil
	case *LocalDecl:
		return nil // storage, not a datapath op
	case *For:
		return errNestedLoop
	default:
		return fmt.Errorf("hls: cannot synthesize statement %T", s)
	}
}

var errNestedLoop = fmt.Errorf("hls: nested loop inside innermost body")

// bodyDFG extracts the dataflow graph of a loop body that contains no
// nested loops. It reports ok=false when the body does nest.
func bodyDFG(te *typeEnv, body []Stmt) (ops []op, ok bool) {
	b := newDFGBuilder(te)
	for _, s := range body {
		if err := b.stmtOps(s); err != nil {
			return nil, false
		}
	}
	return b.ops, true
}

// opCounts tallies ops by kind.
func opCounts(ops []op) [numOpKinds]int {
	var c [numOpKinds]int
	for _, o := range ops {
		c[o.kind]++
	}
	return c
}

// Allocation fixes how many pipelined units of each kind (and how many
// memory ports) the datapath instantiates.
type Allocation struct {
	Units    [numOpKinds]int
	MemPorts int
}

// listSchedule performs resource-constrained list scheduling: every unit
// is fully pipelined (one issue per cycle), ops finish after their
// latency. It returns the schedule depth in cycles.
func listSchedule(ops []op, alloc Allocation) int {
	if len(ops) == 0 {
		return 1
	}
	finish := make([]int, len(ops))
	scheduled := make([]bool, len(ops))
	remaining := len(ops)
	depth := 0
	for cycle := 0; remaining > 0; cycle++ {
		if cycle > 8*len(ops)*32 {
			panic("hls: schedule failed to converge")
		}
		var issued [numOpKinds]int
		memIssued := 0
		localIssued := map[string]int{}
		for i := range ops {
			if scheduled[i] {
				continue
			}
			ready := true
			for _, d := range ops[i].deps {
				if !scheduled[d] || finish[d] > cycle {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			k := ops[i].kind
			switch {
			case k == OpLoad || k == OpStore:
				if memIssued >= alloc.MemPorts {
					continue
				}
				memIssued++
			case k == OpLLoad || k == OpLStore:
				// Dual-ported BRAM: two accesses per array per cycle.
				if localIssued[ops[i].arr] >= 2 {
					continue
				}
				localIssued[ops[i].arr]++
			default:
				cap := alloc.Units[k]
				if cap <= 0 {
					cap = 1
				}
				if issued[k] >= cap {
					continue
				}
				issued[k]++
			}
			scheduled[i] = true
			finish[i] = cycle + opLatency[k]
			if finish[i] > depth {
				depth = finish[i]
			}
			remaining--
		}
	}
	return depth
}

// resMII returns the resource-constrained minimum initiation interval.
// localCounts carries per-array local accesses (dual-ported).
func resMII(counts [numOpKinds]int, localCounts map[string]int, alloc Allocation) int {
	mii := 1
	for k := OpKind(0); k < numOpKinds; k++ {
		n := counts[k]
		if n == 0 || k == OpLLoad || k == OpLStore {
			continue
		}
		var units int
		if k == OpLoad || k == OpStore {
			// Loads and stores share the memory ports.
			n = counts[OpLoad] + counts[OpStore]
			units = alloc.MemPorts
		} else {
			units = alloc.Units[k]
		}
		if units <= 0 {
			units = 1
		}
		if ii := (n + units - 1) / units; ii > mii {
			mii = ii
		}
	}
	for _, n := range localCounts {
		if ii := (n + 1) / 2; ii > mii {
			mii = ii
		}
	}
	return mii
}

// localAccessCounts tallies OpLLoad/OpLStore per array.
func localAccessCounts(ops []op) map[string]int {
	out := map[string]int{}
	for _, o := range ops {
		if o.kind == OpLLoad || o.kind == OpLStore {
			out[o.arr]++
		}
	}
	return out
}

// recMII returns the recurrence-constrained minimum initiation interval:
// the longest dependence *cycle* through a scalar updated from its own
// previous value (e.g. acc = acc + x gives a cycle of one fadd). Only
// the operators on the path from the recurrent variable's read to the
// assignment count — work feeding the cycle from outside (like the x in
// acc + x) pipelines freely. Buffer-carried dependences are assumed
// disjoint (OpenCL restrict semantics).
func recMII(te *typeEnv, body []Stmt) int {
	mii := 1
	var scan func(stmts []Stmt)
	scan = func(stmts []Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *Assign:
				if st.Index == nil {
					if lat := cyclePathLatency(te, st.Value, st.Target); lat > mii {
						mii = lat
					}
				}
			case *If:
				scan(st.Then)
				scan(st.Else)
			}
		}
	}
	scan(body)
	return mii
}

// cyclePathLatency returns the operator latency along the longest path
// from a read of variable name to the root of e, or 0 when e does not
// read name.
func cyclePathLatency(te *typeEnv, e Expr, name string) int {
	switch ex := e.(type) {
	case *Var:
		if ex.Name == name {
			// The read itself is free; latency accrues on the ops above.
			return 0
		}
		return -1
	case *Num:
		return -1
	case *Index:
		// A load indexed by the recurrent variable closes a cycle
		// through the load unit.
		if sub := cyclePathLatency(te, ex.Idx, name); sub >= 0 {
			return sub + opLatency[OpLoad]
		}
		return -1
	case *Unary:
		sub := cyclePathLatency(te, ex.X, name)
		if sub < 0 {
			return -1
		}
		k := OpIAdd
		if ex.Op == "!" {
			k = OpCmp
		} else if te.exprType(ex.X) == Float {
			k = OpFAdd
		}
		return sub + opLatency[k]
	case *Binary:
		l := cyclePathLatency(te, ex.L, name)
		r := cyclePathLatency(te, ex.R, name)
		best := l
		if r > best {
			best = r
		}
		if best < 0 {
			return -1
		}
		return best + opLatency[binOpKind(ex, te)]
	case *Call:
		best := -1
		for _, a := range ex.Args {
			if sub := cyclePathLatency(te, a, name); sub > best {
				best = sub
			}
		}
		if best < 0 {
			return -1
		}
		k := OpSpecial
		switch ex.Name {
		case "abs", "min", "max", "floor":
			k = OpCmp
		}
		return best + opLatency[k]
	default:
		return -1
	}
}

// readsVar reports whether e reads variable name.
func readsVar(e Expr, name string) bool {
	switch ex := e.(type) {
	case *Var:
		return ex.Name == name
	case *Index:
		return readsVar(ex.Idx, name)
	case *Unary:
		return readsVar(ex.X, name)
	case *Binary:
		return readsVar(ex.L, name) || readsVar(ex.R, name)
	case *Call:
		for _, a := range ex.Args {
			if readsVar(a, name) {
				return true
			}
		}
	}
	return false
}

// exprChainLatency returns the critical-path latency of an expression in
// fabric cycles.
func exprChainLatency(te *typeEnv, e Expr) int {
	switch ex := e.(type) {
	case *Num, *Var:
		return 0
	case *Index:
		return exprChainLatency(te, ex.Idx) + opLatency[OpLoad]
	case *Unary:
		k := OpIAdd
		if te.exprType(ex.X) == Float {
			k = OpFAdd
		}
		return exprChainLatency(te, ex.X) + opLatency[k]
	case *Binary:
		l := exprChainLatency(te, ex.L)
		r := exprChainLatency(te, ex.R)
		if r > l {
			l = r
		}
		return l + opLatency[binOpKind(ex, te)]
	case *Call:
		worst := 0
		for _, a := range ex.Args {
			if l := exprChainLatency(te, a); l > worst {
				worst = l
			}
		}
		k := OpSpecial
		switch ex.Name {
		case "abs", "min", "max", "floor":
			k = OpCmp
		}
		return worst + opLatency[k]
	default:
		return 0
	}
}

// constEval folds an expression over scalar bindings only (no buffers)
// for trip counts and cycle estimates. It shares the operator and
// builtin semantics, and the error texts, of a compiled kernel, but
// counts nothing, and allocates nothing so Impl.Time stays cheap.
func constEval(e Expr, bindings map[string]float64) (float64, error) {
	switch ex := e.(type) {
	case *Num:
		return ex.Value, nil
	case *Var:
		if v, ok := bindings[ex.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("hls: undefined variable %q", ex.Name)
	case *Index:
		return 0, fmt.Errorf("hls: %q is not a buffer", ex.Name)
	case *Unary:
		v, err := constEval(ex.X, bindings)
		if err != nil {
			return 0, err
		}
		if ex.Op == "!" {
			return boolTo(v == 0), nil
		}
		return -v, nil
	case *Binary:
		l, err := constEval(ex.L, bindings)
		if err != nil {
			return 0, err
		}
		if ex.Op == "&&" || ex.Op == "||" {
			if and := ex.Op == "&&"; and == (l == 0) {
				return boolTo(!and), nil
			}
		}
		r, err := constEval(ex.R, bindings)
		if err != nil {
			return 0, err
		}
		if ex.Op == "&&" || ex.Op == "||" {
			return boolTo(r != 0), nil
		}
		op, ok := binOps[ex.Op]
		if !ok {
			return 0, fmt.Errorf("hls: unknown operator %q", ex.Op)
		}
		var uncounted frame
		return uncounted.apply(op, l, r)
	case *Call:
		var args [2]float64
		for i, a := range ex.Args {
			v, err := constEval(a, bindings)
			if err != nil {
				return 0, err
			}
			if i < len(args) {
				args[i] = v
			}
		}
		fn, err := builtin(ex.Name, len(ex.Args))
		if err != nil {
			return 0, err
		}
		return fn(args[0], args[1])
	default:
		return 0, fmt.Errorf("hls: unknown expression %T", e)
	}
}

// tripCount derives a loop's iteration count from its init/cond/post
// under the given scalar bindings. Supported shapes: i = a; i < b (or
// <=); i = i + c / i++ style posts.
func tripCount(f *For, bindings map[string]float64) (int64, error) {
	init, err := constEval(f.Init.Value, bindings)
	if err != nil {
		return 0, fmt.Errorf("hls: loop init: %w", err)
	}
	cond, ok := f.Cond.(*Binary)
	if !ok || !readsVar(f.Cond, f.Init.Target) {
		return 0, fmt.Errorf("hls: unsupported loop condition")
	}
	bound, err := constEval(cond.R, bindings)
	if err != nil {
		return 0, fmt.Errorf("hls: loop bound: %w", err)
	}
	step := 1.0
	if post, ok := f.Post.Value.(*Binary); ok {
		s, err := constEval(post.R, bindings)
		if err == nil {
			step = s
			if post.Op == "-" {
				step = -s
			}
		}
	}
	if step == 0 {
		return 0, fmt.Errorf("hls: zero loop step")
	}
	var iters float64
	switch cond.Op {
	case "<":
		iters = math.Ceil((bound - init) / step)
	case "<=":
		iters = math.Floor((bound-init)/step) + 1
	case ">":
		iters = math.Ceil((init - bound) / -step)
	case ">=":
		iters = math.Floor((init-bound)/-step) + 1
	default:
		return 0, fmt.Errorf("hls: unsupported loop comparison %q", cond.Op)
	}
	if iters > maxCycles {
		return 0, fmt.Errorf("hls: loop trip count %g exceeds %d", iters, int64(maxCycles))
	}
	if iters < 0 || math.IsNaN(iters) || math.IsInf(iters, 0) {
		iters = 0
	}
	return int64(iters), nil
}
