package hls

import (
	"fmt"
	"maps"
	"math"
)

// Value is a kernel argument: a scalar or a buffer. All numeric values
// are float64 internally; int-typed contexts truncate.
type Value struct {
	Scalar float64
	Buf    []float64
}

// S makes a scalar argument.
func S(v float64) Value { return Value{Scalar: v} }

// B makes a buffer argument (shared, mutated in place).
func B(buf []float64) Value { return Value{Buf: buf} }

// RunStats reports the dynamic operation mix of one kernel execution,
// consumed by the runtime's execution-time and energy models (§4.2).
type RunStats struct {
	Ops    uint64 // all arithmetic/compare ops
	Flops  uint64 // floating-point subset
	Loads  uint64 // buffer reads
	Stores uint64 // buffer writes
}

// maxIterations bounds the loop iterations of one Run, summed over all
// loops, so a non-terminating or runaway kernel is an error rather than
// a hang; a variable so tests can tighten it.
var maxIterations = 1 << 28

// Run executes the kernel with positional args, mutating buffer args in
// place, and returns the dynamic op statistics. The kernel is compiled
// on its first Run and the program is reused, so a Kernel must not be
// modified once it has run; concurrent Runs of one Kernel are safe.
func Run(k *Kernel, args []Value) (RunStats, error) {
	if len(args) != len(k.Params) {
		return RunStats{}, fmt.Errorf("hls: kernel %s takes %d args, got %d", k.Name, len(k.Params), len(args))
	}
	k.once.Do(func() { k.prog = compile(k) })
	p := k.prog
	n := len(p.init)
	f := &frame{
		scalars: append([]float64(nil), p.init...),
		defined: make([]bool, n),
		buffers: make([][]float64, n),
		budget:  maxIterations,
	}
	for i, prm := range k.Params {
		if prm.IsBuffer {
			if args[i].Buf == nil {
				return RunStats{}, fmt.Errorf("hls: arg %d (%s) must be a buffer", i, prm.Name)
			}
			f.buffers[i] = args[i].Buf
		} else {
			v := args[i].Scalar
			if prm.Type == Int {
				v = math.Trunc(v)
			}
			f.scalars[i], f.defined[i] = v, true
		}
	}
	if err := p.body(f); err != nil {
		return RunStats{}, err
	}
	return RunStats{Ops: f.ops, Flops: f.flops, Loads: f.loads, Stores: f.stores}, nil
}

// program is a kernel lowered to closures over a frame. Every name the
// kernel mentions owns one slot, indexing both the scalar and the buffer
// tables, so a name can hold a scalar and a buffer at once as it could
// in the source; parameters own the first slots, in order. Each distinct
// numeric literal owns a further scalar slot that every frame starts
// with filled in, so any operand that cannot fail is one slot read.
type program struct {
	init []float64 // scalar table a frame starts from
	body execFn
}

// frame is one Run's state.
type frame struct {
	scalars []float64
	defined []bool // scalar slot holds a value
	buffers [][]float64
	ops     uint64
	flops   uint64
	loads   uint64
	stores  uint64
	// budget is the loop iterations this Run may still execute, shared
	// by every loop so nesting cannot multiply the bound.
	budget int
}

type (
	evalFn func(*frame) (float64, error)
	execFn func(*frame) error
)

// compiler lowers a kernel body. def holds the slots of the scalars
// definitely assigned on every path to the point being compiled: those
// are read without a defined check.
type compiler struct {
	slots map[string]int
	lits  map[uint64]int // literal bits → slot
	init  []float64      // per slot: 0 for a name, the value for a literal
	def   map[int]bool
}

func compile(k *Kernel) *program {
	c := &compiler{slots: map[string]int{}, lits: map[uint64]int{}, def: map[int]bool{}}
	for _, p := range k.Params {
		i := c.slot(p.Name)
		if !p.IsBuffer {
			c.def[i] = true
		}
	}
	body := c.block(k.Body)
	return &program{init: c.init, body: body}
}

func (c *compiler) newSlot(v float64) int {
	c.init = append(c.init, v)
	return len(c.init) - 1
}

func (c *compiler) slot(name string) int {
	i, ok := c.slots[name]
	if !ok {
		i = c.newSlot(0)
		c.slots[name] = i
	}
	return i
}

// operand reports whether x is a literal or a definitely assigned
// scalar, and if so returns its slot.
func (c *compiler) operand(x Expr) (int, bool) {
	switch ex := x.(type) {
	case *Num:
		bits := math.Float64bits(ex.Value)
		i, ok := c.lits[bits]
		if !ok {
			i = c.newSlot(ex.Value)
			c.lits[bits] = i
		}
		return i, true
	case *Var:
		i := c.slot(ex.Name)
		return i, c.def[i]
	}
	return 0, false
}

func (c *compiler) block(stmts []Stmt) execFn {
	fns := make([]execFn, len(stmts))
	for i, s := range stmts {
		fns[i] = c.stmt(s)
	}
	switch len(fns) {
	case 0:
		return func(*frame) error { return nil }
	case 1:
		return fns[0]
	}
	return func(f *frame) error {
		for _, fn := range fns {
			if err := fn(f); err != nil {
				return err
			}
		}
		return nil
	}
}

func (c *compiler) stmt(s Stmt) execFn {
	switch st := s.(type) {
	case *Assign:
		return c.assign(st)
	case *For:
		init := c.assign(st.Init)
		cond := c.expr(st.Cond)
		after := maps.Clone(c.def) // the body may run zero times
		body := c.block(st.Body)
		post := c.assign(st.Post)
		c.def = after
		return func(f *frame) error {
			if err := init(f); err != nil {
				return err
			}
			for {
				v, err := cond(f)
				if err != nil {
					return err
				}
				if v == 0 {
					return nil
				}
				if f.budget == 0 {
					return fmt.Errorf("hls: kernel exceeded %d loop iterations", maxIterations)
				}
				f.budget--
				if err := body(f); err != nil {
					return err
				}
				if err := post(f); err != nil {
					return err
				}
			}
		}
	case *If:
		cond := c.expr(st.Cond)
		before := maps.Clone(c.def)
		then := c.block(st.Then)
		afterThen := c.def
		c.def = before
		els := c.block(st.Else)
		maps.DeleteFunc(c.def, func(i int, _ bool) bool { return !afterThen[i] })
		return func(f *frame) error {
			v, err := cond(f)
			if err != nil {
				return err
			}
			if v != 0 {
				return then(f)
			}
			return els(f)
		}
	case *LocalDecl:
		i, name, size := c.slot(st.Name), st.Name, st.Size
		return func(f *frame) error {
			if f.buffers[i] != nil {
				return fmt.Errorf("hls: local array %q shadows a buffer", name)
			}
			if f.defined[i] {
				return fmt.Errorf("hls: local array %q shadows a scalar", name)
			}
			f.buffers[i] = make([]float64, size)
			return nil
		}
	default:
		return func(*frame) error { return fmt.Errorf("hls: unknown statement %T", s) }
	}
}

func (c *compiler) assign(st *Assign) execFn {
	val := c.expr(st.Value)
	trunc := st.DeclType != nil && *st.DeclType == Int
	if st.Index != nil {
		el := c.element(st.Target, st.Index)
		return func(f *frame) error {
			v, err := val(f)
			if err != nil {
				return err
			}
			if trunc {
				v = math.Trunc(v)
			}
			b, i, err := f.element(el)
			if err != nil {
				return err
			}
			b[i] = v
			f.stores++
			return nil
		}
	}
	i := c.slot(st.Target)
	c.def[i] = true
	return func(f *frame) error {
		v, err := val(f)
		if err != nil {
			return err
		}
		if trunc {
			v = math.Trunc(v)
		}
		f.scalars[i], f.defined[i] = v, true
		return nil
	}
}

// element is a compiled buffer access: buffer slot, and the index as a
// scalar slot (idx nil) or an expression.
type element struct {
	name     string
	buf, arg int
	idx      evalFn
}

func (c *compiler) element(name string, idx Expr) *element {
	el := &element{name: name, buf: c.slot(name)}
	if i, ok := c.operand(idx); ok {
		el.arg = i
	} else {
		el.idx = c.expr(idx)
	}
	return el
}

// element resolves a buffer access. The buffer is checked before the
// index is evaluated, and the index must land inside it.
func (f *frame) element(el *element) ([]float64, int, error) {
	b := f.buffers[el.buf]
	if b == nil {
		return nil, 0, fmt.Errorf("hls: %q is not a buffer", el.name)
	}
	var iv float64
	if el.idx == nil {
		iv = f.scalars[el.arg]
	} else {
		var err error
		if iv, err = el.idx(f); err != nil {
			return nil, 0, err
		}
	}
	i := int(iv)
	if i < 0 || i >= len(b) {
		return nil, 0, fmt.Errorf("hls: index %d out of range for buffer %q (len %d)", i, el.name, len(b))
	}
	return b, i, nil
}

func boolTo(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func (c *compiler) expr(x Expr) evalFn {
	if i, ok := c.operand(x); ok {
		return func(f *frame) (float64, error) { return f.scalars[i], nil }
	}
	switch ex := x.(type) {
	case *Var:
		i, name := c.slot(ex.Name), ex.Name
		return func(f *frame) (float64, error) {
			if f.defined[i] {
				return f.scalars[i], nil
			}
			if f.buffers[i] != nil {
				return 0, fmt.Errorf("hls: buffer %q used as scalar", name)
			}
			return 0, fmt.Errorf("hls: undefined variable %q", name)
		}
	case *Index:
		el := c.element(ex.Name, ex.Idx)
		return func(f *frame) (float64, error) {
			b, i, err := f.element(el)
			if err != nil {
				return 0, err
			}
			f.loads++
			return b[i], nil
		}
	case *Unary:
		arg := c.expr(ex.X)
		not := ex.Op == "!"
		return func(f *frame) (float64, error) {
			v, err := arg(f)
			if err != nil {
				return 0, err
			}
			f.ops++
			if not {
				return boolTo(v == 0), nil
			}
			return -v, nil
		}
	case *Binary:
		return c.binary(ex)
	case *Call:
		return c.call(ex)
	default:
		return func(*frame) (float64, error) { return 0, fmt.Errorf("hls: unknown expression %T", x) }
	}
}

// binOp is an arithmetic or comparison operator.
type binOp uint8

const (
	opAdd binOp = iota
	opSub
	opMul
	opDiv
	opMod
	opLT
	opLE
	opGT
	opGE
	opEQ
	opNE
)

var binOps = map[string]binOp{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"<": opLT, "<=": opLE, ">": opGT, ">=": opGE, "==": opEQ, "!=": opNE,
}

// apply counts one binary op, as a flop when either operand has a
// fractional part, and applies it.
func (f *frame) apply(op binOp, l, r float64) (float64, error) {
	f.ops++
	if l != math.Trunc(l) || r != math.Trunc(r) {
		f.flops++
	}
	switch op {
	case opAdd:
		return l + r, nil
	case opSub:
		return l - r, nil
	case opMul:
		return l * r, nil
	case opDiv:
		if r == 0 {
			return 0, fmt.Errorf("hls: division by zero")
		}
		return l / r, nil
	case opMod:
		ri := int64(r)
		if ri == 0 {
			return 0, fmt.Errorf("hls: modulo by zero")
		}
		return float64(int64(l) % ri), nil
	case opLT:
		return boolTo(l < r), nil
	case opLE:
		return boolTo(l <= r), nil
	case opGT:
		return boolTo(l > r), nil
	case opGE:
		return boolTo(l >= r), nil
	case opEQ:
		return boolTo(l == r), nil
	default:
		return boolTo(l != r), nil
	}
}

// binary lowers a binary expression, evaluating left to right. An
// operand that is a slot is read in place rather than through a closure.
func (c *compiler) binary(ex *Binary) evalFn {
	if ex.Op == "&&" || ex.Op == "||" {
		return c.logical(ex)
	}
	l, r := c.expr(ex.L), c.expr(ex.R)
	op, known := binOps[ex.Op]
	if !known {
		name := ex.Op
		return func(f *frame) (float64, error) {
			if _, err := l(f); err != nil {
				return 0, err
			}
			if _, err := r(f); err != nil {
				return 0, err
			}
			return 0, fmt.Errorf("hls: unknown operator %q", name)
		}
	}
	li, lslot := c.operand(ex.L)
	ri, rslot := c.operand(ex.R)
	switch {
	case lslot && rslot:
		return func(f *frame) (float64, error) { return f.apply(op, f.scalars[li], f.scalars[ri]) }
	case lslot:
		return func(f *frame) (float64, error) {
			b, err := r(f)
			if err != nil {
				return 0, err
			}
			return f.apply(op, f.scalars[li], b)
		}
	case rslot:
		return func(f *frame) (float64, error) {
			a, err := l(f)
			if err != nil {
				return 0, err
			}
			return f.apply(op, a, f.scalars[ri])
		}
	}
	return func(f *frame) (float64, error) {
		a, err := l(f)
		if err != nil {
			return 0, err
		}
		b, err := r(f)
		if err != nil {
			return 0, err
		}
		return f.apply(op, a, b)
	}
}

// logical lowers && and ||, which skip their right operand when the
// left one decides the result.
func (c *compiler) logical(ex *Binary) evalFn {
	l, r := c.expr(ex.L), c.expr(ex.R)
	and := ex.Op == "&&"
	return func(f *frame) (float64, error) {
		a, err := l(f)
		if err != nil {
			return 0, err
		}
		f.ops++
		if and == (a == 0) {
			return boolTo(!and), nil
		}
		b, err := r(f)
		if err != nil {
			return 0, err
		}
		return boolTo(b != 0), nil
	}
}

// builtinFns implements the builtins; one-argument ones ignore b.
var builtinFns = map[string]func(a, b float64) (float64, error){
	"sqrt": func(a, _ float64) (float64, error) {
		if a < 0 {
			return 0, fmt.Errorf("hls: sqrt of negative %v", a)
		}
		return math.Sqrt(a), nil
	},
	"exp": func(a, _ float64) (float64, error) { return math.Exp(a), nil },
	"log": func(a, _ float64) (float64, error) {
		if a <= 0 {
			return 0, fmt.Errorf("hls: log of non-positive %v", a)
		}
		return math.Log(a), nil
	},
	"abs":   func(a, _ float64) (float64, error) { return math.Abs(a), nil },
	"floor": func(a, _ float64) (float64, error) { return math.Floor(a), nil },
	"min":   func(a, b float64) (float64, error) { return math.Min(a, b), nil },
	"max":   func(a, b float64) (float64, error) { return math.Max(a, b), nil },
}

// builtin returns the named builtin, checking its arity.
func builtin(name string, argc int) (func(a, b float64) (float64, error), error) {
	fn, ok := builtinFns[name]
	if !ok {
		return nil, fmt.Errorf("hls: unknown builtin %q", name)
	}
	if want := builtins[name]; argc != want {
		return nil, fmt.Errorf("hls: %s takes %d argument(s), got %d", name, want, argc)
	}
	return fn, nil
}

// call lowers a builtin call: arguments left to right, then one flop.
func (c *compiler) call(ex *Call) evalFn {
	args := make([]evalFn, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = c.expr(a)
	}
	fn, bad := builtin(ex.Name, len(args))
	switch {
	case bad != nil:
		return func(f *frame) (float64, error) {
			for _, a := range args {
				if _, err := a(f); err != nil {
					return 0, err
				}
			}
			return 0, bad
		}
	case len(args) == 1:
		a := args[0]
		return func(f *frame) (float64, error) {
			v, err := a(f)
			if err != nil {
				return 0, err
			}
			f.ops++
			f.flops++
			return fn(v, 0)
		}
	}
	a, b := args[0], args[1]
	return func(f *frame) (float64, error) {
		v, err := a(f)
		if err != nil {
			return 0, err
		}
		w, err := b(f)
		if err != nil {
			return 0, err
		}
		f.ops++
		f.flops++
		return fn(v, w)
	}
}
