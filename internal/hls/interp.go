package hls

import (
	"fmt"
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

// env is an execution environment.
type env struct {
	scalars map[string]float64
	buffers map[string][]float64
	ops     uint64 // dynamic op count, for the SW cost model
	loads   uint64
	stores  uint64
	flops   uint64
	// budget is the loop iterations this Run may still execute, shared
	// by every loop so nesting cannot multiply the bound.
	budget int
}

// RunStats reports the dynamic operation mix of one kernel execution,
// consumed by the runtime's execution-time and energy models (§4.2).
type RunStats struct {
	Ops    uint64 // all arithmetic/compare ops
	Flops  uint64 // floating-point subset
	Loads  uint64 // buffer reads
	Stores uint64 // buffer writes
}

// Run executes the kernel with positional args, mutating buffer args in
// place, and returns the dynamic op statistics.
func Run(k *Kernel, args []Value) (RunStats, error) {
	if len(args) != len(k.Params) {
		return RunStats{}, fmt.Errorf("hls: kernel %s takes %d args, got %d", k.Name, len(k.Params), len(args))
	}
	e := &env{scalars: map[string]float64{}, buffers: map[string][]float64{}, budget: maxIterations}
	for i, p := range k.Params {
		if p.IsBuffer {
			if args[i].Buf == nil {
				return RunStats{}, fmt.Errorf("hls: arg %d (%s) must be a buffer", i, p.Name)
			}
			e.buffers[p.Name] = args[i].Buf
		} else {
			v := args[i].Scalar
			if p.Type == Int {
				v = math.Trunc(v)
			}
			e.scalars[p.Name] = v
		}
	}
	if err := e.execBlock(k.Body); err != nil {
		return RunStats{}, err
	}
	return RunStats{Ops: e.ops, Flops: e.flops, Loads: e.loads, Stores: e.stores}, nil
}

func (e *env) execBlock(stmts []Stmt) error {
	for _, s := range stmts {
		if err := e.exec(s); err != nil {
			return err
		}
	}
	return nil
}

// maxIterations bounds the loop iterations of one Run, summed over all
// loops, so a non-terminating or runaway kernel is an error rather than
// a hang; a variable so tests can tighten it.
var maxIterations = 1 << 28

func (e *env) exec(s Stmt) error {
	switch st := s.(type) {
	case *Assign:
		v, err := e.eval(st.Value)
		if err != nil {
			return err
		}
		if st.DeclType != nil && *st.DeclType == Int {
			v = math.Trunc(v)
		}
		if st.Index == nil {
			e.scalars[st.Target] = v
			return nil
		}
		idx, err := e.evalIndex(st.Target, st.Index)
		if err != nil {
			return err
		}
		e.buffers[st.Target][idx] = v
		e.stores++
		return nil
	case *For:
		if err := e.exec(st.Init); err != nil {
			return err
		}
		for {
			c, err := e.eval(st.Cond)
			if err != nil {
				return err
			}
			if c == 0 {
				return nil
			}
			if e.budget == 0 {
				return fmt.Errorf("hls: kernel exceeded %d loop iterations", maxIterations)
			}
			e.budget--
			if err := e.execBlock(st.Body); err != nil {
				return err
			}
			if err := e.exec(st.Post); err != nil {
				return err
			}
		}
	case *If:
		c, err := e.eval(st.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return e.execBlock(st.Then)
		}
		return e.execBlock(st.Else)
	case *LocalDecl:
		if _, exists := e.buffers[st.Name]; exists {
			return fmt.Errorf("hls: local array %q shadows a buffer", st.Name)
		}
		if _, exists := e.scalars[st.Name]; exists {
			return fmt.Errorf("hls: local array %q shadows a scalar", st.Name)
		}
		e.buffers[st.Name] = make([]float64, st.Size)
		return nil
	default:
		return fmt.Errorf("hls: unknown statement %T", s)
	}
}

func (e *env) evalIndex(buf string, idx Expr) (int, error) {
	b, ok := e.buffers[buf]
	if !ok {
		return 0, fmt.Errorf("hls: %q is not a buffer", buf)
	}
	iv, err := e.eval(idx)
	if err != nil {
		return 0, err
	}
	i := int(iv)
	if i < 0 || i >= len(b) {
		return 0, fmt.Errorf("hls: index %d out of range for buffer %q (len %d)", i, buf, len(b))
	}
	return i, nil
}

func boolTo(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func (e *env) eval(x Expr) (float64, error) {
	switch ex := x.(type) {
	case *Num:
		return ex.Value, nil
	case *Var:
		v, ok := e.scalars[ex.Name]
		if !ok {
			if _, isBuf := e.buffers[ex.Name]; isBuf {
				return 0, fmt.Errorf("hls: buffer %q used as scalar", ex.Name)
			}
			return 0, fmt.Errorf("hls: undefined variable %q", ex.Name)
		}
		return v, nil
	case *Index:
		i, err := e.evalIndex(ex.Name, ex.Idx)
		if err != nil {
			return 0, err
		}
		e.loads++
		return e.buffers[ex.Name][i], nil
	case *Unary:
		v, err := e.eval(ex.X)
		if err != nil {
			return 0, err
		}
		e.ops++
		if ex.Op == "!" {
			return boolTo(v == 0), nil
		}
		return -v, nil
	case *Binary:
		l, err := e.eval(ex.L)
		if err != nil {
			return 0, err
		}
		// Short-circuit logicals.
		switch ex.Op {
		case "&&":
			e.ops++
			if l == 0 {
				return 0, nil
			}
			r, err := e.eval(ex.R)
			if err != nil {
				return 0, err
			}
			return boolTo(r != 0), nil
		case "||":
			e.ops++
			if l != 0 {
				return 1, nil
			}
			r, err := e.eval(ex.R)
			if err != nil {
				return 0, err
			}
			return boolTo(r != 0), nil
		}
		r, err := e.eval(ex.R)
		if err != nil {
			return 0, err
		}
		e.ops++
		if l != math.Trunc(l) || r != math.Trunc(r) {
			e.flops++
		}
		switch ex.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("hls: division by zero")
			}
			return l / r, nil
		case "%":
			ri := int64(r)
			if ri == 0 {
				return 0, fmt.Errorf("hls: modulo by zero")
			}
			return float64(int64(l) % ri), nil
		case "<":
			return boolTo(l < r), nil
		case "<=":
			return boolTo(l <= r), nil
		case ">":
			return boolTo(l > r), nil
		case ">=":
			return boolTo(l >= r), nil
		case "==":
			return boolTo(l == r), nil
		case "!=":
			return boolTo(l != r), nil
		default:
			return 0, fmt.Errorf("hls: unknown operator %q", ex.Op)
		}
	case *Call:
		args := make([]float64, len(ex.Args))
		for i, a := range ex.Args {
			v, err := e.eval(a)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		e.ops++
		e.flops++
		switch ex.Name {
		case "sqrt":
			if args[0] < 0 {
				return 0, fmt.Errorf("hls: sqrt of negative %v", args[0])
			}
			return math.Sqrt(args[0]), nil
		case "exp":
			return math.Exp(args[0]), nil
		case "log":
			if args[0] <= 0 {
				return 0, fmt.Errorf("hls: log of non-positive %v", args[0])
			}
			return math.Log(args[0]), nil
		case "abs":
			return math.Abs(args[0]), nil
		case "floor":
			return math.Floor(args[0]), nil
		case "min":
			return math.Min(args[0], args[1]), nil
		case "max":
			return math.Max(args[0], args[1]), nil
		default:
			return 0, fmt.Errorf("hls: unknown builtin %q", ex.Name)
		}
	default:
		return 0, fmt.Errorf("hls: unknown expression %T", x)
	}
}
