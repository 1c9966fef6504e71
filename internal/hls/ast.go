// Package hls implements the ECOSCALE high-level synthesis tool (§4.3):
// it compiles kernels written in a small OpenCL-C-style language into
// hardware implementations with explicit pipelining (initiation-interval
// analysis), loop unrolling, memory-port allocation and area estimation,
// and automatically explores the cost/performance trade-off space under
// area and performance constraints — "providing a way to specify
// performance and area constraints, and then automatically exploring
// high-performance hardware implementation techniques, such as
// pipelining, loop unrolling, as well as data storage and data-path
// partitioning and duplication, starting from a non-hardware specific
// OpenCL model."
//
// The same AST also runs in software: Run compiles a kernel once, to
// closures over slot-resolved scalars and buffers, then executes that
// program on every call, so software and hardware runs of a kernel
// produce identical results (verified by the E14 end-to-end experiment).
package hls

import (
	"fmt"
	"strings"
	"sync"
)

// Type is a scalar element type.
type Type int

// Scalar types.
const (
	Int Type = iota
	Float
)

func (t Type) String() string {
	if t == Float {
		return "float"
	}
	return "int"
}

// Param is a kernel parameter: a scalar or a global buffer.
type Param struct {
	Name     string
	Type     Type
	IsBuffer bool
}

func (p Param) String() string {
	if p.IsBuffer {
		return fmt.Sprintf("global %s* %s", p.Type, p.Name)
	}
	return fmt.Sprintf("%s %s", p.Type, p.Name)
}

// Kernel is a parsed kernel function. Run compiles it on first use, so
// it must not be modified once it has run.
type Kernel struct {
	Name   string
	Params []Param
	Body   []Stmt
	Source string

	once sync.Once
	prog *program // compiled on first Run
}

func (k *Kernel) String() string {
	parts := make([]string, len(k.Params))
	for i, p := range k.Params {
		parts[i] = p.String()
	}
	return fmt.Sprintf("kernel %s(%s)", k.Name, strings.Join(parts, ", "))
}

// Param returns the named parameter, or nil.
func (k *Kernel) Param(name string) *Param {
	for i := range k.Params {
		if k.Params[i].Name == name {
			return &k.Params[i]
		}
	}
	return nil
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// Assign writes a scalar variable or a buffer element.
type Assign struct {
	Target string
	Index  Expr // nil for scalar targets
	Value  Expr
	// DeclType is non-nil when the statement declares the variable
	// ("float acc = 0.0;").
	DeclType *Type
}

// For is a counted loop: for (init; cond; post) { body }.
type For struct {
	Init *Assign
	Cond Expr
	Post *Assign
	Body []Stmt
}

// If is a conditional.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// LocalDecl declares an on-chip scratchpad array ("local float t[16];"):
// BRAM-backed storage with its own ports, the data-storage partitioning
// §4.3 automates. Size must be a constant.
type LocalDecl struct {
	Name string
	Type Type
	Size int
}

func (*Assign) stmt()    {}
func (*For) stmt()       {}
func (*If) stmt()        {}
func (*LocalDecl) stmt() {}

// Expr is an expression node.
type Expr interface{ expr() }

// Num is a numeric literal.
type Num struct {
	Value   float64
	IsFloat bool
}

// Var reads a scalar variable or parameter.
type Var struct{ Name string }

// Index reads a buffer element.
type Index struct {
	Name string
	Idx  Expr
}

// Binary is a binary operation; Op is one of + - * / % < <= > >= == !=
// && ||.
type Binary struct {
	Op   string
	L, R Expr
}

// Unary is -x or !x.
type Unary struct {
	Op string
	X  Expr
}

// Call invokes a builtin: sqrt, exp, log, abs, min, max, floor.
type Call struct {
	Name string
	Args []Expr
}

func (*Num) expr()    {}
func (*Var) expr()    {}
func (*Index) expr()  {}
func (*Binary) expr() {}
func (*Unary) expr()  {}
func (*Call) expr()   {}
