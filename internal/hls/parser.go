package hls

import "fmt"

// Parse compiles kernel source into an AST. The language is a small
// OpenCL-C subset:
//
//	kernel name(global float* A, global int* B, int N, float alpha) {
//	    float acc = 0.0;
//	    for (i = 0; i < N; i++) {
//	        acc = acc + A[i] * alpha;
//	        if (B[i] > 0) { A[i] = acc; } else { A[i] = 0.0; }
//	    }
//	    A[0] = acc;
//	}
//
// Statements: declarations/assignments (including +=, -=, *=, ++, --),
// counted for loops, and if/else. Expressions: arithmetic, comparison
// and logical operators with C precedence, and the builtins sqrt, exp,
// log, abs, min, max, floor.
func Parse(src string) (*Kernel, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	k, err := p.kernel()
	if err != nil {
		return nil, err
	}
	k.Source = src
	return k, nil
}

// MustParse is Parse that panics on error, for tests and tables of
// built-in kernels.
func MustParse(src string) *Kernel {
	k, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return k
}

type parser struct {
	toks  []token
	pos   int
	depth int // blocks open around the current statement
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("hls: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) error {
	if p.cur().text != text {
		return p.errf("expected %q, found %v", text, p.cur())
	}
	p.pos++
	return nil
}

func (p *parser) acceptIdent() (string, error) {
	if p.cur().kind != tokIdent {
		return "", p.errf("expected identifier, found %v", p.cur())
	}
	return p.next().text, nil
}

func (p *parser) kernel() (*Kernel, error) {
	if err := p.expect("kernel"); err != nil {
		return nil, err
	}
	name, err := p.acceptIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	k := &Kernel{Name: name}
	for p.cur().text != ")" {
		if len(k.Params) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		param, err := p.param()
		if err != nil {
			return nil, err
		}
		if k.Param(param.Name) != nil {
			return nil, p.errf("duplicate parameter %q", param.Name)
		}
		k.Params = append(k.Params, param)
	}
	p.pos++ // ')'
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	k.Body = body
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input after kernel body: %v", p.cur())
	}
	return k, nil
}

func (p *parser) param() (Param, error) {
	var prm Param
	if p.cur().text == "global" {
		p.pos++
		prm.IsBuffer = true
	}
	switch p.cur().text {
	case "float":
		prm.Type = Float
	case "int":
		prm.Type = Int
	default:
		return prm, p.errf("expected parameter type, found %v", p.cur())
	}
	p.pos++
	if p.cur().text == "*" {
		if !prm.IsBuffer {
			return prm, p.errf("pointer parameter must be declared global")
		}
		p.pos++
	} else if prm.IsBuffer {
		return prm, p.errf("global parameter must be a pointer")
	}
	name, err := p.acceptIdent()
	if err != nil {
		return prm, err
	}
	prm.Name = name
	return prm, nil
}

func (p *parser) block() ([]Stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	p.depth++
	defer func() { p.depth-- }()
	var stmts []Stmt
	for p.cur().text != "}" {
		if p.cur().kind == tokEOF {
			return nil, p.errf("unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.pos++ // '}'
	return stmts, nil
}

func (p *parser) stmt() (Stmt, error) {
	switch p.cur().text {
	case "for":
		return p.forStmt()
	case "if":
		return p.ifStmt()
	case "local":
		return p.localDecl()
	default:
		a, err := p.assign()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return a, nil
	}
}

// localDecl parses "local float name[SIZE];". On-chip scratchpads are
// allocated statically, so a declaration must sit at the kernel's top
// level, not inside a loop or branch.
func (p *parser) localDecl() (Stmt, error) {
	if p.depth > 1 {
		return nil, p.errf("local array must be declared at the kernel's top level")
	}
	p.pos++ // local
	var typ Type
	switch p.cur().text {
	case "float":
		typ = Float
	case "int":
		typ = Int
	default:
		return nil, p.errf("expected local array element type, found %v", p.cur())
	}
	p.pos++
	name, err := p.acceptIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("["); err != nil {
		return nil, err
	}
	if p.cur().kind != tokNum || p.cur().isFl {
		return nil, p.errf("local array size must be an integer constant")
	}
	size := int(p.next().num)
	if size <= 0 || size > 1<<20 {
		return nil, p.errf("local array size %d out of range", size)
	}
	if err := p.expect("]"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return &LocalDecl{Name: name, Type: typ, Size: size}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	p.pos++ // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	init, err := p.assign()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	post, err := p.assign()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &For{Init: init, Cond: cond, Post: post, Body: body}, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	p.pos++ // if
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &If{Cond: cond, Then: then}
	if p.cur().text == "else" {
		p.pos++
		if p.cur().text == "if" {
			s, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			node.Else = []Stmt{s}
		} else {
			els, err := p.block()
			if err != nil {
				return nil, err
			}
			node.Else = els
		}
	}
	return node, nil
}

// assign parses declarations, scalar/buffer assignments, compound
// assignments and ++/--.
func (p *parser) assign() (*Assign, error) {
	var declType *Type
	if p.cur().text == "float" || p.cur().text == "int" {
		t := Int
		if p.cur().text == "float" {
			t = Float
		}
		declType = &t
		p.pos++
	}
	name, err := p.acceptIdent()
	if err != nil {
		return nil, err
	}
	var index Expr
	if p.cur().text == "[" {
		if declType != nil {
			return nil, p.errf("cannot declare a buffer element")
		}
		p.pos++
		index, err = p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	target := func() Expr {
		if index != nil {
			return &Index{Name: name, Idx: index}
		}
		return &Var{Name: name}
	}
	switch op := p.cur().text; op {
	case "=":
		p.pos++
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &Assign{Target: name, Index: index, Value: v, DeclType: declType}, nil
	case "+=", "-=", "*=":
		if declType != nil {
			return nil, p.errf("compound assignment in declaration")
		}
		p.pos++
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &Assign{Target: name, Index: index,
			Value: &Binary{Op: op[:1], L: target(), R: v}}, nil
	case "++", "--":
		if declType != nil {
			return nil, p.errf("%s in declaration", op)
		}
		p.pos++
		binOp := "+"
		if op == "--" {
			binOp = "-"
		}
		return &Assign{Target: name, Index: index,
			Value: &Binary{Op: binOp, L: target(), R: &Num{Value: 1}}}, nil
	default:
		return nil, p.errf("expected assignment operator, found %v", p.cur())
	}
}

// Expression parsing with precedence climbing.
var precedence = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, "<=": 4, ">": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) expr() (Expr, error) { return p.binary(1) }

func (p *parser) binary(minPrec int) (Expr, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().text
		prec, ok := precedence[op]
		if !ok || prec < minPrec {
			return left, nil
		}
		p.pos++
		right, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

var builtins = map[string]int{
	"sqrt": 1, "exp": 1, "log": 1, "abs": 1, "floor": 1,
	"min": 2, "max": 2,
}

func (p *parser) unary() (Expr, error) {
	switch t := p.cur(); {
	case t.text == "-":
		p.pos++
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	case t.text == "!":
		p.pos++
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "!", X: x}, nil
	case t.text == "(":
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(")")
	case t.kind == tokNum:
		p.pos++
		return &Num{Value: t.num, IsFloat: t.isFl}, nil
	case t.kind == tokIdent:
		p.pos++
		name := t.text
		if p.cur().text == "(" {
			argc, ok := builtins[name]
			if !ok {
				return nil, p.errf("unknown function %q", name)
			}
			p.pos++
			var args []Expr
			for p.cur().text != ")" {
				if len(args) > 0 {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			p.pos++
			if len(args) != argc {
				return nil, p.errf("%s takes %d argument(s), got %d", name, argc, len(args))
			}
			return &Call{Name: name, Args: args}, nil
		}
		if p.cur().text == "[" {
			p.pos++
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			return &Index{Name: name, Idx: idx}, nil
		}
		return &Var{Name: name}, nil
	default:
		return nil, p.errf("unexpected token %v in expression", t)
	}
}
