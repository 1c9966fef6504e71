package hls

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a kernel AST back to canonical source. The output
// re-parses to an equivalent AST (verified by a property test), which
// makes it usable for normalizing user kernels, dumping the IR after
// desugaring (+=, ++ become plain assignments), and emitting library
// kernels from tools.
func Print(k *Kernel) string {
	var b strings.Builder
	params := make([]string, len(k.Params))
	for i, p := range k.Params {
		params[i] = p.String()
	}
	fmt.Fprintf(&b, "kernel %s(%s) {\n", k.Name, strings.Join(params, ", "))
	printBlock(&b, k.Body, 1)
	b.WriteString("}\n")
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("    ")
	}
}

func printBlock(b *strings.Builder, stmts []Stmt, depth int) {
	for _, s := range stmts {
		printStmt(b, s, depth)
	}
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	switch st := s.(type) {
	case *Assign:
		indent(b, depth)
		b.WriteString(assignString(st))
		b.WriteString(";\n")
	case *LocalDecl:
		indent(b, depth)
		fmt.Fprintf(b, "local %s %s[%d];\n", st.Type, st.Name, st.Size)
	case *For:
		indent(b, depth)
		fmt.Fprintf(b, "for (%s; %s; %s) {\n",
			assignString(st.Init), ExprString(st.Cond), assignString(st.Post))
		printBlock(b, st.Body, depth+1)
		indent(b, depth)
		b.WriteString("}\n")
	case *If:
		indent(b, depth)
		fmt.Fprintf(b, "if (%s) {\n", ExprString(st.Cond))
		printBlock(b, st.Then, depth+1)
		indent(b, depth)
		if len(st.Else) == 0 {
			b.WriteString("}\n")
			return
		}
		b.WriteString("} else {\n")
		printBlock(b, st.Else, depth+1)
		indent(b, depth)
		b.WriteString("}\n")
	}
}

func assignString(a *Assign) string {
	var b strings.Builder
	if a.DeclType != nil {
		b.WriteString(a.DeclType.String())
		b.WriteByte(' ')
	}
	b.WriteString(a.Target)
	if a.Index != nil {
		b.WriteByte('[')
		b.WriteString(ExprString(a.Index))
		b.WriteByte(']')
	}
	b.WriteString(" = ")
	b.WriteString(ExprString(a.Value))
	return b.String()
}

// ExprString renders an expression with minimal parentheses (C
// precedence, fully parenthesizing only where required).
func ExprString(e Expr) string { return exprString(e, 0) }

func exprString(e Expr, parentPrec int) string {
	switch ex := e.(type) {
	case *Num:
		if ex.IsFloat {
			s := strconv.FormatFloat(ex.Value, 'g', -1, 64)
			if !strings.ContainsAny(s, ".eE") {
				s += ".0"
			}
			return s
		}
		// Integer literals may exceed int64; print all their digits.
		return strconv.FormatFloat(ex.Value, 'f', -1, 64)
	case *Var:
		return ex.Name
	case *Index:
		return fmt.Sprintf("%s[%s]", ex.Name, exprString(ex.Idx, 0))
	case *Unary:
		inner := exprString(ex.X, 7)
		if strings.HasPrefix(inner, ex.Op) {
			// "- -x" would lex as decrement; parenthesize.
			inner = "(" + inner + ")"
		}
		return ex.Op + inner
	case *Binary:
		prec := precedence[ex.Op]
		l := exprString(ex.L, prec)
		// Right operand of a left-associative operator needs a higher
		// threshold so (a-b)-c ≠ a-(b-c) survives round trips.
		r := exprString(ex.R, prec+1)
		s := fmt.Sprintf("%s %s %s", l, ex.Op, r)
		if prec < parentPrec {
			return "(" + s + ")"
		}
		return s
	case *Call:
		args := make([]string, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = exprString(a, 0)
		}
		return fmt.Sprintf("%s(%s)", ex.Name, strings.Join(args, ", "))
	default:
		return fmt.Sprintf("/*?%T*/", e)
	}
}
