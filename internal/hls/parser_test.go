package hls

import (
	"strings"
	"testing"
)

const srcVecAdd = `
// vecadd: C[i] = A[i] + B[i]
kernel vecadd(global float* A, global float* B, global float* C, int N) {
    for (i = 0; i < N; i++) {
        C[i] = A[i] + B[i];
    }
}`

const srcDot = `
kernel dot(global float* A, global float* B, global float* out, int N) {
    float acc = 0.0;
    for (i = 0; i < N; i++) {
        acc = acc + A[i] * B[i];
    }
    out[0] = acc;
}`

const srcMatMul = `
kernel matmul(global float* A, global float* B, global float* C, int N) {
    for (i = 0; i < N; i++) {
        for (j = 0; j < N; j++) {
            float acc = 0.0;
            for (k = 0; k < N; k++) {
                acc = acc + A[i*N+k] * B[k*N+j];
            }
            C[i*N+j] = acc;
        }
    }
}`

func TestParseVecAdd(t *testing.T) {
	k, err := Parse(srcVecAdd)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "vecadd" {
		t.Errorf("name = %q", k.Name)
	}
	if len(k.Params) != 4 {
		t.Fatalf("params = %d", len(k.Params))
	}
	if !k.Params[0].IsBuffer || k.Params[0].Type != Float {
		t.Error("param A should be a float buffer")
	}
	if k.Params[3].IsBuffer || k.Params[3].Type != Int {
		t.Error("param N should be a scalar int")
	}
	if len(k.Body) != 1 {
		t.Fatalf("body stmts = %d", len(k.Body))
	}
	loop, ok := k.Body[0].(*For)
	if !ok {
		t.Fatal("body is not a for loop")
	}
	if loop.Init.Target != "i" {
		t.Error("loop var wrong")
	}
	if !strings.Contains(k.String(), "global float* A") {
		t.Errorf("String = %q", k.String())
	}
}

const srcNestedIf = `
kernel f(global float* A, int N) {
    for (i = 0; i < N; i++) {
        if (A[i] > 0.0) {
            A[i] = A[i] * 2.0;
        } else if (A[i] < -1.0) {
            A[i] = 0.0 - 1.0;
        } else {
            A[i] = 0.0;
        }
    }
}`

func TestParseNestedAndIf(t *testing.T) {
	k, err := Parse(srcNestedIf)
	if err != nil {
		t.Fatal(err)
	}
	loop := k.Body[0].(*For)
	iff, ok := loop.Body[0].(*If)
	if !ok {
		t.Fatal("expected if")
	}
	if len(iff.Else) != 1 {
		t.Fatal("else-if chain wrong")
	}
	if _, ok := iff.Else[0].(*If); !ok {
		t.Fatal("else branch should hold nested if")
	}
}

const srcCompound = `
kernel f(global float* A, int N) {
    int s = 0;
    for (i = 0; i < N; i++) {
        s += 1;
        A[i] *= 2.0;
        s--;
    }
}`

func TestParseCompoundOps(t *testing.T) {
	k, err := Parse(srcCompound)
	if err != nil {
		t.Fatal(err)
	}
	loop := k.Body[1].(*For)
	if len(loop.Body) != 3 {
		t.Fatalf("loop body stmts = %d", len(loop.Body))
	}
	a := loop.Body[0].(*Assign)
	bin, ok := a.Value.(*Binary)
	if !ok || bin.Op != "+" {
		t.Error("+= not desugared to binary add")
	}
}

func TestParsePrecedence(t *testing.T) {
	k := MustParse(`kernel f(global float* A, int N) { A[0] = 1.0 + 2.0 * 3.0; }`)
	v := k.Body[0].(*Assign).Value.(*Binary)
	if v.Op != "+" {
		t.Fatalf("top op = %q, want +", v.Op)
	}
	if r, ok := v.R.(*Binary); !ok || r.Op != "*" {
		t.Error("* should bind tighter than +")
	}
}

func TestParseParens(t *testing.T) {
	k := MustParse(`kernel f(global float* A, int N) { A[0] = (1.0 + 2.0) * 3.0; }`)
	v := k.Body[0].(*Assign).Value.(*Binary)
	if v.Op != "*" {
		t.Fatalf("top op = %q, want *", v.Op)
	}
}

func TestParseBuiltins(t *testing.T) {
	k := MustParse(`kernel f(global float* A, int N) { A[0] = sqrt(A[1]) + max(A[2], 0.0); }`)
	if k == nil {
		t.Fatal("parse failed")
	}
}

const srcComments = `
/* block
   comment */
kernel f(global float* A, int N) {
    A[0] = 1.0; // trailing
}`

func TestParseComments(t *testing.T) {
	if _, err := Parse(srcComments); err != nil {
		t.Fatal(err)
	}
}

// parseErrorCases are sources Parse must reject, by failure mode.
var parseErrorCases = map[string]string{
	"missing kernel":  `func f() {}`,
	"bad param":       `kernel f(float* A) {}`,
	"nonglobal ptr":   `kernel f(global float A) {}`,
	"dup param":       `kernel f(int N, int N) {}`,
	"unknown func":    `kernel f(int N) { int x = foo(N); }`,
	"bad argc":        `kernel f(int N) { int x = min(N); }`,
	"unterminated":    `kernel f(int N) { int x = 1;`,
	"trailing":        `kernel f(int N) { } extra`,
	"decl of element": `kernel f(global float* A, int N) { float A[0] = 1.0; }`,
	"bad char":        `kernel f(int N) { int x = N @ 2; }`,
	"unterm comment":  `kernel f(int N) { /* }`,
	"missing semi":    `kernel f(int N) { int x = 1 }`,
	"compound decl":   `kernel f(int N) { int x += 1; }`,
	"bad assign":      `kernel f(int N) { x 1; }`,
	"local in loop":   `kernel a(global float* A, int N) { for (i = 0; i < N; i++) { local float t[4]; t[0] = A[i]; A[i] = t[0]; } }`,
	"local in branch": `kernel a(global float* A, int N) { if (N > 0) { local float t[4]; } }`,
}

func TestParseErrors(t *testing.T) {
	for name, src := range parseErrorCases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad source did not panic")
		}
	}()
	MustParse("nonsense")
}

func TestLexNumbers(t *testing.T) {
	toks, err := lex("1 2.5 1e3 1.5e-2")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 5 { // 4 numbers + EOF
		t.Fatalf("got %d tokens", len(toks))
	}
	if toks[0].isFl || !toks[1].isFl || !toks[2].isFl || !toks[3].isFl {
		t.Error("float detection wrong")
	}
	if toks[3].num != 0.015 {
		t.Errorf("1.5e-2 = %v", toks[3].num)
	}
}
