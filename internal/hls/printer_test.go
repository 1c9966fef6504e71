package hls

import (
	"testing"
	"testing/quick"

	"ecoscale/internal/sim"
)

// TestPrintRoundtripLibrary: every library-style kernel source in this
// package's tests round-trips through Print → Parse → Print to a fixed
// point, and the reprinted kernel computes the same results.
func TestPrintRoundtripLibrary(t *testing.T) {
	sources := []string{srcVecAdd, srcDot, srcMatMul, srcLocal}
	for _, src := range sources {
		k := MustParse(src)
		printed := Print(k)
		k2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse failed: %v\n%s", err, printed)
		}
		if p2 := Print(k2); p2 != printed {
			t.Errorf("print not a fixed point:\n%s\nvs\n%s", printed, p2)
		}
	}
}

func TestPrintRoundtripSemantics(t *testing.T) {
	k := MustParse(srcMatMul)
	k2, err := Parse(Print(k))
	if err != nil {
		t.Fatal(err)
	}
	n := 6
	rng := sim.NewRNG(3)
	mk := func() []Value {
		r := sim.NewRNG(3)
		_ = rng
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		for i := range a {
			a[i], b[i] = r.Float64(), r.Float64()
		}
		return []Value{B(a), B(b), B(make([]float64, n*n)), S(float64(n))}
	}
	args1, args2 := mk(), mk()
	if _, err := Run(k, args1); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(k2, args2); err != nil {
		t.Fatal(err)
	}
	for i := range args1[2].Buf {
		if args1[2].Buf[i] != args2[2].Buf[i] {
			t.Fatalf("semantics diverged at %d", i)
		}
	}
}

// An integer literal too large for int64 prints with all its digits, so
// it reparses to the same value.
func TestPrintLargeIntLiteral(t *testing.T) {
	k := MustParse(`kernel f(global float* A) { A[0] = 100000000000000000000; }`)
	k2, err := Parse(Print(k))
	if err != nil {
		t.Fatal(err)
	}
	got := k2.Body[0].(*Assign).Value.(*Num).Value
	if got != 1e20 {
		t.Errorf("reparsed literal = %v, want 1e20\n%s", got, Print(k))
	}
}

func TestPrintDesugars(t *testing.T) {
	k := MustParse(`kernel f(global float* A, int N) { for (i = 0; i < N; i++) { A[i] += 1.0; } }`)
	p := Print(k)
	if want := "A[i] = A[i] + 1.0"; !contains(p, want) {
		t.Errorf("printed form missing %q:\n%s", want, p)
	}
	if contains(p, "+=") || contains(p, "++") {
		t.Errorf("sugar survived printing:\n%s", p)
	}
	// Desugared form must still parse.
	if _, err := Parse(p); err != nil {
		t.Fatal(err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestPrintPrecedence(t *testing.T) {
	cases := []string{
		`kernel f(global float* A, int N) { A[0] = (1.0 + 2.0) * 3.0; }`,
		`kernel f(global float* A, int N) { A[0] = 1.0 - (2.0 - 3.0); }`,
		`kernel f(global float* A, int N) { A[0] = 0.0 - (0.0 - A[1]); }`,
		`kernel f(global float* A, int N) { if ((N > 0 && N < 5) || N == 9) { A[0] = 1.0; } }`,
		`kernel f(global float* A, int N) { A[0] = -(A[1] + A[2]); }`,
		`kernel f(global float* A, int N) { A[0] = - -A[1]; }`,
		`kernel f(global float* A, int N) { A[0] = min(max(A[1], 0.0), 1.0); }`,
	}
	for _, src := range cases {
		k, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		a := make([]float64, 4)
		a[1], a[2] = 2, 3
		if _, err := Run(k, []Value{B(a), S(10)}); err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), a...)

		k2, err := Parse(Print(k))
		if err != nil {
			t.Fatalf("reparse of %q: %v\n%s", src, err, Print(k))
		}
		b := make([]float64, 4)
		b[1], b[2] = 2, 3
		if _, err := Run(k2, []Value{B(b), S(10)}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != b[i] {
				t.Errorf("%s: semantics changed at %d: %v vs %v\nprinted: %s", src, i, want[i], b[i], Print(k))
			}
		}
	}
}

// Property: Print(Parse(Print(k))) == Print(k) for randomized expression
// trees embedded in a kernel skeleton.
func TestPrintFixedPointProperty(t *testing.T) {
	rng := sim.NewRNG(77)
	var genExpr func(depth int) Expr
	genExpr = func(depth int) Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				return &Num{Value: float64(rng.Intn(50)), IsFloat: rng.Intn(2) == 0}
			case 1:
				return &Var{Name: "x"}
			default:
				return &Index{Name: "A", Idx: &Num{Value: float64(rng.Intn(4))}}
			}
		}
		ops := []string{"+", "-", "*", "/", "<", "<=", "==", "&&", "||", "%"}
		switch rng.Intn(6) {
		case 0:
			return &Unary{Op: "-", X: genExpr(depth - 1)}
		case 1:
			return &Call{Name: "min", Args: []Expr{genExpr(depth - 1), genExpr(depth - 1)}}
		default:
			return &Binary{Op: ops[rng.Intn(len(ops))], L: genExpr(depth - 1), R: genExpr(depth - 1)}
		}
	}
	prop := func(seed uint16) bool {
		k := &Kernel{
			Name: "g",
			Params: []Param{
				{Name: "A", Type: Float, IsBuffer: true},
				{Name: "N", Type: Int},
			},
			Body: []Stmt{
				&Assign{Target: "x", Value: genExpr(3), DeclType: &[]Type{Float}[0]},
				&Assign{Target: "A", Index: &Num{Value: 0}, Value: genExpr(4)},
			},
		}
		p1 := Print(k)
		k2, err := Parse(p1)
		if err != nil {
			t.Logf("reparse failed for:\n%s\nerr: %v", p1, err)
			return false
		}
		return Print(k2) == p1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
