package perfmodel

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"ecoscale/internal/sim"
)

func TestRegressionExactLinear(t *testing.T) {
	// y = 3x0 - 2x1 + 7 recovered exactly from noiseless data.
	var x [][]float64
	var y []float64
	rng := sim.NewRNG(1)
	for i := 0; i < 50; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{a, b})
		y = append(y, 3*a-2*b+7)
	}
	var r Regression
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.W[0]-3) > 1e-6 || math.Abs(r.W[1]+2) > 1e-6 || math.Abs(r.B-7) > 1e-6 {
		t.Errorf("W=%v B=%v, want [3 -2] 7", r.W, r.B)
	}
	if r2 := r.R2(x, y); r2 < 0.999999 {
		t.Errorf("R2 = %v, want ~1", r2)
	}
	if p := r.Predict([]float64{1, 1}); math.Abs(p-8) > 1e-6 {
		t.Errorf("Predict(1,1) = %v, want 8", p)
	}
}

func TestRegressionNoisy(t *testing.T) {
	rng := sim.NewRNG(2)
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a := rng.Float64() * 100
		x = append(x, []float64{a})
		y = append(y, 5*a+10+rng.NormFloat64()*2)
	}
	var r Regression
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.W[0]-5) > 0.1 || math.Abs(r.B-10) > 2 {
		t.Errorf("W=%v B=%v, want ~[5] ~10", r.W, r.B)
	}
	if r2 := r.R2(x, y); r2 < 0.99 {
		t.Errorf("R2 = %v", r2)
	}
}

func TestRidgeShrinks(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{2, 4, 6, 8}
	var ols, ridge Regression
	ridge.Lambda = 100
	if err := ols.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := ridge.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(ridge.W[0]) >= math.Abs(ols.W[0]) {
		t.Errorf("ridge |w|=%v should shrink below OLS |w|=%v", ridge.W[0], ols.W[0])
	}
}

func TestRegressionErrors(t *testing.T) {
	var r Regression
	if err := r.Fit(nil, nil); err == nil {
		t.Error("empty fit should error")
	}
	if err := r.Fit([][]float64{{1}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows should error")
	}
	if err := r.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched y should error")
	}
	// Collinear features → singular.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	if err := r.Fit(x, []float64{1, 2, 3}); err == nil {
		t.Error("collinear features should error")
	}
}

// batchFit is the direct batch ridge fit — sum AᵀA and Aᵀy over the
// bias-augmented rows, then solve — that Normal must reproduce bit for bit.
func batchFit(lambda float64, x [][]float64, y []float64) ([]float64, error) {
	d := len(x[0])
	dim := d + 1
	ata := make([][]float64, dim)
	for i := range ata {
		ata[i] = make([]float64, dim)
	}
	aty := make([]float64, dim)
	row := make([]float64, dim)
	for k := range x {
		copy(row, x[k])
		row[d] = 1
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				ata[i][j] += row[i] * row[j]
			}
			aty[i] += row[i] * y[k]
		}
	}
	for i := 0; i < d; i++ {
		ata[i][i] += lambda
	}
	return solve(ata, aty)
}

func sameBits(t *testing.T, what string, r *Regression, w []float64) {
	t.Helper()
	got := append(append([]float64(nil), r.W...), r.B)
	for i := range w {
		if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: coefficients %v, batch fit %v", what, got, w)
		}
	}
}

func TestNormalSolveMatchesFit(t *testing.T) {
	rng := sim.NewRNG(4)
	// Two targets of very different scale, each in its own accumulator.
	var accs [2]Normal
	var x [][]float64
	var ys [2][]float64
	for k := 0; k < 200; k++ {
		a, b, c := rng.Float64()*1e4, rng.Float64()*1e3, float64(k%7)
		row := []float64{a, b, c}
		t0, t1 := 3*a+2*b+rng.Float64(), 1e-12*a+rng.Float64()*1e-11
		x = append(x, row)
		for target, yt := range [2]float64{t0, t1} {
			if err := accs[target].Add(row, yt); err != nil {
				t.Fatal(err)
			}
			ys[target] = append(ys[target], yt)
		}
		if k < 3 {
			continue
		}
		for target, y := range ys {
			want, err := batchFit(1e-6, x, y)
			if err != nil {
				t.Fatal(err)
			}
			r := Regression{Lambda: 1e-6}
			if err := accs[target].Solve(&r); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "Normal.Solve", &r, want)
			f := Regression{Lambda: 1e-6}
			if err := f.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "Fit", &f, want)
		}
	}
}

func TestNormalErrors(t *testing.T) {
	var r Regression
	var acc Normal
	if err := acc.Solve(&r); !errors.Is(err, ErrBadShape) {
		t.Errorf("Solve with no rows: %v, want ErrBadShape", err)
	}
	rows := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}}
	for _, row := range rows {
		if err := acc.Add(row, row[0]+2*row[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := acc.Add([]float64{1, 2, 3}, 1); !errors.Is(err, ErrBadShape) {
		t.Errorf("ragged row: %v, want ErrBadShape", err)
	}
	// Rejected rows fold nothing: the fit is still the four good rows'.
	if err := acc.Solve(&r); err != nil {
		t.Fatal(err)
	}
	want, err := batchFit(0, rows, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "after rejected rows", &r, want)
}

func TestPredictBeforeFitPanics(t *testing.T) {
	var r Regression
	defer func() {
		if recover() == nil {
			t.Error("Predict before Fit did not panic")
		}
	}()
	r.Predict([]float64{1})
}

func TestPredictDimPanics(t *testing.T) {
	var r Regression
	if err := r.Fit([][]float64{{1}, {2}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch did not panic")
		}
	}()
	r.Predict([]float64{1, 2})
}

// Property: regression on exactly-linear data predicts within tolerance
// for arbitrary in-range queries.
func TestRegressionProperty(t *testing.T) {
	rng := sim.NewRNG(3)
	var x [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{a, b})
		y = append(y, 1.5*a+0.5*b-3)
	}
	var r Regression
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	prop := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw%1000) / 100
		b := float64(bRaw%1000) / 100
		return math.Abs(r.Predict([]float64{a, b})-(1.5*a+0.5*b-3)) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1 → x=2, y=1.
	x, err := solve([][]float64{{2, 1}, {1, -1}}, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("solve = %v, want [2 1]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	if _, err := solve([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); err == nil {
		t.Error("singular system should error")
	}
}
