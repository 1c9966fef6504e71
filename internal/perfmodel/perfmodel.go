// Package perfmodel implements the input-dependent execution-time and
// energy models of §4.2: "We intend to use an array of regression, SVM
// and PCA techniques for this purpose" — models trained on observed runs
// (input size/shape → time, power) that let the runtime scheduler
// "judiciously and dynamically select and distribute functions for
// hardware acceleration".
//
// Three families are provided, stdlib-only: ordinary/ridge least squares
// (normal equations with Gaussian elimination), principal component
// analysis (power iteration with deflation) for feature reduction, and a
// linear soft-margin SVM trained by SGD for the binary "will hardware
// beat software?" decision.
package perfmodel

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadShape reports inconsistent training data.
var ErrBadShape = errors.New("perfmodel: inconsistent data shape")

// Regression is a linear model y = w·x + b fit by (ridge) least squares.
type Regression struct {
	// Lambda is the ridge penalty; 0 gives ordinary least squares.
	Lambda float64

	W []float64
	B float64

	fitted bool
}

// Fit solves the normal equations over rows X (n×d) and targets y (n):
// it folds every row into a Normal accumulator, then solves it.
func (r *Regression) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(y) != len(x) {
		return ErrBadShape
	}
	var acc Normal
	for k, row := range x {
		if err := acc.Add(row, y[k]); err != nil {
			return err
		}
	}
	return acc.Solve(r, 0)
}

// Normal accumulates the bias-augmented normal equations AᵀA and Aᵀy of
// a linear least-squares problem one row at a time, with one Aᵀy column
// per target, so a model over a growing sample set is refit without
// revisiting old rows. Each sum adds row[i]*row[j] and row[i]*y in row
// order starting from zero, so the sums — and a Solve of them — are the
// same floats as a batch fit over the same rows. The zero value takes
// its feature width and target count from the first Add.
type Normal struct {
	dim, targets int
	// sums holds AᵀA (dim×dim, row-major) followed by one Aᵀy column of
	// dim entries per target, in one allocation.
	sums []float64
}

// Add folds in one row x with one value per target. It returns
// ErrBadShape, and folds nothing, when x's width or the target count
// differs from the first row's.
func (n *Normal) Add(x []float64, y ...float64) error {
	dim := len(x) + 1 // the last column is the bias, constant 1
	if n.sums == nil {
		if len(y) == 0 {
			return ErrBadShape
		}
		n.dim, n.targets = dim, len(y)
		n.sums = make([]float64, dim*dim+len(y)*dim)
	} else if dim != n.dim || len(y) != n.targets {
		return ErrBadShape
	}
	ata, aty := n.sums[:dim*dim], n.sums[dim*dim:]
	for i := 0; i < dim; i++ {
		ri := 1.0
		if i < len(x) {
			ri = x[i]
		}
		row := ata[i*dim : (i+1)*dim]
		for j, xj := range x {
			row[j] += ri * xj
		}
		row[dim-1] += ri
		for t, yt := range y {
			aty[t*dim+i] += ri * yt
		}
	}
	return nil
}

// Solve fits r to target t of the accumulated rows: it solves
// (AᵀA + λI) w = Aᵀy with λ = r.Lambda on every diagonal entry but the
// bias's. The sums are left unchanged, so Add may continue afterwards.
func (n *Normal) Solve(r *Regression, t int) error {
	if n.sums == nil || t < 0 || t >= n.targets {
		return ErrBadShape
	}
	dim := n.dim
	d := dim - 1
	ata := make([][]float64, dim)
	buf := append([]float64(nil), n.sums[:dim*dim]...)
	for i := range ata {
		ata[i] = buf[i*dim : (i+1)*dim]
	}
	for i := 0; i < d; i++ { // do not regularize the bias
		ata[i][i] += r.Lambda
	}
	w, err := solve(ata, n.sums[dim*dim+t*dim:dim*dim+(t+1)*dim])
	if err != nil {
		return err
	}
	r.W = w[:d]
	r.B = w[d]
	r.fitted = true
	return nil
}

// Predict evaluates the model; it panics if called before Fit succeeds.
func (r *Regression) Predict(x []float64) float64 {
	if !r.fitted {
		panic("perfmodel: Predict before Fit")
	}
	if len(x) != len(r.W) {
		panic(fmt.Sprintf("perfmodel: feature dim %d, model dim %d", len(x), len(r.W)))
	}
	s := r.B
	for i, v := range x {
		s += r.W[i] * v
	}
	return s
}

// R2 returns the coefficient of determination on a dataset.
func (r *Regression) R2(x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i := range x {
		d := y[i] - r.Predict(x[i])
		ssRes += d * d
		t := y[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// (a | b).
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return nil, errors.New("perfmodel: singular system (collinear features?)")
		}
		m[col], m[p] = m[p], m[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// PCA computes the top-k principal components by power iteration with
// deflation.
type PCA struct {
	Components [][]float64 // k rows of d
	Mean       []float64
	Variances  []float64 // explained variance per component
}

// FitPCA computes k components of x (n×d rows).
func FitPCA(x [][]float64, k int) (*PCA, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrBadShape
	}
	d := len(x[0])
	if k <= 0 || k > d {
		return nil, fmt.Errorf("perfmodel: k=%d out of range for %d features", k, d)
	}
	mean := make([]float64, d)
	for _, row := range x {
		if len(row) != d {
			return nil, ErrBadShape
		}
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	// Covariance matrix.
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, row := range x {
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				cov[i][j] += (row[i] - mean[i]) * (row[j] - mean[j])
			}
		}
	}
	for i := range cov {
		for j := range cov[i] {
			cov[i][j] /= float64(n)
		}
	}
	p := &PCA{Mean: mean}
	for c := 0; c < k; c++ {
		vec, val := powerIterate(cov)
		if val <= 1e-12 {
			break
		}
		p.Components = append(p.Components, vec)
		p.Variances = append(p.Variances, val)
		// Deflate: cov -= val * vec vecᵀ.
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				cov[i][j] -= val * vec[i] * vec[j]
			}
		}
	}
	if len(p.Components) == 0 {
		return nil, errors.New("perfmodel: data has no variance")
	}
	return p, nil
}

func powerIterate(m [][]float64) ([]float64, float64) {
	d := len(m)
	v := make([]float64, d)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(d))
	}
	var val float64
	for iter := 0; iter < 500; iter++ {
		next := make([]float64, d)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				next[i] += m[i][j] * v[j]
			}
		}
		norm := 0.0
		for _, x := range next {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm < 1e-15 {
			return v, 0
		}
		for i := range next {
			next[i] /= norm
		}
		diff := 0.0
		for i := range next {
			diff += math.Abs(next[i] - v[i])
		}
		v = next
		val = norm
		if diff < 1e-12 {
			break
		}
	}
	return v, val
}

// Project maps a sample onto the fitted components.
func (p *PCA) Project(x []float64) []float64 {
	out := make([]float64, len(p.Components))
	for c, comp := range p.Components {
		var s float64
		for j, v := range x {
			s += (v - p.Mean[j]) * comp[j]
		}
		out[c] = s
	}
	return out
}

// SVM is a linear soft-margin classifier trained by SGD on hinge loss.
// Labels are ±1.
type SVM struct {
	W      []float64
	B      float64
	C      float64 // regularization trade-off (default 1)
	Epochs int     // default 200
}

// Fit trains on rows x with labels y in {-1, +1}.
func (s *SVM) Fit(x [][]float64, y []float64) error {
	n := len(x)
	if n == 0 || len(y) != n {
		return ErrBadShape
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return ErrBadShape
		}
		if y[i] != 1 && y[i] != -1 {
			return fmt.Errorf("perfmodel: SVM label %v not in {-1,+1}", y[i])
		}
	}
	if s.C == 0 {
		s.C = 1
	}
	if s.Epochs == 0 {
		s.Epochs = 200
	}
	s.W = make([]float64, d)
	s.B = 0
	lambda := 1 / (s.C * float64(n))
	t := 0
	for epoch := 0; epoch < s.Epochs; epoch++ {
		for i := 0; i < n; i++ {
			t++
			eta := 1 / (lambda * float64(t))
			margin := s.B
			for j, v := range x[i] {
				margin += s.W[j] * v
			}
			margin *= y[i]
			for j := range s.W {
				s.W[j] -= eta * lambda * s.W[j]
			}
			if margin < 1 {
				for j, v := range x[i] {
					s.W[j] += eta * y[i] * v
				}
				s.B += eta * y[i]
			}
		}
	}
	return nil
}

// Decision returns the signed margin for x.
func (s *SVM) Decision(x []float64) float64 {
	v := s.B
	for j, w := range s.W {
		v += w * x[j]
	}
	return v
}

// Predict returns the class label (+1 or -1) for x.
func (s *SVM) Predict(x []float64) float64 {
	if s.Decision(x) >= 0 {
		return 1
	}
	return -1
}
