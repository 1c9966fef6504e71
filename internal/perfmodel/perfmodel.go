// Package perfmodel implements the input-dependent execution-time models
// of §4.2: models trained on observed runs (input size/shape → time)
// that let the runtime scheduler "judiciously and dynamically select and
// distribute functions for hardware acceleration". The model is ordinary
// or ridge least squares, solved from the normal equations by Gaussian
// elimination.
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
	return acc.Solve(r)
}

// Normal accumulates the bias-augmented normal equations AᵀA and Aᵀy of
// a linear least-squares problem one row at a time, so a model over a
// growing sample set is refit without revisiting old rows. Each sum adds
// row[i]*row[j] and row[i]*y in row order starting from zero, so the
// sums — and a Solve of them — are the same floats as a batch fit over
// the same rows. The zero value takes its feature width from the first
// Add.
type Normal struct {
	dim int
	// sums holds AᵀA (dim×dim, row-major) followed by the dim entries of
	// Aᵀy, in one allocation.
	sums []float64
}

// Add folds in one row x with target value y. It returns ErrBadShape,
// and folds nothing, when x's width differs from the first row's.
func (n *Normal) Add(x []float64, y float64) error {
	dim := len(x) + 1 // the last column is the bias, constant 1
	if n.sums == nil {
		n.dim = dim
		n.sums = make([]float64, dim*dim+dim)
	} else if dim != n.dim {
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
		aty[i] += ri * y
	}
	return nil
}

// Solve fits r to the accumulated rows: it solves (AᵀA + λI) w = Aᵀy
// with λ = r.Lambda on every diagonal entry but the bias's. The sums are
// left unchanged, so Add may continue afterwards.
func (n *Normal) Solve(r *Regression) error {
	if n.sums == nil {
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
	w, err := solve(ata, n.sums[dim*dim:])
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
