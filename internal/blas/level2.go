package blas

import "fmt"

// DgemvN computes y ← alpha·A·x + beta·y (no transpose).
func DgemvN(alpha float64, a *Matrix, x []float64, beta float64, y []float64) {
	if a.Cols != len(x) || a.Rows != len(y) {
		panic(fmt.Sprintf("blas: dgemvN shape %dx%d · %d → %d", a.Rows, a.Cols, len(x), len(y)))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = alpha*s + beta*y[i]
	}
}

// DgemvT computes y ← alpha·Aᵀ·x + beta·y.
func DgemvT(alpha float64, a *Matrix, x []float64, beta float64, y []float64) {
	if a.Rows != len(x) || a.Cols != len(y) {
		panic(fmt.Sprintf("blas: dgemvT shape %dx%dᵀ · %d → %d", a.Rows, a.Cols, len(x), len(y)))
	}
	for j := range y {
		y[j] *= beta
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		xi := alpha * x[i]
		for j, v := range row {
			y[j] += xi * v
		}
	}
}

// Dtrmv computes x ← L·x for a lower-triangular L (in-place, walking rows
// bottom-up so inputs are consumed before they are overwritten).
func Dtrmv(l *Matrix, x []float64) {
	if l.Rows != l.Cols || l.Rows != len(x) {
		panic(fmt.Sprintf("blas: dtrmv shape %dx%d · %d", l.Rows, l.Cols, len(x)))
	}
	for i := l.Rows - 1; i >= 0; i-- {
		row := l.Row(i)
		var s float64
		for j := 0; j <= i; j++ {
			s += row[j] * x[j]
		}
		x[i] = s
	}
}

// Dtrsv solves L·x = b for lower-triangular L, overwriting b with x
// (forward substitution).
func Dtrsv(l *Matrix, b []float64) {
	if l.Rows != l.Cols || l.Rows != len(b) {
		panic(fmt.Sprintf("blas: dtrsv shape %dx%d · %d", l.Rows, l.Cols, len(b)))
	}
	for i := 0; i < l.Rows; i++ {
		row := l.Row(i)
		s := b[i]
		for j := 0; j < i; j++ {
			s -= row[j] * b[j]
		}
		b[i] = s / row[i]
	}
}
