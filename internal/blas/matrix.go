// Package blas is the dense matrix multiply of the paper's Figure 4 and
// the level-3 flop counts behind Table 2's BLAS-3 phases. It has two
// callers: examples/quickstart checks DgemmBlocked against the reference
// Dgemm before scheduling that kernel, and internal/workloads sizes the
// BLAS-3 periods with Level3Flops. The simulated workloads describe
// every other kernel by working-set size, reuse and instruction count
// alone, so none is implemented here. Matrices are dense, row-major,
// float64.
package blas

import (
	"fmt"

	"rdasched/internal/sim"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("blas: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a slice view.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Equal reports element-wise equality within tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - o.Data[i]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

// FillRandom fills with uniform values in [-1, 1) from a deterministic
// generator.
func (m *Matrix) FillRandom(rng *sim.RNG) {
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
}

// NewRandomMatrix allocates and fills a matrix; the same seed gives the
// same matrix.
func NewRandomMatrix(rows, cols int, seed uint64) *Matrix {
	m := NewMatrix(rows, cols)
	m.FillRandom(sim.NewRNG(seed))
	return m
}
