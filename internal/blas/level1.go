// Package blas implements the twelve dense linear-algebra kernels the
// paper's BLAS workloads run (Table 2): the level-1 vector kernels daxpy,
// dcopy, dscal, dswap; the level-2 matrix-vector kernels dgemv (N and T),
// dtrmv, dtrsv; and the level-3 matrix-matrix kernels dgemm, dsyrk, dtrmm,
// dtrsm. Matrices are dense, row-major, float64.
//
// The simulated workloads describe these kernels by working-set size,
// reuse and instruction count (internal/workloads); of this package they
// use only Level3Flops, to size the BLAS-3 periods. examples/quickstart
// runs a real DGEMM inside a progress period, like the paper's Figure 4.
// The other kernels are a reference implementation exercised by this
// package's tests.
//
// Level-3 kernels include cache-blocked variants, matching the paper's
// setup where "each BLAS kernel ... has been optimized with loop blocking
// so that individually its working set size fits within the last-level
// cache".
package blas

import "fmt"

// Daxpy computes y ← alpha·x + y.
func Daxpy(alpha float64, x, y []float64) {
	checkVecs("daxpy", x, y)
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Dcopy copies x into y.
func Dcopy(x, y []float64) {
	checkVecs("dcopy", x, y)
	copy(y, x)
}

// Dscal scales x in place: x ← alpha·x.
func Dscal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dswap exchanges x and y element-wise.
func Dswap(x, y []float64) {
	checkVecs("dswap", x, y)
	for i := range x {
		x[i], y[i] = y[i], x[i]
	}
}

// Ddot returns xᵀy (used by tests and the tuned dgemm micro-kernel).
func Ddot(x, y []float64) float64 {
	checkVecs("ddot", x, y)
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Dnrm2Sq returns ‖x‖² (squared Euclidean norm; avoids the sqrt so the
// package stays allocation- and math-import-free on the hot path).
func Dnrm2Sq(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func checkVecs(op string, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: %s: length mismatch %d vs %d", op, len(x), len(y)))
	}
}
