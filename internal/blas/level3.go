package blas

import "fmt"

// Dgemm computes C ← alpha·A·B + beta·C with the classic three-loop form
// (the reference implementation blocked variants are tested against).
func Dgemm(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Rows || a.Rows != c.Rows || b.Cols != c.Cols {
		panic(fmt.Sprintf("blas: dgemm shape %dx%d · %dx%d → %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	for i := 0; i < c.Rows; i++ {
		ci := c.Row(i)
		for j := range ci {
			ci[j] *= beta
		}
		ai := a.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := alpha * ai[k]
			bk := b.Row(k)
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// DgemmBlocked computes C ← alpha·A·B + beta·C with three-level loop
// blocking so the touched panels fit in cache — the form the paper's
// BLAS-3 workloads use. blockSize ≤ 0 selects a default of 64.
func DgemmBlocked(alpha float64, a, b *Matrix, beta float64, c *Matrix, blockSize int) {
	if a.Cols != b.Rows || a.Rows != c.Rows || b.Cols != c.Cols {
		panic(fmt.Sprintf("blas: dgemm shape %dx%d · %dx%d → %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	bs := blockSize
	if bs <= 0 {
		bs = 64
	}
	for i := range c.Data {
		c.Data[i] *= beta
	}
	n, m, k := c.Rows, c.Cols, a.Cols
	for i0 := 0; i0 < n; i0 += bs {
		i1 := min(i0+bs, n)
		for k0 := 0; k0 < k; k0 += bs {
			k1 := min(k0+bs, k)
			for j0 := 0; j0 < m; j0 += bs {
				j1 := min(j0+bs, m)
				for i := i0; i < i1; i++ {
					ci := c.Row(i)
					ai := a.Row(i)
					for kk := k0; kk < k1; kk++ {
						aik := alpha * ai[kk]
						bk := b.Row(kk)
						for j := j0; j < j1; j++ {
							ci[j] += aik * bk[j]
						}
					}
				}
			}
		}
	}
}

// Level3Flops returns the flop count of one level-3 kernel (dgemm,
// dsyrk, dtrmm or dtrsm) on n×n operands.
func Level3Flops(kernel string, n int) float64 {
	fn := float64(n)
	switch kernel {
	case "dgemm":
		return 2 * fn * fn * fn
	case "dsyrk":
		return fn * fn * (fn + 1)
	case "dtrmm", "dtrsm":
		return fn * fn * fn
	default:
		panic("blas: unknown level-3 kernel " + kernel)
	}
}
