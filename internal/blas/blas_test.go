package blas

import (
	"math"
	"testing"
	"testing/quick"

	"rdasched/internal/sim"
)

const tol = 1e-9

func TestDaxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Daxpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestDcopyDswap(t *testing.T) {
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	Dcopy(x, y)
	if y[0] != 1 || y[2] != 3 {
		t.Fatalf("copy: %v", y)
	}
	a := []float64{1, 2}
	b := []float64{3, 4}
	Dswap(a, b)
	if a[0] != 3 || b[1] != 2 {
		t.Fatalf("swap: %v %v", a, b)
	}
}

func TestDscal(t *testing.T) {
	x := []float64{1, -2, 4}
	Dscal(-0.5, x)
	if x[0] != -0.5 || x[1] != 1 || x[2] != -2 {
		t.Fatalf("x = %v", x)
	}
}

func TestDdotAndNorm(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Ddot(x, y); got != 32 {
		t.Fatalf("ddot = %v", got)
	}
	if got := Dnrm2Sq(x); got != 14 {
		t.Fatalf("nrm2sq = %v", got)
	}
}

func TestVectorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Daxpy(1, []float64{1}, []float64{1, 2})
}

func TestDaxpyInverseProperty(t *testing.T) {
	// Property: daxpy(-a, x, daxpy(a, x, y)) == y.
	f := func(seed uint64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e6 {
			return true
		}
		x := NewRandomVector(64, seed)
		y := NewRandomVector(64, seed+1)
		orig := make([]float64, 64)
		copy(orig, y)
		Daxpy(alpha, x, y)
		Daxpy(-alpha, x, y)
		for i := range y {
			if math.Abs(y[i]-orig[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDswapInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		a := NewRandomVector(32, seed)
		b := NewRandomVector(32, seed+7)
		a0 := append([]float64(nil), a...)
		b0 := append([]float64(nil), b...)
		Dswap(a, b)
		Dswap(a, b)
		for i := range a {
			if a[i] != a0[i] || b[i] != b0[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("At/Set broken")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 5 {
		t.Fatal("Row broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone shares storage")
	}
	if !m.Equal(m.Clone(), 0) {
		t.Fatal("Equal(self) false")
	}
	if m.Equal(NewMatrix(3, 2), 0) {
		t.Fatal("Equal across shapes")
	}
}

func TestIdentityAndTriangular(t *testing.T) {
	m := NewRandomMatrix(4, 4, 1)
	m.FillIdentity()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("identity (%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
	l := NewRandomMatrix(5, 5, 2)
	l.LowerTriangular()
	for i := 0; i < 5; i++ {
		if math.Abs(l.At(i, i)) < 1 {
			t.Fatal("ill-conditioned diagonal")
		}
		for j := i + 1; j < 5; j++ {
			if l.At(i, j) != 0 {
				t.Fatal("upper triangle not cleared")
			}
		}
	}
	u := NewRandomMatrix(5, 5, 3)
	u.UpperTriangular()
	for i := 0; i < 5; i++ {
		for j := 0; j < i; j++ {
			if u.At(i, j) != 0 {
				t.Fatal("lower triangle not cleared")
			}
		}
	}
}

func TestDgemvNAgainstManual(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 1, 1}
	y := []float64{10, 10}
	DgemvN(2, a, x, 0.5, y)
	// y0 = 2*6 + 5 = 17; y1 = 2*15 + 5 = 35
	if y[0] != 17 || y[1] != 35 {
		t.Fatalf("y = %v", y)
	}
}

func TestDgemvTMatchesExplicitTranspose(t *testing.T) {
	rng := sim.NewRNG(5)
	a := NewRandomMatrix(7, 4, rng.Uint64())
	x := NewRandomVector(7, rng.Uint64())
	y1 := NewRandomVector(4, rng.Uint64())
	y2 := append([]float64(nil), y1...)

	DgemvT(1.5, a, x, 0.25, y1)

	// Explicit transpose + dgemvN.
	at := NewMatrix(4, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 4; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	DgemvN(1.5, at, x, 0.25, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > tol {
			t.Fatalf("dgemvT mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

func TestDtrmvDtrsvRoundTrip(t *testing.T) {
	// Solve then multiply must return the original vector.
	l := NewRandomMatrix(16, 16, 9)
	l.LowerTriangular()
	b := NewRandomVector(16, 10)
	orig := append([]float64(nil), b...)
	Dtrsv(l, b) // b = L⁻¹ orig
	Dtrmv(l, b) // b = L L⁻¹ orig = orig
	for i := range b {
		if math.Abs(b[i]-orig[i]) > 1e-8 {
			t.Fatalf("round trip off at %d: %v vs %v", i, b[i], orig[i])
		}
	}
}

func TestDgemmSmallKnown(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := NewMatrix(2, 2)
	copy(b.Data, []float64{5, 6, 7, 8})
	c := NewMatrix(2, 2)
	Dgemm(1, a, b, 0, c)
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("c = %v, want %v", c.Data, want)
		}
	}
}

func TestDgemmBetaScaling(t *testing.T) {
	a := NewRandomMatrix(3, 3, 1)
	b := NewRandomMatrix(3, 3, 2)
	c := NewRandomMatrix(3, 3, 3)
	ref := c.Clone()
	Dgemm(0, a, b, 2, c) // pure scaling
	for i := range c.Data {
		if math.Abs(c.Data[i]-2*ref.Data[i]) > tol {
			t.Fatal("beta scaling wrong")
		}
	}
}

func TestDgemmBlockedMatchesReference(t *testing.T) {
	for _, n := range []int{1, 7, 16, 33, 64, 100} {
		for _, bs := range []int{0, 4, 16, 128} {
			a := NewRandomMatrix(n, n, uint64(n))
			b := NewRandomMatrix(n, n, uint64(n)+1)
			c := NewRandomMatrix(n, n, uint64(n)+2)
			ref := c.Clone()
			Dgemm(1.25, a, b, 0.5, ref)
			DgemmBlocked(1.25, a, b, 0.5, c, bs)
			if !c.Equal(ref, 1e-8) {
				t.Fatalf("blocked dgemm (n=%d, bs=%d) diverges from reference", n, bs)
			}
		}
	}
}

func TestDgemmRectangular(t *testing.T) {
	a := NewRandomMatrix(5, 8, 1)
	b := NewRandomMatrix(8, 3, 2)
	c := NewMatrix(5, 3)
	ref := NewMatrix(5, 3)
	Dgemm(1, a, b, 0, ref)
	DgemmBlocked(1, a, b, 0, c, 4)
	if !c.Equal(ref, 1e-9) {
		t.Fatal("rectangular blocked dgemm wrong")
	}
}

func TestDgemmShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	Dgemm(1, NewMatrix(2, 3), NewMatrix(2, 3), 0, NewMatrix(2, 3))
}

func TestDsyrkSymmetricAndCorrect(t *testing.T) {
	a := NewRandomMatrix(9, 5, 4)
	c := NewMatrix(9, 9)
	Dsyrk(1, a, 0, c)
	// Reference: full dgemm with explicit transpose.
	at := NewMatrix(5, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j < 5; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	ref := NewMatrix(9, 9)
	Dgemm(1, a, at, 0, ref)
	if !c.Equal(ref, 1e-8) {
		t.Fatal("dsyrk != A·Aᵀ")
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			if math.Abs(c.At(i, j)-c.At(j, i)) > tol {
				t.Fatal("dsyrk result not symmetric")
			}
		}
	}
}

func TestDtrmmDtrsmRoundTrip(t *testing.T) {
	// X·U then solve-right by U must return X.
	u := NewRandomMatrix(12, 12, 6)
	u.UpperTriangular()
	b := NewRandomMatrix(8, 12, 7)
	orig := b.Clone()
	DtrmmRU(b, u)
	DtrsmRU(b, u)
	if !b.Equal(orig, 1e-7) {
		t.Fatal("dtrmm/dtrsm round trip failed")
	}
}

func TestDtrmmAgainstDgemm(t *testing.T) {
	u := NewRandomMatrix(10, 10, 8)
	u.UpperTriangular()
	b := NewRandomMatrix(4, 10, 9)
	ref := NewMatrix(4, 10)
	Dgemm(1, b, u, 0, ref)
	DtrmmRU(b, u)
	if !b.Equal(ref, 1e-8) {
		t.Fatal("dtrmm(ru) != B·U")
	}
}

func TestFlopCounts(t *testing.T) {
	for kernel, want := range map[string]float64{
		"dgemm": 2000, "dsyrk": 1100, "dtrmm": 1000, "dtrsm": 1000,
	} {
		if got := Level3Flops(kernel, 10); got != want {
			t.Fatalf("%s flops = %v, want %v", kernel, got, want)
		}
	}
	defer func() { _ = recover() }()
	Level3Flops("nope", 1)
	t.Fatal("unknown kernel did not panic")
}

func BenchmarkDgemmNaive256(b *testing.B) {
	a := NewRandomMatrix(256, 256, 1)
	bb := NewRandomMatrix(256, 256, 2)
	c := NewMatrix(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemm(1, a, bb, 0, c)
	}
}

func BenchmarkDgemmBlocked256(b *testing.B) {
	a := NewRandomMatrix(256, 256, 1)
	bb := NewRandomMatrix(256, 256, 2)
	c := NewMatrix(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DgemmBlocked(1, a, bb, 0, c, 64)
	}
}
