package blas

import (
	"math"
	"testing"
)

const tol = 1e-9

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Row(1)[2] = 5
	if len(m.Row(1)) != 3 || m.Data[1*3+2] != 5 {
		t.Fatal("Row broken")
	}
	o := NewMatrix(2, 3)
	o.Row(1)[2] = 5 + 1e-12
	if !m.Equal(o, tol) {
		t.Fatal("Equal within tol false")
	}
	if m.Equal(o, 0) {
		t.Fatal("Equal ignores tol")
	}
	if m.Equal(NewMatrix(3, 2), 0) {
		t.Fatal("Equal across shapes")
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
	ref := NewRandomMatrix(3, 3, 3)
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
			ref := NewRandomMatrix(n, n, uint64(n)+2)
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
