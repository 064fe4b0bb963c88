package regress

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 3 + 2x
	l, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.A-3) > 1e-9 || math.Abs(l.B-2) > 1e-9 {
		t.Fatalf("fit = %+v, want A=3 B=2", l)
	}
	if math.Abs(l.R2-1) > 1e-12 {
		t.Fatalf("R² = %v, want 1", l.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestFitLogRecoversCoefficients(t *testing.T) {
	// Property: fitting y = a + b·ln(x) on exact data recovers (a, b).
	f := func(a8, b8 int8) bool {
		a := float64(a8) / 4
		b := float64(b8) / 4
		xs := []float64{1, 2, 5, 10, 100}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a + b*math.Log(x)
		}
		l, err := FitLog(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(l.A-a) < 1e-6 && math.Abs(l.B-b) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitLogRejectsNonPositive(t *testing.T) {
	if _, err := FitLog([]float64{0, 1, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("x=0 accepted")
	}
	if _, err := FitLog([]float64{-1, 1, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("x<0 accepted")
	}
}

func TestLogString(t *testing.T) {
	l := Log{A: 1, B: 2, R2: 0.99}
	if l.String() == "" {
		t.Fatal("empty string")
	}
}

func TestAccuracy(t *testing.T) {
	cases := []struct {
		pred, actual, want float64
	}{
		{100, 100, 1},
		{92, 100, 0.92},
		{108, 100, 0.92},
		{0, 100, 0},
		{300, 100, 0}, // clamped
		{0, 0, 1},
		{5, 0, 0},
	}
	for _, c := range cases {
		if got := Accuracy(c.pred, c.actual); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Accuracy(%v, %v) = %v, want %v", c.pred, c.actual, got, c.want)
		}
	}
}

func TestAccuracyBounds(t *testing.T) {
	f := func(p, a float64) bool {
		if math.IsNaN(p) || math.IsNaN(a) || math.IsInf(p, 0) || math.IsInf(a, 0) {
			return true
		}
		acc := Accuracy(p, a)
		return acc >= 0 && acc <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("mean = %v", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty input not zero")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean = %v, want 2", got)
	}
	if GeoMean([]float64{1, -1}) != 0 {
		t.Fatal("non-positive input not rejected")
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty input not zero")
	}
}

func TestLogFitPredictsHeldOutPoint(t *testing.T) {
	// The Figure 12 procedure in miniature: fit on three points of a
	// log curve plus mild contamination, predict the fourth, and land in
	// the paper's 80–95% accuracy band.
	wss := func(m float64) float64 { return 0.75*math.Log(1+0.002*m) + 0.003*math.Sqrt(m) }
	xs := []float64{8000, 15625, 32768}
	ys := []float64{wss(8000), wss(15625), wss(32768)}
	fit, err := FitLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(fit.Predict(64000), wss(64000))
	if acc < 0.75 || acc > 0.99 {
		t.Fatalf("held-out accuracy %v outside the paper's band", acc)
	}
}
