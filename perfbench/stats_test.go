package main

import (
	"math"
	"testing"
)

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same values; the external checker uses that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
		med        float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5, 3},
		{[]float64{3, 1, 2}, 1, 2, 3, 2},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1.5},
		{[]float64{5.5, 1.25, 9, 3, 7, 2.5, 8, 4, 6, 10}, 2.875, 5.75, 8.25, 5.75},
		{[]float64{1, 1, 1, 1}, 1, 1, 1, 1},
		{[]float64{7}, 7, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); m != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.med)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
}

func TestSpread(t *testing.T) {
	// quartiles 2.875 and 8.25 around median 5.75
	if got, want := spread([]float64{5.5, 1.25, 9, 3, 7, 2.5, 8, 4, 6, 10}), (8.25-2.875)/5.75; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareRunsBounds(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	iter := metricSpec{Name: "iter_s", Unit: "s", Better: "lower", Bound: 0.1}
	for _, tc := range []struct {
		name     string
		spec     metricSpec
		a, b     []float64
		medOK    bool
		spreadOK bool
	}{
		{"unchanged", iter, steady, steady, true, true},
		{"slower within bound", iter, steady, scaled(1.08), true, true},
		{"slower beyond bound", iter, steady, scaled(1.15), false, true},
		{"faster is never worse", iter, steady, scaled(0.5), true, true},
		{"higher-is-better drop beyond bound", metricSpec{Name: "rate", Better: "higher", Bound: 0.1}, steady, scaled(0.85), false, true},
		{"noisy set", iter, steady, []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}, true, false},
		{"set-up spread is bounded too", metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25},
			steady, []float64{0.5, 1.5, 0.6, 1.4, 1.0, 0.55, 1.45, 0.9, 1.1, 1.0}, true, false},
	} {
		v, err := compareRuns(tc.spec, tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if v.MedOK != tc.medOK || v.SpreadOK != tc.spreadOK {
			t.Errorf("%s: medOK %v spreadOK %v (worse %.3f, spreads %.3f %.3f), want %v %v",
				tc.name, v.MedOK, v.SpreadOK, v.Worse, v.SpreadA, v.SpreadB, tc.medOK, tc.spreadOK)
		}
	}
	if _, err := compareRuns(iter, []float64{0, 0}, steady); err == nil {
		t.Error("a zero parent median should be an error, not a verdict")
	}
}
