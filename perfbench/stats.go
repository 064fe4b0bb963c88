package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), like Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs by the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads this benchmark reports match the ones an outside checker
// computes from the same values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// worseBy returns how much worse child is than parent, as a share of
// parent: positive when the metric moved in its bad direction.
func worseBy(parent, child float64, better string) (float64, error) {
	if parent == 0 {
		return 0, fmt.Errorf("metric with a zero parent median has no relative bound")
	}
	switch better {
	case "lower":
		return (child - parent) / parent, nil
	case "higher":
		return (parent - child) / parent, nil
	}
	return 0, fmt.Errorf("unknown direction %q", better)
}

// verdict compares two sets of runs of one metric the way the benchmark's
// bounds are meant to be read: each set's spread must stay within the
// bound, and the second set's median must not be worse than the first's
// by more than the bound.
type verdict struct {
	MedA, MedB      float64
	SpreadA         float64
	SpreadB         float64
	Worse           float64
	SpreadOK, MedOK bool
}

func compareRuns(spec metricSpec, a, b []float64) (verdict, error) {
	v := verdict{MedA: median(a), MedB: median(b), SpreadA: spread(a), SpreadB: spread(b)}
	w, err := worseBy(v.MedA, v.MedB, spec.Better)
	if err != nil {
		return v, fmt.Errorf("%s: %w", spec.Name, err)
	}
	v.Worse = w
	v.MedOK = w <= spec.Bound
	v.SpreadOK = v.SpreadA <= spec.Bound && v.SpreadB <= spec.Bound
	return v, nil
}
