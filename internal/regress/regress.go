// Package regress provides the small regression toolkit behind §4.4: the
// paper fits a logarithmic curve to the working-set sizes measured at the
// first three input scales and predicts the fourth, reporting 80–95%
// accuracy. Linear least squares is included both as the engine under the
// log fit (which is linear in ln x) and as a baseline comparator.
package regress

import (
	"fmt"
	"math"
)

// Linear holds y = A + B·x.
type Linear struct {
	A, B float64
	// R2 is the coefficient of determination on the fitted data.
	R2 float64
}

// FitLinear least-squares fits y = A + B·x. It needs at least two points
// with distinct x.
func FitLinear(xs, ys []float64) (Linear, error) {
	if len(xs) != len(ys) {
		return Linear{}, fmt.Errorf("regress: %d xs vs %d ys", len(xs), len(ys))
	}
	n := float64(len(xs))
	if n < 2 {
		return Linear{}, fmt.Errorf("regress: need ≥2 points, got %d", len(xs))
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Linear{}, fmt.Errorf("regress: degenerate x values")
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n

	// R².
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := a + b*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Linear{A: a, B: b, R2: r2}, nil
}

// Log holds y = A + B·ln(x) — the paper's working-set growth model.
type Log struct {
	A, B float64
	R2   float64
}

// FitLog least-squares fits y = A + B·ln(x). All x must be positive.
func FitLog(xs, ys []float64) (Log, error) {
	lx := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return Log{}, fmt.Errorf("regress: log fit needs positive x, got %v", x)
		}
		lx[i] = math.Log(x)
	}
	lin, err := FitLinear(lx, ys)
	if err != nil {
		return Log{}, err
	}
	return Log{A: lin.A, B: lin.B, R2: lin.R2}, nil
}

// Predict evaluates the curve at x (> 0).
func (l Log) Predict(x float64) float64 { return l.A + l.B*math.Log(x) }

func (l Log) String() string {
	return fmt.Sprintf("y = %.4f + %.4f·ln(x) (R²=%.4f)", l.A, l.B, l.R2)
}

// Accuracy returns the paper's prediction-accuracy measure for a
// predicted vs actual value: 1 - |pred-actual|/actual, clamped to [0,1].
// ("For PP1 and PP2 in water_nsquared, the prediction accuracy is 92% and
// 80%.")
func Accuracy(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 1
		}
		return 0
	}
	acc := 1 - math.Abs(predicted-actual)/math.Abs(actual)
	if acc < 0 {
		return 0
	}
	return acc
}
