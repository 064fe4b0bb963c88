package experiments

import (
	"fmt"

	"rdasched/internal/core"
	"rdasched/internal/perf"
	"rdasched/internal/proc"
	"rdasched/internal/report"
	"rdasched/internal/workloads"
)

// Oversubscription-factor sweep: the paper fixes the compromise policy's
// factor at 2, "shown to be effective in attaining the best balance
// between energy efficiency and performance", without publishing the
// sweep. RunFactorSweep reproduces that tuning study across the
// high-reuse workloads where the choice matters.

// FactorPoint is one (workload, factor) measurement.
type FactorPoint struct {
	Workload string
	Factor   float64
	Mean     perf.Metrics
}

// FactorSweepResult is the sweep dataset.
type FactorSweepResult struct {
	Factors []float64
	Points  []FactorPoint
}

// FactorSweepValues are the swept oversubscription factors; 1.0 is
// equivalent to strict.
var FactorSweepValues = []float64{1.0, 1.5, 2.0, 3.0, 4.0}

// RunFactorSweep measures the compromise policy at each factor on the
// BLAS-3 and water_nsquared workloads, fanning the sweep cells out on
// opt.Jobs workers.
func RunFactorSweep(opt Options) (*FactorSweepResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	res := &FactorSweepResult{Factors: FactorSweepValues}
	var cells []cell
	for _, w := range []proc.Workload{workloads.BLAS3(), workloads.WaterNsq()} {
		sw := scaleWorkload(w, opt.Scale)
		for _, x := range FactorSweepValues {
			cells = append(cells, cell{
				label: fmt.Sprintf("factor sweep %s x=%v", w.Name, x),
				w:     sw,
				rc: perf.RunConfig{
					Machine:     opt.Machine,
					Policy:      core.CompromisePolicy{Factor: x},
					Repetitions: opt.Repetitions,
					JitterFrac:  opt.JitterFrac,
				},
			})
		}
	}
	ms, err := measure(cells, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	for i, m := range ms {
		res.Points = append(res.Points, FactorPoint{
			Workload: cells[i].w.Name,
			Factor:   FactorSweepValues[i%len(FactorSweepValues)],
			Mean:     m.Mean,
		})
	}
	return res, nil
}

// Table renders the sweep.
func (r *FactorSweepResult) Table() *report.Table {
	t := report.NewTable("Oversubscription factor sweep (compromise policy; x=1 ≡ strict)",
		"workload", "factor", "system J", "GFLOPS", "GFLOPS/W")
	for _, p := range r.Points {
		t.AddRow(p.Workload,
			fmt.Sprintf("%.2f", p.Factor),
			fmt.Sprintf("%.1f", p.Mean.SystemJ),
			fmt.Sprintf("%.3f", p.Mean.GFLOPS),
			fmt.Sprintf("%.4f", p.Mean.GFLOPSPerWatt))
	}
	return t
}
