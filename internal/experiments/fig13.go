package experiments

import (
	"fmt"

	"rdasched/internal/perf"
	"rdasched/internal/report"
	"rdasched/internal/workloads"
)

// InterferencePoint is one cell of Figure 13: water_nsquared's longest
// progress period run at a molecule count and a concurrency level.
type InterferencePoint struct {
	Molecules int
	Instances int
	GFLOPS    float64
}

// InterferenceResult is the Figure 13 dataset.
type InterferenceResult struct {
	Points []InterferencePoint
}

// RunInterference reproduces Figure 13: the largest water_nsquared
// progress period at inputs {512, 3375, 8000, 32768} molecules and
// {1, 6, 12} concurrent instances, run under the *default* policy — the
// experiment quantifies the LLC interference that unmanaged concurrency
// causes ("the amount of slowdown ... due to LLC interference from
// increased data size and concurrent processes running"), which is the
// evidence that co-scheduling water_nsquared in groups of six beats
// running all twelve together. The aggregate GFLOPS shows where
// interference bends the scaling curve. Scale is floored at 0.05, and
// no cell has a scheduler, so TraceDir receives no trace files.
func RunInterference(opt Options) (*InterferenceResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	var cells []cell
	for _, mol := range workloads.Fig13Inputs {
		for _, inst := range workloads.Fig13Instances {
			w, err := workloads.WaterNsqLargestPP(mol, inst)
			if err != nil {
				return nil, err
			}
			// Shorten periods for scaled runs; instance counts and
			// working sets (the interference variables) are preserved.
			w = scaleWorkload(w, max(opt.Scale, 0.05))
			cells = append(cells, cell{
				label: fmt.Sprintf("fig13 %d×%d", mol, inst),
				w:     w,
				rc: perf.RunConfig{
					Machine:     opt.Machine,
					Policy:      nil,
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
	res := &InterferenceResult{}
	i := 0
	for _, mol := range workloads.Fig13Inputs {
		for _, inst := range workloads.Fig13Instances {
			res.Points = append(res.Points, InterferencePoint{
				Molecules: mol, Instances: inst, GFLOPS: ms[i].Mean.GFLOPS,
			})
			i++
		}
	}
	return res, nil
}

// Table renders the Figure 13 dataset: one row per input size, one
// column per concurrency level, plus the 6→12 scaling ratio that shows
// the interference collapse.
func (r *InterferenceResult) Table() *report.Table {
	t := report.NewTable("Figure 13: LLC interference on water_nsquared's largest period (GFLOPS)",
		"molecules", "1 inst", "6 inst", "12 inst", "12/6 scaling")
	byMol := map[int]map[int]float64{}
	var order []int
	for _, p := range r.Points {
		if byMol[p.Molecules] == nil {
			byMol[p.Molecules] = map[int]float64{}
			order = append(order, p.Molecules)
		}
		byMol[p.Molecules][p.Instances] = p.GFLOPS
	}
	for _, mol := range order {
		m := byMol[mol]
		scaling := "-"
		if m[6] > 0 {
			scaling = fmt.Sprintf("%.2fx", m[12]/m[6])
		}
		t.AddRow(fmt.Sprintf("%d", mol),
			fmt.Sprintf("%.2f", m[1]), fmt.Sprintf("%.2f", m[6]),
			fmt.Sprintf("%.2f", m[12]), scaling)
	}
	return t
}
