package experiments

import (
	"fmt"
	"sort"

	"rdasched/internal/memtrace"
	"rdasched/internal/pp"
	"rdasched/internal/profiler"
	"rdasched/internal/regress"
	"rdasched/internal/report"
	"rdasched/internal/runner"
	"rdasched/internal/workloads"
)

// WSSSeries is the measured working-set growth of one progress period
// across the four profiled input sizes, with the log-regression
// prediction of the held-out fourth point (§4.4, Figure 12).
type WSSSeries struct {
	App      string
	Period   int
	Loop     string
	Inputs   []int
	Measured []pp.Bytes
	Fit      regress.Log
	// Predicted is the fit's estimate of the fourth input's WSS; the fit
	// uses only the first three.
	Predicted pp.Bytes
	Accuracy  float64
}

// WSSPredictionResult is the Figure 12 dataset: four series (Wnsq PP1,
// Wnsq PP2, Ocp PP1, Ocp PP2).
type WSSPredictionResult struct {
	Series []WSSSeries
}

// RunWSSPrediction profiles water_nsquared and ocean_cp at their four
// input scales, extracts the top-two progress periods of each via the
// §2.4 profiler, fits y = A + B·ln(x) on the first three measured
// working-set sizes, and scores the prediction of the fourth. Each
// (application, input) profiling run is an independent job on opt.Jobs
// workers; the trace seed is a function of the experiment seed alone,
// so the profile a job yields does not depend on which worker runs it.
// It profiles full-length traces and simulates no machine, so it
// ignores Scale, Repetitions, JitterFrac, Machine, TraceDir, ObsDir,
// Obsrv and Pace.
func RunWSSPrediction(opt Options) (*WSSPredictionResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	cfg := workloads.Fig12ProfilerConfig()
	res := &WSSPredictionResult{}

	apps := []struct {
		name   string
		inputs []int
		trace  func(input int, seed uint64) (*memtrace.PhasedStream, *profiler.Binary)
	}{
		{"water_nsq", workloads.WaterNsqInputs, workloads.WaterNsqTrace},
		{"ocean_cp", workloads.OceanInputs, workloads.OceanTrace},
	}

	// One job per (app, input) pair, flattened app-major.
	type jobRef struct{ app, input int }
	type profile struct {
		wss   [2]pp.Bytes
		loops [2]string
	}
	var jobs []jobRef
	for a, app := range apps {
		for i := range app.inputs {
			jobs = append(jobs, jobRef{a, i})
		}
	}
	profiles, err := runner.Map(opt.Jobs, len(jobs), func(j int) (profile, error) {
		app := apps[jobs[j].app]
		input := app.inputs[jobs[j].input]
		stream, bin := app.trace(input, opt.Seed)
		periods, err := profiler.Profile(stream, cfg, bin)
		if err != nil {
			return profile{}, fmt.Errorf("profiling %s@%d: %w", app.name, input, err)
		}
		top := topPeriods(periods, 2)
		if len(top) != 2 {
			return profile{}, fmt.Errorf("%s@%d: found %d major periods, want 2",
				app.name, input, len(top))
		}
		// Order by appearance (PP1 before PP2).
		sort.Slice(top, func(i, j int) bool { return top[i].FirstWindow < top[j].FirstWindow })
		var p profile
		for k := 0; k < 2; k++ {
			p.wss[k] = top[k].WSS
			if bin != nil && top[k].LoopID >= 0 {
				p.loops[k] = bin.Name(top[k].LoopID)
			}
		}
		return p, nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	next := 0
	for _, app := range apps {
		// measured[periodIdx][inputIdx]
		measured := [2][]pp.Bytes{}
		loops := [2]string{}
		for range app.inputs {
			p := profiles[next]
			next++
			for k := 0; k < 2; k++ {
				measured[k] = append(measured[k], p.wss[k])
				if p.loops[k] != "" {
					loops[k] = p.loops[k]
				}
			}
		}
		for k := 0; k < 2; k++ {
			s, err := buildSeries(app.name, k+1, loops[k], app.inputs, measured[k])
			if err != nil {
				return nil, err
			}
			res.Series = append(res.Series, s)
		}
	}
	return res, nil
}

// topPeriods returns the n periods with the largest working sets.
func topPeriods(periods []profiler.Period, n int) []profiler.Period {
	sorted := append([]profiler.Period(nil), periods...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].WSS > sorted[j].WSS })
	if len(sorted) > n {
		sorted = sorted[:n]
	}
	return sorted
}

func buildSeries(app string, period int, loop string, inputs []int, measured []pp.Bytes) (WSSSeries, error) {
	if len(inputs) < 4 || len(measured) < 4 {
		return WSSSeries{}, fmt.Errorf("experiments: need 4 inputs for %s PP%d", app, period)
	}
	xs := make([]float64, 3)
	ys := make([]float64, 3)
	for i := 0; i < 3; i++ {
		xs[i] = float64(inputs[i])
		ys[i] = measured[i].MiBf()
	}
	fit, err := regress.FitLog(xs, ys)
	if err != nil {
		return WSSSeries{}, fmt.Errorf("experiments: fitting %s PP%d: %w", app, period, err)
	}
	predicted := pp.MB(fit.Predict(float64(inputs[3])))
	return WSSSeries{
		App: app, Period: period, Loop: loop,
		Inputs: inputs, Measured: measured,
		Fit: fit, Predicted: predicted,
		Accuracy: regress.Accuracy(float64(predicted), float64(measured[3])),
	}, nil
}

// Table renders the Figure 12 dataset.
func (r *WSSPredictionResult) Table() *report.Table {
	t := report.NewTable("Figure 12: working-set growth vs input size, log-regression prediction of the 4th input",
		"series", "loop", "1x", "2x", "4x", "8x measured", "8x predicted", "accuracy")
	for _, s := range r.Series {
		t.AddRow(
			fmt.Sprintf("%s PP%d", s.App, s.Period), s.Loop,
			fmt.Sprintf("%.2f", s.Measured[0].MiBf()),
			fmt.Sprintf("%.2f", s.Measured[1].MiBf()),
			fmt.Sprintf("%.2f", s.Measured[2].MiBf()),
			fmt.Sprintf("%.2f", s.Measured[3].MiBf()),
			fmt.Sprintf("%.2f", s.Predicted.MiBf()),
			fmt.Sprintf("%.0f%%", s.Accuracy*100),
		)
	}
	return t
}
