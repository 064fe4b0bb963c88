package experiments

import (
	"fmt"

	"rdasched/internal/core"
	"rdasched/internal/perf"
	"rdasched/internal/proc"
	"rdasched/internal/report"
	"rdasched/internal/telemetry"
	"rdasched/internal/workloads"
)

// Wait profile: where the paper's tables report end-to-end outcomes
// (energy, GFLOPS, makespan), this harness profiles the admission layer
// itself through the telemetry registry — how long denied periods sit on
// the waitlist (p50/p95/p99/max), how full the cache is kept, and how
// deep the waitlist grows — for the contended BLAS groups under each
// admission policy. The quantiles come from log-bucketed histograms, so
// a reported value is the upper bound of the power-of-two bucket holding
// that rank (clamped to the observed maximum).

// WaitRow is one (workload, policy) wait profile.
type WaitRow struct {
	Workload string
	Policy   string
	// Telemetry is the registry merged across the cell's repetitions.
	Telemetry *telemetry.Registry
}

// WaitProfileResult is the wait-profile dataset.
type WaitProfileResult struct {
	Rows []WaitRow
	// Merged is every row's registry merged, in row order.
	Merged *telemetry.Registry
}

// RunWaitProfile measures the BLAS-2 and BLAS-3 workloads under the two
// RDA policies with the telemetry registry attached. The Linux-default
// baseline is omitted: it strips the declarations, so it has no
// admission path to profile.
func RunWaitProfile(opt Options) (*WaitProfileResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	var cells []cell
	for _, w := range []proc.Workload{workloads.BLAS2(), workloads.BLAS3()} {
		for _, p := range Policies()[1:] {
			cells = append(cells, cell{
				label: fmt.Sprintf("waits %s under %s", w.Name, p.Name),
				w:     scaleWorkload(w, opt.Scale),
				rc: perf.RunConfig{
					Machine:     opt.Machine,
					Policy:      p.Policy,
					Repetitions: opt.Repetitions,
					JitterFrac:  opt.JitterFrac,
					Telemetry:   true,
				},
			})
		}
	}
	ms, err := measure(cells, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res := &WaitProfileResult{Merged: telemetry.NewRegistry()}
	for i, c := range cells {
		reg := ms[i].Mean.Telemetry
		res.Rows = append(res.Rows, WaitRow{Workload: c.w.Name, Policy: c.rc.Policy.Name(), Telemetry: reg})
		res.Merged.Merge(reg)
	}
	return res, nil
}

// Table renders the wait profile with the histogram quantile columns.
func (r *WaitProfileResult) Table() *report.Table {
	t := report.NewTable(
		"Wait profile: admission-layer latency under contention (telemetry histograms)",
		"workload", "policy", "admits", "wakes",
		"p50 wait ms", "p95 wait ms", "p99 wait ms", "max wait ms",
		"mean occ MB", "max depth")
	ms := func(sec float64) string { return fmt.Sprintf("%.4g", sec*1e3) }
	mb := func(b float64) string { return fmt.Sprintf("%.2f", b/(1<<20)) }
	for _, row := range r.Rows {
		reg := row.Telemetry
		waits := reg.Histogram(core.MetricWaitSeconds)
		occ := reg.Histogram(core.MetricOccupancyBytes)
		depth := reg.Histogram(core.MetricWaitlistDepth)
		t.AddRow(row.Workload, row.Policy,
			fmt.Sprintf("%d", reg.Counter(core.MetricAdmitted).Value()),
			fmt.Sprintf("%d", reg.Counter(core.MetricWoken).Value()),
			ms(waits.Quantile(0.50)), ms(waits.Quantile(0.95)),
			ms(waits.Quantile(0.99)), ms(waits.Max()),
			mb(occ.Mean()),
			fmt.Sprintf("%.0f", depth.Max()))
	}
	return t
}
