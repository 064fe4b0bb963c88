package experiments

import (
	"fmt"

	"rdasched/internal/perf"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/report"
	"rdasched/internal/telemetry"
	"rdasched/internal/telemetry/blame"
)

// E8 — causal wait attribution: who made each period wait, and for how
// long. The harness runs one deliberately skewed workload — two cache
// hogs that can never be co-admitted under Strict plus a crowd of small
// periods riding the leftover capacity — with the blame collector and
// the SLO monitor attached, and renders the interference matrix, the
// critical-path decomposition, and the burn-rate evaluation as one
// table. Everything derives from the virtual clock, so the table is
// bit-identical for every -jobs value; e8.golden pins it.

// ObserveSkewed is the E8 workload: two 9 MiB hogs (60% of the 15 MiB
// LLC — mutually exclusive under Strict) and six 2 MiB small periods.
// Every wait has an unambiguous cause, which is exactly what an
// attribution engine should be pinned against.
func ObserveSkewed() proc.Workload {
	w := proc.Workload{Name: "observe-skewed"}
	for i := 0; i < 2; i++ {
		w.Procs = append(w.Procs,
			domainSpec(fmt.Sprintf("hog-%d", i), pp.KB(9216), 3e9, pp.ReuseHigh))
	}
	for i := 0; i < 6; i++ {
		w.Procs = append(w.Procs,
			domainSpec(fmt.Sprintf("small-%d", i), pp.KB(2048), 6e8, pp.ReuseMed))
	}
	return w
}

// ObservePolicies are the admission configurations E8 compares: the
// paper's two RDA policies (the Linux default never denies, so there
// is nothing to attribute).
func ObservePolicies() []NamedPolicy { return Policies()[1:] }

// ObserveRow is one policy's attribution measurement.
type ObserveRow struct {
	Policy string
	Mean   perf.Metrics
	StdDev perf.Metrics
	Blame  *blame.Report
	SLO    *blame.SLOResult
}

// ObserveResult is the E8 dataset.
type ObserveResult struct {
	Workload string
	Rows     []ObserveRow
	// Telemetry merges every cell's registry in cell order; the
	// rda_blame_* and rda_slo_* families land here.
	Telemetry *telemetry.Registry
}

// RunObserve measures the skewed workload under both RDA policies with
// blame attribution and the default SLO objective attached.
func RunObserve(opt Options) (*ObserveResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	w := scaleWorkload(ObserveSkewed(), opt.Scale)
	var cells []cell
	for _, p := range ObservePolicies() {
		cells = append(cells, cell{
			label: fmt.Sprintf("observe %s %s", w.Name, p.Name),
			w:     w,
			rc: perf.RunConfig{
				Machine:     opt.Machine,
				Policy:      p.Policy,
				Repetitions: opt.Repetitions,
				JitterFrac:  opt.JitterFrac,
				Telemetry:   true,
				Blame:       true,
				SLO:         defaultSLO(),
			},
		})
	}
	ms, err := measure(cells, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res := &ObserveResult{Workload: w.Name, Telemetry: telemetry.NewRegistry()}
	for i, p := range ObservePolicies() {
		rpt := ms[i].Mean.Blame
		if rpt == nil {
			rpt = &blame.Report{}
		}
		if err := rpt.Check(); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", cells[i].label, err)
		}
		res.Rows = append(res.Rows, ObserveRow{Policy: p.Name,
			Mean: ms[i].Mean, StdDev: ms[i].StdDev,
			Blame: rpt, SLO: ms[i].Mean.SLO})
		res.Telemetry.Merge(ms[i].Mean.Telemetry)
	}
	return res, nil
}

// Table renders the E8 attribution table: per policy, the interference
// matrix cell by cell (blocker process → waiting process), then the
// conservation totals, the critical-path split, and the SLO verdict.
// Shares are of the policy's total wait; path rows are of makespan.
func (r *ObserveResult) Table() *report.Table {
	t := report.NewTable(
		"E8: causal wait attribution — skewed hogs under admission control",
		"policy", "entry", "seconds", "share")
	procs := ObserveSkewed().Procs
	name := func(i int) string {
		if i >= 0 && i < len(procs) {
			return fmt.Sprintf("%s#%d", procs[i].Name, i)
		}
		return fmt.Sprintf("proc%d", i)
	}
	for _, row := range r.Rows {
		b := row.Blame
		waitShare := func(d float64) string {
			if b.TotalWait == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*d/float64(b.TotalWait))
		}
		for _, c := range b.Matrix {
			t.AddRow(row.Policy,
				fmt.Sprintf("%s blocks %s", name(c.BlockerProc), name(c.WaiterProc)),
				fmt.Sprintf("%.6f", c.Blamed.Seconds()), waitShare(float64(c.Blamed)))
		}
		t.AddRow(row.Policy, fmt.Sprintf("total wait (%d denies)", b.Denies),
			fmt.Sprintf("%.6f", b.TotalWait.Seconds()), waitShare(float64(b.TotalWait)))
		t.AddRow(row.Policy, "blamed",
			fmt.Sprintf("%.6f", b.TotalBlamed.Seconds()), waitShare(float64(b.TotalBlamed)))
		t.AddRow(row.Policy, "unattributed",
			fmt.Sprintf("%.6f", b.TotalUnattributed.Seconds()), waitShare(float64(b.TotalUnattributed)))
		mkShare := func(d float64) string {
			if b.Path.Makespan == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*d/float64(b.Path.Makespan))
		}
		t.AddRow(row.Policy, "path run",
			fmt.Sprintf("%.6f", b.Path.Run.Seconds()), mkShare(float64(b.Path.Run)))
		t.AddRow(row.Policy, "path wait (blamed)",
			fmt.Sprintf("%.6f", b.Path.WaitBlamed.Seconds()), mkShare(float64(b.Path.WaitBlamed)))
		t.AddRow(row.Policy, "path wait (unattributed)",
			fmt.Sprintf("%.6f", b.Path.WaitUnattributed.Seconds()), mkShare(float64(b.Path.WaitUnattributed)))
		t.AddRow(row.Policy, "path idle",
			fmt.Sprintf("%.6f", b.Path.Idle.Seconds()), mkShare(float64(b.Path.Idle)))
		if row.SLO != nil {
			t.AddRow(row.Policy,
				fmt.Sprintf("SLO breaches (of %d admissions)", row.SLO.Admissions),
				fmt.Sprintf("%d", row.SLO.Breaches),
				fmt.Sprintf("alerts %d", row.SLO.Alerts))
		}
	}
	return t
}
