package experiments

import (
	"fmt"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/perf"
	"rdasched/internal/proc"
	"rdasched/internal/report"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
	"rdasched/internal/workloads"
)

// E4 — chaos: graceful degradation under misbehaving workloads. The
// paper's evaluation assumes every application is cooperative; this
// harness measures what the admission layer does when they are not. A
// uniform fault plan (internal/faults) perturbs the BLAS-3 workload at a
// swept rate — demands misdeclared or unsatisfiable, pp_ends leaked,
// processes crashing mid-period, arrivals bursting in waves — and each
// policy runs with the lease watchdog and bounded waiting enabled. The
// table reports how throughput and utilization degrade with the fault
// rate and how much work the robustness layer did: leases reclaimed,
// fallback (deadline) admissions, rejected demands, and the longest any
// period waited.

// ChaosRates is the swept per-candidate fault rate.
var ChaosRates = []float64{0, 0.05, 0.15, 0.3}

// ChaosRow is one (configuration, fault rate) measurement. Governed
// marks the governor row; its Mean carries the governor transition
// counts alongside the robustness counters.
type ChaosRow struct {
	Policy   string
	Rate     float64
	Governed bool
	Mean     perf.Metrics
	StdDev   perf.Metrics
}

// ChaosResult is the E4 dataset.
type ChaosResult struct {
	Workload string
	Rows     []ChaosRow
	// Telemetry merges every cell's metrics registry in cell order: the
	// robustness counters the table derives from core.Stats
	// (rda_leases_reclaimed_total, rda_fallback_admissions_total,
	// rda_demands_rejected_total, …) are also exported here, per run,
	// for the Prometheus/JSON encoders.
	Telemetry *telemetry.Registry
}

// chaosTimeouts derives the lease and admission deadline from the
// workload: the longest declared phase at the nominal clock rate, with
// headroom for memory stalls and time-sharing, so legitimate periods
// normally finish within their lease while leaks are still reclaimed
// within a fraction of the run.
func chaosTimeouts(w proc.Workload) (lease, deadline sim.Duration) {
	// Headroom for memory stalls (CPI well above 1 when the LLC is
	// contended) and for time-sharing 96 processes over 12 cores. The
	// multipliers are tuned so a clean (rate-0) run shows no reclaims and
	// no fallbacks: every reclaim or fallback in the table is then
	// attributable to a fault.
	ideal := idealSeconds(w)
	return sim.FromSeconds(ideal * 96), sim.FromSeconds(ideal * 64)
}

// idealSeconds is w's longest declared phase at 1 IPC on the Table 1
// clock: the timescale the harnesses derive their timeouts from.
func idealSeconds(w proc.Workload) float64 {
	var maxInstr float64
	for _, s := range w.Procs {
		for _, ph := range s.Program {
			if ph.Declared && ph.Instr > maxInstr {
				maxInstr = ph.Instr
			}
		}
	}
	return maxInstr / 1.9e9
}

// chaosConfigs returns every static policy, then Strict under the
// adaptive governor (sized like E5's), so the degradation table shows
// the governor's transition counts next to the static policies'
// failure modes.
func chaosConfigs() []OverloadConfig {
	var out []OverloadConfig
	for _, p := range Policies() {
		out = append(out, OverloadConfig{p.Name, p.Policy, false})
	}
	return append(out, OverloadConfig{"governor", core.StrictPolicy{}, true})
}

// RunChaos measures the BLAS-3 workload under every configuration at
// every fault rate. Rate 0 is the clean baseline each configuration's
// slowdown is computed against. All (config, rate, repetition)
// replications run concurrently on opt.Jobs workers; the fault pattern
// of each replication derives from the experiment seed and its job
// index, so the table is bit-identical for every worker count.
func RunChaos(opt Options) (*ChaosResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	w := scaleWorkload(workloads.BLAS3(), opt.Scale)
	lease, deadline := chaosTimeouts(w)
	gcfg := overloadGovernor(deadline)
	cfgs := chaosConfigs()
	var cells []cell
	for _, c := range cfgs {
		for _, rate := range ChaosRates {
			rc := perf.RunConfig{
				Machine:     opt.Machine,
				Policy:      c.Policy,
				Repetitions: opt.Repetitions,
				JitterFrac:  opt.JitterFrac,
			}
			if c.Policy != nil {
				rc.Lease, rc.AdmitDeadline = lease, deadline
				// Scheduled cells always run instrumented: the harness's
				// whole point is the robustness layer's activity, so the
				// counters flow through the telemetry registry as well as
				// the core.Stats floats in the table.
				rc.Telemetry = true
			}
			if c.Governed {
				g := gcfg
				rc.Governor = &g
			}
			if rate > 0 {
				plan := faults.Uniform(rate, opt.Machine.LLCCapacity)
				rc.Faults = &plan
			}
			cells = append(cells, cell{
				label: fmt.Sprintf("chaos %s rate %.2f", c.Name, rate),
				w:     w,
				rc:    rc,
			})
		}
	}
	ms, err := measure(cells, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res := &ChaosResult{Workload: w.Name, Telemetry: telemetry.NewRegistry()}
	i := 0
	for _, c := range cfgs {
		for _, rate := range ChaosRates {
			res.Rows = append(res.Rows, ChaosRow{Policy: c.Name, Rate: rate,
				Governed: c.Governed, Mean: ms[i].Mean, StdDev: ms[i].StdDev})
			res.Telemetry.Merge(ms[i].Mean.Telemetry)
			i++
		}
	}
	return res, nil
}

// Table renders the E4 degradation table.
func (r *ChaosResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("E4: graceful degradation under injected faults (%s)", r.Workload),
		"policy", "fault rate", "elapsed s", "slowdown", "GFLOPS", "busy cores",
		"reclaimed", "fallbacks", "rejected", "max wait s", "gov events")
	baseline := map[string]float64{}
	for _, row := range r.Rows {
		if row.Rate == 0 {
			baseline[row.Policy] = row.Mean.ElapsedSec
		}
	}
	for _, row := range r.Rows {
		slowdown := "-"
		if b := baseline[row.Policy]; b > 0 {
			slowdown = fmt.Sprintf("%.2fx", row.Mean.ElapsedSec/b)
		}
		gov := "-"
		if row.Governed {
			gov = fmt.Sprintf("%.1f", row.Mean.GovernorDegradations+
				row.Mean.GovernorQuarantines+row.Mean.GovernorReservations)
		}
		t.AddRow(row.Policy,
			fmt.Sprintf("%.0f%%", row.Rate*100),
			fmt.Sprintf("%.3f", row.Mean.ElapsedSec),
			slowdown,
			fmt.Sprintf("%.2f", row.Mean.GFLOPS),
			fmt.Sprintf("%.2f", row.Mean.AvgBusyCores),
			fmt.Sprintf("%.1f", row.Mean.ReclaimedLeases),
			fmt.Sprintf("%.1f", row.Mean.FallbackAdmissions),
			fmt.Sprintf("%.1f", row.Mean.RejectedDemands),
			fmt.Sprintf("%.4f", row.Mean.MaxWaitSec),
			gov)
	}
	return t
}
