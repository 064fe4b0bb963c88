package experiments

import (
	"fmt"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/perf"
	"rdasched/internal/report"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
	"rdasched/internal/workloads"
)

// E5 — overload: the adaptive admission governor against static
// policies. E4 shows the static predicates' failure modes under faults:
// Strict parks periods until the fallback deadline (long makespans),
// Compromise over-admits under misdeclared demands (thrashing). This
// harness sweeps fault rate × arrival-burst intensity over the BLAS-3
// workload and compares three admission configurations — RDA:Strict,
// RDA:Compromise, and Strict governed by the adaptive admission governor
// (overload-aware policy degradation, misdeclaration quarantine,
// waitlist aging) — reporting makespan, the DRAM-access thrash proxy,
// the robustness layer's activity, and how often the governor
// intervened.

// OverloadRates is the swept per-candidate fault rate.
var OverloadRates = []float64{0, 0.15, 0.3}

// OverloadBursts is the swept arrival-burst intensity (wave count; 1 =
// all processes arrive at t=0).
var OverloadBursts = []int{1, 3, 6}

// OverloadConfig is one compared admission configuration.
type OverloadConfig struct {
	Name     string
	Policy   core.Policy
	Governed bool
}

// OverloadConfigs returns the compared configurations in table order:
// the two static predicates, then Strict under the governor.
func OverloadConfigs() []OverloadConfig {
	return []OverloadConfig{
		{"strict", core.StrictPolicy{}, false},
		{"compromise", core.NewCompromise(), false},
		{"governor", core.StrictPolicy{}, true},
	}
}

// OverloadRow is one (config, fault rate, burst) measurement.
type OverloadRow struct {
	Config string
	Rate   float64
	Bursts int
	Mean   perf.Metrics
	StdDev perf.Metrics
}

// OverloadResult is the E5 dataset.
type OverloadResult struct {
	Workload string
	Rows     []OverloadRow
	// Telemetry merges every cell's metrics registry in cell order; the
	// rda_governor_* counters appear here alongside the robustness
	// counters.
	Telemetry *telemetry.Registry
}

// overloadGovernor sizes the governor's virtual-clock windows from the
// same workload-derived timescale the lease and admission deadline use,
// so the harness behaves identically at every -scale: pressure must
// persist for a fraction of the deadline before the ladder steps, and
// probation is long enough to cover several periods of the offender.
func overloadGovernor(deadline sim.Duration) core.GovernorConfig {
	cfg := core.DefaultGovernorConfig()
	// A deep waitlist is normal for Strict on this workload (96 processes
	// over 12 cores) — depth alone must not trip the ladder, or the
	// governor would forfeit Strict's cache efficiency on clean runs. The
	// load-bearing overload signals are the robustness layer working hard
	// (fallbacks/reclaims, zero on clean runs by the timeout derivation
	// above) and a stalled waitlist head approaching the fallback
	// deadline. The ladder is capped at Degraded: under leaked
	// registrations the cure is the tightened lease reclaiming them, not
	// shedding admission control entirely — Shedding floods all ~96
	// processes into the cache at once and the whole tail of the run
	// executes at worst-case miss rates.
	cfg.DegradeDepth = 1 << 20
	cfg.ShedDepth = 1 << 20
	cfg.Window = deadline / 2
	cfg.WaitHigh = deadline * 3 / 8
	cfg.HotEvents = 8
	cfg.DegradeHold = deadline / 16
	cfg.RecoverHold = deadline / 16
	cfg.LeaseTighten = 6
	// One strike: every BLAS-3 process declares a single period, so a
	// multi-strike breaker could never trip here — and quarantining the
	// first unambiguous lie keeps the liar's phantom demand out of the
	// load table, which is most of the breaker's value on this workload.
	// (The multi-period trip → probation → probe → restore lifecycle is
	// exercised by the core quarantine tests.)
	cfg.Strikes = 1
	cfg.Probation = deadline / 2
	cfg.AgeThreshold = (deadline / 2).Seconds()
	return cfg
}

// RunOverload measures the BLAS-3 workload under every configuration at
// every fault rate × burst intensity. The (config, rate, burst,
// repetition) replications run concurrently on opt.Jobs workers; every
// replication's faults derive from the experiment seed and its job
// index, so the table is bit-identical for every worker count.
func RunOverload(opt Options) (*OverloadResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	w := scaleWorkload(workloads.BLAS3(), opt.Scale)
	lease, deadline := chaosTimeouts(w)
	gcfg := overloadGovernor(deadline)
	var cells []cell
	for _, c := range OverloadConfigs() {
		for _, rate := range OverloadRates {
			for _, waves := range OverloadBursts {
				// Like E4, every cell runs instrumented: the governor and
				// robustness counters flow through the telemetry registry
				// as well as the table.
				rc := perf.RunConfig{
					Machine:       opt.Machine,
					Policy:        c.Policy,
					Repetitions:   opt.Repetitions,
					JitterFrac:    opt.JitterFrac,
					Lease:         lease,
					AdmitDeadline: deadline,
					Telemetry:     true,
				}
				if c.Governed {
					g := gcfg
					rc.Governor = &g
				}
				plan := faults.Uniform(rate, opt.Machine.LLCCapacity)
				plan.BurstWaves = waves
				if plan.Enabled() {
					rc.Faults = &plan
				}
				cells = append(cells, cell{
					label: fmt.Sprintf("overload %s rate %.2f bursts %d", c.Name, rate, waves),
					w:     w,
					rc:    rc,
				})
			}
		}
	}
	ms, err := measure(cells, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res := &OverloadResult{Workload: w.Name, Telemetry: telemetry.NewRegistry()}
	i := 0
	for _, c := range OverloadConfigs() {
		for _, rate := range OverloadRates {
			for _, waves := range OverloadBursts {
				res.Rows = append(res.Rows, OverloadRow{Config: c.Name, Rate: rate, Bursts: waves,
					Mean: ms[i].Mean, StdDev: ms[i].StdDev})
				res.Telemetry.Merge(ms[i].Mean.Telemetry)
				i++
			}
		}
	}
	return res, nil
}

// Interventions is the row's total governor activity: ladder steps plus
// breaker trips plus aged-waiter reservations.
func (r OverloadRow) Interventions() float64 {
	return r.Mean.GovernorDegradations + r.Mean.GovernorQuarantines + r.Mean.GovernorReservations
}

// Table renders the E5 overload table.
func (r *OverloadResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("E5: adaptive governor vs static policies under overload (%s)", r.Workload),
		"config", "fault rate", "bursts", "elapsed s", "slowdown", "GFLOPS",
		"DRAM accesses", "fallbacks", "reclaimed", "max wait s", "gov events")
	baseline := map[string]float64{}
	for _, row := range r.Rows {
		if row.Rate == 0 && row.Bursts == 1 {
			baseline[row.Config] = row.Mean.ElapsedSec
		}
	}
	for _, row := range r.Rows {
		slowdown := "-"
		if b := baseline[row.Config]; b > 0 {
			slowdown = fmt.Sprintf("%.2fx", row.Mean.ElapsedSec/b)
		}
		gov := "-"
		if row.Config == "governor" {
			gov = fmt.Sprintf("%.1f", row.Interventions())
		}
		t.AddRow(row.Config,
			fmt.Sprintf("%.0f%%", row.Rate*100),
			fmt.Sprintf("%d", row.Bursts),
			fmt.Sprintf("%.3f", row.Mean.ElapsedSec),
			slowdown,
			fmt.Sprintf("%.2f", row.Mean.GFLOPS),
			fmt.Sprintf("%.3g", row.Mean.DRAMAccesses),
			fmt.Sprintf("%.1f", row.Mean.FallbackAdmissions),
			fmt.Sprintf("%.1f", row.Mean.ReclaimedLeases),
			fmt.Sprintf("%.4f", row.Mean.MaxWaitSec),
			gov)
	}
	return t
}
