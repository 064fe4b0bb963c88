package experiments

import (
	"fmt"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/perf"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/report"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
)

// E7 — domain failure injection and self-healing recovery. E6 made the
// admission budget shardable; this harness makes a shard fail mid-run
// and compares what the recovery layer does about it. A seeded fault
// plan (faults.DomainPlan) corrupts one shard's ledger, then crashes
// another shard outright, healing it later; the sweep crosses the
// crash time (as a fraction of the estimated makespan) and the domain
// count against the three recovery modes:
//
//   - evacuate: the crashed shard's periods migrate wholesale to the
//     best-fit survivor — actives with their charges and remaining
//     lease, waiters with their wait clocks and re-armed deadlines —
//     and the survivors absorb the dead shard's capacity share until
//     reintegration. Stranded waiters retry on exponential backoff and
//     fall back to the governor's admission ladder.
//   - stall: the shard is quarantined and nothing moves. Its backlog
//     sits until the shard heals or the fallback deadline fires — the
//     "do nothing" baseline.
//   - drop: every period registered on the dead shard is degraded to
//     untracked admission. Nothing waits, but the abandoned demand
//     tracking lets working sets pile onto the physical LLC — the
//     "give up on admission control" baseline.
//
// The claim the golden pins: governed evacuation beats both baselines
// on elapsed time AND DRAM energy — stall loses time waiting out the
// quarantine, drop loses energy (and time) to the contention it stopped
// controlling — and the invariant auditor repairs every injected
// corruption in every cell.

// HealDomainCounts is the swept number of LLC admission domains.
var HealDomainCounts = []int{2, 4}

// HealFailFracs sweeps when the crash lands, as a fraction of the
// workload's estimated makespan.
var HealFailFracs = []float64{0.25, 0.5}

// healModes are the compared recovery strategies, evacuate first (the
// baselines' rows are compared against it).
var healModes = []core.RecoveryMode{core.RecoverEvacuate, core.RecoverStall, core.RecoverDrop}

// healSpec is one heal-mix process: a streaming init, one declared
// pointer-chasing period, a tiny fini. The work phase is deliberately
// LLC-bound — one access per instruction, half of them reaching the
// shared cache — so the resident-vs-thrashing CPI gap is wide (~8.75 vs
// ~37 on the Table 1 model). That gap is what the E7 comparison
// measures: a recovery mode that keeps working sets resident outruns
// one that floods the cache, no matter how many extra co-runners the
// flood buys.
func healSpec(name string, wss pp.Bytes, instr float64) proc.Spec {
	setup := proc.Phase{
		Name: name + "-init", Instr: instr * 0.01, WSS: wss, Reuse: pp.ReuseLow,
		AccessesPerInstr: 0.4, PrivateHitFrac: 0.9, StreamFrac: 1.0,
	}
	work := proc.Phase{
		Name: name, Instr: instr, WSS: wss, Reuse: pp.ReuseHigh,
		AccessesPerInstr: 1.0, PrivateHitFrac: 0.5, StreamFrac: 0,
		FlopsPerInstr: 0.1, Declared: true,
	}
	fini := proc.Phase{
		Name: name + "-fini", Instr: instr * 0.005, WSS: pp.KB(64), Reuse: pp.ReuseLow,
		AccessesPerInstr: 0.2, PrivateHitFrac: 0.95, StreamFrac: 1.0,
	}
	return proc.Spec{Name: name, Threads: 1, Program: proc.Program{setup, work, fini}}
}

// healWSS sizes each working set so exactly four tracked periods fill
// the physical LLC (4 × 3840 KiB = 15360 KiB): at 2 domains each shard
// admits two, at 4 domains each shard admits one, and in both splits
// the admitted set stays fully resident. Any recovery mode that lets a
// fifth (or eighth) working set pile on pays the residency^2 cliff.
var healWSS = pp.KB(3840)

// HealWorkload builds the E7 mix: twelve single-period processes (one
// per Table 1 core) each declaring a quarter of the LLC. Admission, not
// core count, bounds concurrency at four, so every shard carries a
// backlog for a mid-run crash to strand, move, or drop.
func HealWorkload() proc.Workload {
	w := proc.Workload{Name: "heal-mix"}
	for i := 0; i < 12; i++ {
		w.Procs = append(w.Procs,
			healSpec(fmt.Sprintf("job-%d", i), healWSS, 4e8))
	}
	return w
}

// healCPI is the resident-set CPI of the heal-mix work phase under the
// Table 1 model: BaseCPI 1 + 0.25 private-hit cycles + 7.5 exposed LLC
// cycles. It only anchors the injected fault times to real fractions of
// the run; it need not be exact, just the right order.
const healCPI = 8.75

// healMakespan estimates the workload's makespan on an n-domain split
// of the given LLC. Concurrency is admission-limited: each shard of
// capacity C/n co-admits floor((C/n)/WSS) periods, so the declared
// instructions retire on that many cores at healCPI.
func healMakespan(w proc.Workload, llc pp.Bytes, n int) sim.Duration {
	var instr float64
	var wss pp.Bytes
	for _, s := range w.Procs {
		for _, ph := range s.Program {
			if ph.Declared {
				instr += ph.Instr
				if ph.WSS > wss {
					wss = ph.WSS
				}
			}
		}
	}
	conc := 1
	if wss > 0 {
		if fit := int(llc / pp.Bytes(n) / wss); fit >= 1 {
			conc = fit * n
		}
	}
	return sim.FromSeconds(instr * healCPI / 1.9e9 / float64(conc))
}

// HealRow is one (mode, domains, fail fraction) measurement.
type HealRow struct {
	Mode     core.RecoveryMode
	Domains  int
	FailFrac float64
	Mean     perf.Metrics
	StdDev   perf.Metrics
}

// HealResult is the E7 dataset.
type HealResult struct {
	Workload string
	Rows     []HealRow
	// Telemetry merges every cell's registry in cell order; the
	// rda_recovery_* family appears here.
	Telemetry *telemetry.Registry
}

// RunHeal measures the heal-mix under every recovery mode at every
// (domains, fail time) sweep point. Every cell shares the same seeded
// fault plan shape — one ledger corruption at half the crash time, one
// crash healing after twice its onset — so the rows differ only in what
// the recovery layer did about the same disaster. Replications run
// concurrently on opt.Jobs workers; faults ride the virtual clock, so
// the table is bit-identical for every worker count.
func RunHeal(opt Options) (*HealResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	w := scaleWorkload(HealWorkload(), opt.Scale)
	lease, deadline := chaosTimeouts(w)
	gcfg := overloadGovernor(deadline)
	var cells []cell
	for _, n := range HealDomainCounts {
		makespan := healMakespan(w, opt.Machine.LLCCapacity, n)
		for _, frac := range HealFailFracs {
			crashAt := sim.Duration(float64(makespan) * frac)
			plan := faults.Plan{DomainFaults: faults.DomainPlan(
				opt.Seed, n, crashAt, 2*crashAt, pp.MB(2))}
			for _, mode := range healModes {
				rcfg := core.DefaultRecoveryConfig()
				rcfg.Mode = mode
				// Retry on the workload's timescale: first re-probe after
				// ~1/64 of the estimated makespan, doubling four times.
				rcfg.RetryBase = makespan / 64
				rcfg.AuditInterval = makespan / 16
				g := gcfg
				// Always instrumented, like E4–E6: the recovery counters
				// flow through the telemetry registry as well as the table.
				cells = append(cells, cell{
					label: fmt.Sprintf("heal %s n %d fail %.2f", mode, n, frac),
					w:     w,
					rc: perf.RunConfig{
						Machine:       opt.Machine,
						Policy:        core.StrictPolicy{},
						Repetitions:   opt.Repetitions,
						JitterFrac:    opt.JitterFrac,
						Lease:         lease,
						AdmitDeadline: deadline,
						Governor:      &g,
						Domains:       n,
						StealAge:      domainStealAge(w),
						Recovery:      &rcfg,
						Faults:        &plan,
						Telemetry:     true,
					},
				})
			}
		}
	}
	ms, err := measure(cells, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res := &HealResult{Workload: w.Name, Telemetry: telemetry.NewRegistry()}
	i := 0
	for _, n := range HealDomainCounts {
		for _, frac := range HealFailFracs {
			for _, mode := range healModes {
				res.Rows = append(res.Rows, HealRow{Mode: mode, Domains: n, FailFrac: frac,
					Mean: ms[i].Mean, StdDev: ms[i].StdDev})
				res.Telemetry.Merge(ms[i].Mean.Telemetry)
				i++
			}
		}
	}
	return res, nil
}

// Table renders the E7 recovery table. The "vs stall"/"vs drop" columns
// are the evacuate row's wins: baseline elapsed over evacuate elapsed,
// so >1.00x means evacuation beat that baseline.
func (r *HealResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("E7: shard failure recovery — evacuation vs stall/drop baselines (%s)", r.Workload),
		"mode", "domains", "fail at", "elapsed s", "vs evac", "DRAM J",
		"evacuations", "retries", "audit repairs", "healed", "dropped", "max wait s")
	evac := map[string]float64{}
	key := func(row HealRow) string { return fmt.Sprintf("%d/%.2f", row.Domains, row.FailFrac) }
	for _, row := range r.Rows {
		if row.Mode == core.RecoverEvacuate {
			evac[key(row)] = row.Mean.ElapsedSec
		}
	}
	for _, row := range r.Rows {
		ratio := "-"
		if e := evac[key(row)]; row.Mode != core.RecoverEvacuate && e > 0 {
			ratio = fmt.Sprintf("%.2fx", row.Mean.ElapsedSec/e)
		}
		t.AddRow(row.Mode.String(),
			fmt.Sprintf("%d", row.Domains),
			fmt.Sprintf("%.0f%%", row.FailFrac*100),
			fmt.Sprintf("%.3f", row.Mean.ElapsedSec),
			ratio,
			fmt.Sprintf("%.2f", row.Mean.DRAMJ),
			fmt.Sprintf("%.1f", row.Mean.Evacuations),
			fmt.Sprintf("%.1f", row.Mean.EvacRetries),
			fmt.Sprintf("%.1f", row.Mean.AuditRepairs),
			fmt.Sprintf("%.1f", row.Mean.DomainRecoveries),
			fmt.Sprintf("%.1f", row.Mean.DroppedPeriods),
			fmt.Sprintf("%.4f", row.Mean.MaxWaitSec))
	}
	return t
}
