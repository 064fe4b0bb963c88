package experiments

import (
	"fmt"

	"rdasched/internal/core"
	"rdasched/internal/perf"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/report"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
)

// E6 — multi-domain scheduling: the demand-aware placer and cross-domain
// steal against a single global admission domain. The paper's scheduler
// treats the LLC as one shared pool; real server parts split it into
// per-CCX/sub-NUMA slices. This harness sweeps the domain count over two
// synthetic workloads with opposite skew:
//
//   - uniform: every process declares the same mid-sized working set, so
//     any split of the machine admits the same mix and sharding can only
//     add capacity fragmentation;
//   - skewed: a few cache hogs — each declaring more than half the LLC —
//     plus a crowd of small periods. One global Strict domain serializes
//     the hogs (two never fit together), while split domains admit one
//     hog each through the empty-load safeguard, overlapping them; the
//     small periods ride the remaining capacity and migrate to whichever
//     domain drains first via the steal scan.
//
// The makespan gap on the skewed workload is the experiment's point: the
// demand-aware placement beats the single pool exactly when demand skew
// gives the placer something to exploit, and roughly breaks even when it
// does not.

// DomainCounts is the swept number of LLC admission domains.
var DomainCounts = []int{1, 2, 4}

// domainSpec builds one single-threaded process around one declared
// period, bracketed by undeclared setup/teardown like the BLAS kernels:
// blocked, cache-resident compute (high private-hit fraction, almost no
// streaming) so the declared working set is an honest demand.
func domainSpec(name string, wss pp.Bytes, instr float64, reuse pp.Reuse) proc.Spec {
	setup := proc.Phase{
		Name: name + "-init", Instr: instr * 0.01, WSS: wss, Reuse: pp.ReuseLow,
		AccessesPerInstr: 0.4, PrivateHitFrac: 0.9, StreamFrac: 1.0,
	}
	work := proc.Phase{
		Name: name, Instr: instr, WSS: wss, Reuse: reuse,
		AccessesPerInstr: 0.3, PrivateHitFrac: 0.85, StreamFrac: 0.05,
		FlopsPerInstr: 0.5, Declared: true,
	}
	fini := proc.Phase{
		Name: name + "-fini", Instr: instr * 0.005, WSS: pp.KB(64), Reuse: pp.ReuseLow,
		AccessesPerInstr: 0.2, PrivateHitFrac: 0.95, StreamFrac: 1.0,
	}
	return proc.Spec{Name: name, Threads: 1, Program: proc.Program{setup, work, fini}}
}

// DomainUniform is the no-skew control: twelve processes (one per Table 1
// core) each declaring an eighth of the LLC, so at every domain count the
// same number fit concurrently and placement has nothing to exploit.
func DomainUniform() proc.Workload {
	w := proc.Workload{Name: "domain-uniform"}
	for i := 0; i < 12; i++ {
		w.Procs = append(w.Procs,
			domainSpec(fmt.Sprintf("mid-%d", i), pp.KB(1920), 1.2e9, pp.ReuseHigh))
	}
	return w
}

// DomainSkewed is the skewed workload: four hogs each declaring 60% of
// the LLC (9 MiB of 15 MiB) and sixteen small periods at 1/16 of it. A
// single Strict domain can never co-admit two hogs; per-domain capacity
// splits make every hog oversized, so the empty-load safeguard admits one
// per drained domain and the hogs overlap.
func DomainSkewed() proc.Workload {
	w := proc.Workload{Name: "domain-skewed"}
	for i := 0; i < 4; i++ {
		w.Procs = append(w.Procs,
			domainSpec(fmt.Sprintf("hog-%d", i), pp.KB(9216), 3e9, pp.ReuseHigh))
	}
	for i := 0; i < 16; i++ {
		w.Procs = append(w.Procs,
			domainSpec(fmt.Sprintf("small-%d", i), pp.KB(960), 4.5e8, pp.ReuseMed))
	}
	return w
}

// domainStealAge derives the steal threshold from the workload's
// timescale, like chaosTimeouts does for the lease: a waiter ages once
// it has been parked for a small fraction of the longest declared phase,
// so the scan fires many times within a hog's runtime at every -scale.
func domainStealAge(w proc.Workload) sim.Duration {
	return sim.FromSeconds(idealSeconds(w) / 16)
}

// DomainRow is one (workload, domain count) measurement.
type DomainRow struct {
	Workload string
	Domains  int
	Mean     perf.Metrics
	StdDev   perf.Metrics
}

// DomainResult is the E6 dataset.
type DomainResult struct {
	Rows []DomainRow
	// Telemetry merges every cell's registry in cell order; the
	// rda_domain_* family appears here for multi-domain cells.
	Telemetry *telemetry.Registry
}

// RunDomains measures both workloads at every domain count under
// RDA:Strict. The (workload, domains, repetition) replications run
// concurrently on opt.Jobs workers; placement and steal decisions ride
// the virtual clock, so the table is bit-identical for every worker
// count.
func RunDomains(opt Options) (*DomainResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	var cells []cell
	for _, base := range []proc.Workload{DomainUniform(), DomainSkewed()} {
		w := scaleWorkload(base, opt.Scale)
		age := domainStealAge(w)
		for _, n := range DomainCounts {
			// Always instrumented, like E4/E5: the per-domain load/steal
			// counters flow through the telemetry registry as well as the
			// table.
			rc := perf.RunConfig{
				Machine:     opt.Machine,
				Policy:      core.StrictPolicy{},
				Repetitions: opt.Repetitions,
				JitterFrac:  opt.JitterFrac,
				Domains:     n,
				Telemetry:   true,
			}
			if n >= 2 {
				rc.StealAge = age
			}
			cells = append(cells, cell{label: fmt.Sprintf("domains %s n %d", base.Name, n), w: w, rc: rc})
		}
	}
	ms, err := measure(cells, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res := &DomainResult{Telemetry: telemetry.NewRegistry()}
	i := 0
	for _, name := range []string{"domain-uniform", "domain-skewed"} {
		for _, n := range DomainCounts {
			res.Rows = append(res.Rows, DomainRow{Workload: name, Domains: n,
				Mean: ms[i].Mean, StdDev: ms[i].StdDev})
			res.Telemetry.Merge(ms[i].Mean.Telemetry)
			i++
		}
	}
	return res, nil
}

// Table renders the E6 domain table. Speedup is against the same
// workload's single-domain row, so >1.00x means sharding won.
func (r *DomainResult) Table() *report.Table {
	t := report.NewTable(
		"E6: multi-domain demand-aware placement vs one global domain",
		"workload", "domains", "elapsed s", "speedup", "GFLOPS",
		"DRAM accesses", "placements", "steals", "max wait s")
	baseline := map[string]float64{}
	for _, row := range r.Rows {
		if row.Domains == 1 {
			baseline[row.Workload] = row.Mean.ElapsedSec
		}
	}
	for _, row := range r.Rows {
		speedup := "-"
		if b := baseline[row.Workload]; b > 0 && row.Mean.ElapsedSec > 0 {
			speedup = fmt.Sprintf("%.2fx", b/row.Mean.ElapsedSec)
		}
		t.AddRow(row.Workload,
			fmt.Sprintf("%d", row.Domains),
			fmt.Sprintf("%.3f", row.Mean.ElapsedSec),
			speedup,
			fmt.Sprintf("%.2f", row.Mean.GFLOPS),
			fmt.Sprintf("%.3g", row.Mean.DRAMAccesses),
			fmt.Sprintf("%.1f", row.Mean.DomainPlacements),
			fmt.Sprintf("%.1f", row.Mean.DomainSteals),
			fmt.Sprintf("%.4f", row.Mean.MaxWaitSec))
	}
	return t
}
