package rdasched_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices DESIGN.md calls out. Each
// evaluation benchmark runs its experiment at a reduced (shape-
// preserving) scale per iteration and reports the figure's headline
// quantity as a custom metric, so `go test -bench=.` both exercises the
// full pipeline and prints the reproduced numbers. cmd/experiments -all
// regenerates the full-scale versions recorded in EXPERIMENTS.md.

import (
	"fmt"
	"runtime"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/experiments"
	"rdasched/internal/machine"
	"rdasched/internal/perf"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/telemetry/blame"
	"rdasched/internal/workloads"
)

// benchJobs is the worker count the evaluation benchmarks run with. The
// experiment output is bit-identical for any value (see
// internal/runner); parallelism only changes wall-clock time.
var benchJobs = runtime.GOMAXPROCS(0)

func benchOpts() experiments.Options {
	o := experiments.Defaults()
	o.Repetitions = 1
	o.JitterFrac = 0
	o.Scale = 0.1
	o.Jobs = benchJobs
	return o
}

func BenchmarkTable1MachineModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workloads.Table2() {
			if err := w.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// comparisonBench runs the Figures 7–10 sweep and reports one metric.
func comparisonBench(b *testing.B, metric func(perf.Metrics) float64, unit string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunPolicyComparison(workloads.Table2(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: strict vs default, averaged over workloads.
		var strictSum, defSum float64
		for _, r := range rows {
			switch r.Policy {
			case "strict":
				strictSum += metric(r.Mean)
			case "default":
				defSum += metric(r.Mean)
			}
		}
		last = strictSum / defSum
	}
	b.ReportMetric(last, unit)
}

func BenchmarkFig7SystemEnergy(b *testing.B) {
	comparisonBench(b, func(m perf.Metrics) float64 { return m.SystemJ }, "strict/default-J")
}

func BenchmarkFig8DRAMEnergy(b *testing.B) {
	comparisonBench(b, func(m perf.Metrics) float64 { return m.DRAMJ }, "strict/default-dramJ")
}

func BenchmarkFig9GFLOPS(b *testing.B) {
	comparisonBench(b, func(m perf.Metrics) float64 { return m.GFLOPS }, "strict/default-gflops")
}

func BenchmarkFig10Efficiency(b *testing.B) {
	comparisonBench(b, func(m perf.Metrics) float64 { return m.GFLOPSPerWatt }, "strict/default-gfpw")
}

func BenchmarkFig11Granularity(b *testing.B) {
	var inner float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunGranularity(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			if p.Label == "inner" {
				inner = p.Overhead
			}
		}
	}
	b.ReportMetric(inner*100, "inner-overhead-%")
}

func BenchmarkFig12WSSPrediction(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWSSPrediction(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		acc = 0
		for _, s := range res.Series {
			acc += s.Accuracy
		}
		acc /= float64(len(res.Series))
	}
	b.ReportMetric(acc*100, "mean-accuracy-%")
}

func BenchmarkFig13Interference(b *testing.B) {
	var cliff float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunInterference(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var g6, g12 float64
		for _, p := range res.Points {
			if p.Molecules == 8000 && p.Instances == 6 {
				g6 = p.GFLOPS
			}
			if p.Molecules == 8000 && p.Instances == 12 {
				g12 = p.GFLOPS
			}
		}
		cliff = g12 / g6
	}
	b.ReportMetric(cliff, "8000mol-12/6-scaling")
}

// BenchmarkExperimentsParallel contrasts Jobs=1 with Jobs=GOMAXPROCS on
// a scaled-down policy comparison (4 repetitions with jitter, like the
// paper's measurement protocol, so there are 24 replications to fan
// out). The two sub-benchmarks compute identical tables — compare their
// ns/op to read the parallel speedup on a multi-core host.
func BenchmarkExperimentsParallel(b *testing.B) {
	ws := []proc.Workload{workloads.BLAS3(), workloads.WaterNsq()}
	for _, jobs := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			o := experiments.Defaults()
			o.Scale = 0.1
			o.Jobs = jobs
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunPolicyComparison(ws, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6DomainSpeedup runs the multi-domain sweep and reports the
// headline: the skewed workload's makespan speedup at two domains over
// the single global domain.
func BenchmarkE6DomainSpeedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDomains(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var one, two float64
		for _, row := range res.Rows {
			if row.Workload == "domain-skewed" {
				switch row.Domains {
				case 1:
					one = row.Mean.ElapsedSec
				case 2:
					two = row.Mean.ElapsedSec
				}
			}
		}
		speedup = one / two
	}
	b.ReportMetric(speedup, "skewed-2dom-speedup")
}

// BenchmarkDomainPlacement measures the placer's hot path: a stream of
// small declared periods fanned across four domains, reporting the
// placement decisions made per wall-clock second of benchmarking.
func BenchmarkDomainPlacement(b *testing.B) {
	w := proc.ScaleInstr(workloads.StreamingMix(pp.MB(0.5)), 0.05)
	rc := perf.RunConfig{
		Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{},
		Domains: 4,
	}
	var placements float64
	for i := 0; i < b.N; i++ {
		m, _, err := perf.Run(w, rc)
		if err != nil {
			b.Fatal(err)
		}
		placements = m.DomainPlacements
	}
	b.ReportMetric(placements, "placements/run")
}

// BenchmarkDomainShardingOverhead contrasts one admission domain
// (Domains 0 and 1 both build perf's single-shard set, which delegates
// every call, so they differ only by timing noise) with a four-way
// split, which pays for placement and the steal pass.
func BenchmarkDomainShardingOverhead(b *testing.B) {
	w := proc.ScaleInstr(workloads.StreamingMix(pp.MB(0.5)), 0.1)
	for _, n := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("domains=%d", n), func(b *testing.B) {
			rc := perf.RunConfig{
				Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{},
				Domains: n,
			}
			for i := 0; i < b.N; i++ {
				if _, _, err := perf.Run(w, rc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (design choices from DESIGN.md §5) ---

func ablationRun(b *testing.B, cfg machine.Config, policy core.Policy) perf.Metrics {
	b.Helper()
	w := proc.ScaleInstr(workloads.WaterNsq(), 0.1)
	m, _, err := perf.Run(w, perf.RunConfig{Machine: cfg, Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAblationResidencyExponent contrasts the LRU-cliff model
// (exponent 2) with linear sharing (exponent 1): the cliff is what makes
// unmanaged co-scheduling expensive.
func BenchmarkAblationResidencyExponent(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		linear := machine.DefaultConfig()
		linear.ResidencyExponent = 1
		cliff := machine.DefaultConfig()
		ratio = ablationRun(b, linear, nil).GFLOPS / ablationRun(b, cliff, nil).GFLOPS
	}
	b.ReportMetric(ratio, "linear/cliff-default-gflops")
}

// BenchmarkAblationWakeRefill measures what ignoring pause/resume cache
// refill would claim for the strict policy.
func BenchmarkAblationWakeRefill(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		free := machine.DefaultConfig()
		free.WakeRefillFactor = 0
		real := machine.DefaultConfig()
		ratio = ablationRun(b, free, core.StrictPolicy{}).SystemJ /
			ablationRun(b, real, core.StrictPolicy{}).SystemJ
	}
	b.ReportMetric(ratio, "norefill/refill-strictJ")
}

// BenchmarkAblationOversubscriptionFactor sweeps the compromise policy's
// factor (the paper fixes x = 2) on water_nsquared.
func BenchmarkAblationOversubscriptionFactor(b *testing.B) {
	var best float64
	var bestX float64
	for i := 0; i < b.N; i++ {
		best, bestX = 0, 0
		for _, x := range []float64{1.25, 1.5, 2, 3, 4} {
			m := ablationRun(b, machine.DefaultConfig(), core.CompromisePolicy{Factor: x})
			if m.GFLOPSPerWatt > best {
				best, bestX = m.GFLOPSPerWatt, x
			}
		}
	}
	b.ReportMetric(bestX, "best-factor")
}

// BenchmarkAblationTaskPoolParking compares §3.4's whole-pool parking
// against naive per-thread blocking on the task-pool workload.
func BenchmarkAblationTaskPoolParking(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		pooled := proc.ScaleInstr(workloads.Volrend(), 0.1)
		naive := proc.ScaleInstr(workloads.Volrend(), 0.1)
		for i := range naive.Procs {
			naive.Procs[i].TaskPool = false
		}
		mp, _, err := perf.Run(pooled, perf.RunConfig{Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{}})
		if err != nil {
			b.Fatal(err)
		}
		mn, _, err := perf.Run(naive, perf.RunConfig{Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{}})
		if err != nil {
			b.Fatal(err)
		}
		ratio = mp.GFLOPS / mn.GFLOPS
	}
	b.ReportMetric(ratio, "pooled/naive-gflops")
}

// BenchmarkTelemetryOverhead contrasts the same E1-sized strict run with
// telemetry disabled (the default: the decision path early-returns
// before building an event) and fully enabled (metrics registry plus
// span collector). Compare the sub-benchmarks' ns/op to read the cost of
// observation; the measured numbers themselves are identical either way.
func BenchmarkTelemetryOverhead(b *testing.B) {
	w := proc.ScaleInstr(workloads.StreamingMix(pp.MB(0.5)), 0.1)
	configs := []struct {
		name string
		rc   perf.RunConfig
	}{
		{"disabled", perf.RunConfig{}},
		{"enabled", perf.RunConfig{Telemetry: true, Trace: true}},
		{"blame", perf.RunConfig{Telemetry: true, Trace: true, Blame: true}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			rc := c.rc
			rc.Machine = machine.DefaultConfig()
			rc.Policy = core.StrictPolicy{}
			for i := 0; i < b.N; i++ {
				if _, _, err := perf.Run(w, rc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlameAttribution measures the wait-attribution engine on the
// E8 skewed workload: the full contended run with the blame collector
// and SLO monitor attached, reporting how many picoseconds of wait each
// iteration attributed. The conservation check runs every iteration, so
// this doubles as a hot-loop validation of the invariant.
func BenchmarkBlameAttribution(b *testing.B) {
	slo := blame.DefaultSLOConfig()
	w := proc.ScaleInstr(experiments.ObserveSkewed(), 0.1)
	rc := perf.RunConfig{
		Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{},
		Blame: true, SLO: &slo,
	}
	var attributed float64
	for i := 0; i < b.N; i++ {
		m, _, err := perf.Run(w, rc)
		if err != nil {
			b.Fatal(err)
		}
		if m.Blame == nil {
			b.Fatal("no blame report")
		}
		if err := m.Blame.Check(); err != nil {
			b.Fatal(err)
		}
		attributed = float64(m.Blame.TotalBlamed)
	}
	b.ReportMetric(attributed, "blamed-ps/run")
}
