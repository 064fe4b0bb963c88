package experiments

import (
	"fmt"

	"rdasched/internal/core"
	"rdasched/internal/perf"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/report"
	"rdasched/internal/workloads"
)

// Extension experiments: the paper's §6 future work, implemented and
// measured. E1 evaluates cache partitioning for streaming applications
// whose working sets exceed the LLC; E2 evaluates reserving capacity for
// LLC-intensive applications that declare no progress periods.

// ExtensionRow is one measured variant of an extension experiment.
type ExtensionRow struct {
	Variant string
	Mean    perf.Metrics
}

// ExtensionResult is an extension experiment's dataset.
type ExtensionResult struct {
	Name string
	Rows []ExtensionRow
}

// Table renders the result.
func (r *ExtensionResult) Table() *report.Table {
	t := report.NewTable(r.Name,
		"variant", "system J", "DRAM J", "GFLOPS", "GFLOPS/W", "seconds", "busy")
	for _, row := range r.Rows {
		t.AddRow(row.Variant,
			fmt.Sprintf("%.1f", row.Mean.SystemJ),
			fmt.Sprintf("%.1f", row.Mean.DRAMJ),
			fmt.Sprintf("%.3f", row.Mean.GFLOPS),
			fmt.Sprintf("%.4f", row.Mean.GFLOPSPerWatt),
			fmt.Sprintf("%.2f", row.Mean.ElapsedSec),
			fmt.Sprintf("%.1f", row.Mean.AvgBusyCores))
	}
	return t
}

// variant is one measured configuration of an extension experiment:
// its label, workload and LLC reservation, under the strict policy.
type variant struct {
	name    string
	w       proc.Workload
	reserve pp.Bytes
}

// runExtension measures each variant under the strict policy; tag
// prefixes the cell labels.
func runExtension(opt Options, title, tag string, variants []variant) (*ExtensionResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	cells := make([]cell, len(variants))
	for i, v := range variants {
		cells[i] = cell{
			label: fmt.Sprintf("%s %s", tag, v.name),
			w:     scaleWorkload(v.w, opt.Scale),
			rc: perf.RunConfig{
				Machine:     opt.Machine,
				Policy:      core.StrictPolicy{},
				Reserve:     v.reserve,
				Repetitions: opt.Repetitions,
				JitterFrac:  opt.JitterFrac,
			},
		}
	}
	ms, err := measure(cells, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res := &ExtensionResult{Name: title}
	for i, v := range variants {
		res.Rows = append(res.Rows, ExtensionRow{Variant: v.name, Mean: ms[i].Mean})
	}
	return res, nil
}

// RunPartitioning measures E1: six 24 MB streaming processes plus sixteen
// 2.4 MB dgemms under the strict policy, with and without fencing the
// streamers into 0.5 MB cache partitions. Without partitions a 24 MB
// demand only ever enters through the empty-load safeguard and then
// starves everything else; with partitions the streamers are charged (and
// physically confined to) half a megabyte each and the mix runs
// concurrently — the paper's §6 rationale: "it would fetch most data from
// main memory regardless".
func RunPartitioning(opt Options) (*ExtensionResult, error) {
	return runExtension(opt, "Extension E1: cache partitioning for over-LLC streaming apps (strict policy)", "E1", []variant{
		{"unpartitioned", workloads.StreamingMix(0), 0},
		{"0.5MB partition", workloads.StreamingMix(pp.MB(0.5)), 0},
	})
}

// RunReserve measures E2: twenty-four instrumented dgemms co-running with
// two uninstrumented LLC hogs the resource monitor cannot see, with and
// without reserving part of the LLC for the unmanaged load. The
// reservation stops the predicate from admitting periods against cache
// the hogs already occupy; whether that pays depends on how much
// concurrency it costs — the table reports the measured trade.
func RunReserve(opt Options) (*ExtensionResult, error) {
	return runExtension(opt, "Extension E2: reserving LLC for unmanaged co-runners (strict policy)", "E2", []variant{
		{"no reserve", workloads.UnmanagedMix(), 0},
		{"5MB reserve", workloads.UnmanagedMix(), pp.MB(5)},
	})
}

// RunBandwidth measures E3: twenty-four pure streamers under the strict
// policy, with and without declaring their DRAM bandwidth demands as a
// second tracked resource. Without the declarations every streamer is
// admitted (0.6 MB LLC demands are trivially satisfiable) and twelve
// cores burn power waiting on a saturated memory bus; with them, the
// predicate caps concurrency at the roofline.
func RunBandwidth(opt Options) (*ExtensionResult, error) {
	return runExtension(opt, "Extension E3: bandwidth-aware admission for streaming mixes (strict policy)", "E3", []variant{
		{"LLC demands only", workloads.BandwidthMix(false), 0},
		{"LLC + bandwidth demands", workloads.BandwidthMix(true), 0},
	})
}
