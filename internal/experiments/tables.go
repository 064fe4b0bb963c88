package experiments

import (
	"fmt"
	"sort"
	"strings"

	"rdasched/internal/machine"
	"rdasched/internal/report"
	"rdasched/internal/workloads"
)

// Table1 renders the machine configuration (the paper's Table 1) from
// the model's defaults.
func Table1() *report.Table {
	cfg := machine.DefaultConfig()
	t := report.NewTable("Table 1: machine configuration (modeled)", "component", "value")
	t.AddRow("CPU", fmt.Sprintf("Intel(R) Xeon(R) E5-2420 class, %.2f GHz, %d cores",
		cfg.FreqHz/1e9, cfg.Cores))
	t.AddRow("L1-Data", "32 KBytes (private, modeled in trace mode)")
	t.AddRow("L1-Instruction", "32 KBytes")
	t.AddRow("L2-Private", "256 KBytes")
	t.AddRow("L3-Shared", fmt.Sprintf("%d KBytes", int64(cfg.LLCCapacity)/1024))
	t.AddRow("Main Memory", fmt.Sprintf("16 GiB, %.0f GB/s sustained", cfg.MemBandwidth/1e9))
	t.AddRow("Operating System", "simulated CFS-like fair scheduler (Linux 4.6.0 stand-in)")
	return t
}

// Table2Report renders the workload inventory (the paper's Table 2) from
// the live workload definitions, so the table can never drift from the
// code.
func Table2Report() *report.Table {
	t := report.NewTable("Table 2: workloads",
		"workload", "#proc", "#threads/proc", "work-set sizes (MB)", "data reuses")
	for _, w := range workloads.Table2() {
		spec := w.Procs[0]
		// Collect the distinct declared working sets and reuse levels, in
		// program order, across the workload's kernels.
		var sizes []string
		var reuses []string
		seen := map[string]bool{}
		for _, s := range w.Procs {
			for _, ph := range s.Program {
				if !ph.Declared {
					continue
				}
				key := fmt.Sprintf("%.2g", ph.WSS.MiBf())
				if seen[key] {
					continue
				}
				seen[key] = true
				sizes = append(sizes, key)
				reuses = append(reuses, ph.Reuse.String())
			}
		}
		sort.Strings(sizes)
		t.AddRow(w.Name,
			fmt.Sprintf("%d", len(w.Procs)),
			fmt.Sprintf("%d", spec.Threads),
			strings.Join(sizes, ", "),
			strings.Join(dedup(reuses), ", "))
	}
	return t
}

func dedup(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
