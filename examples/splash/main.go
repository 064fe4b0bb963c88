// splash runs a multi-threaded SPLASH-2-style application — raytrace:
// 48 processes × 4 threads, two 5 MB high-reuse progress periods per
// step, barriers between steps, and a task-pool runtime — under the
// demand-aware scheduler. It demonstrates the §3.4 machinery that plain
// single-threaded workloads never exercise:
//
//   - per-process periods: the four threads of a process share one
//     declared working set, counted once by the resource monitor;
//   - barriers sit outside the periods (blocking synchronization inside
//     a period could deadlock the waitlist, so the paper forbids it);
//   - task-pool parking: when one pool member is denied, the whole pool
//     waits until the demand fits.
package main

import (
	"fmt"
	"log"

	"rdasched/internal/core"
	"rdasched/internal/machine"
	"rdasched/internal/perf"
	"rdasched/internal/report"
	"rdasched/internal/workloads"
)

func main() {
	w := workloads.Raytrace()
	fmt.Printf("raytrace: %d processes × %d threads, %d declared periods per thread\n\n",
		len(w.Procs), w.Procs[0].Threads, w.Procs[0].Program.DeclaredCount())

	t := report.NewTable("raytrace under the three policies",
		"policy", "system J", "DRAM J", "GFLOPS", "seconds", "pauses", "wakeups")
	for _, p := range []struct {
		name   string
		policy core.Policy
	}{
		{"default", nil},
		{"strict", core.StrictPolicy{}},
		{"compromise", core.NewCompromise()},
	} {
		m, _, err := perf.Run(w, perf.RunConfig{
			Machine: machine.DefaultConfig(),
			Policy:  p.policy,
		})
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(p.name,
			fmt.Sprintf("%.1f", m.SystemJ),
			fmt.Sprintf("%.1f", m.DRAMJ),
			fmt.Sprintf("%.3f", m.GFLOPS),
			fmt.Sprintf("%.2f", m.ElapsedSec),
			fmt.Sprintf("%d", m.Blocks),
			fmt.Sprintf("%d", m.Wakeups))
	}
	fmt.Print(t.String())

	// Peek inside the scheduler on a strict run: build the stack perf
	// measures and run it by hand.
	m, sched, err := perf.NewMachine(perf.RunConfig{
		Machine: machine.DefaultConfig(),
		Policy:  core.StrictPolicy{},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := m.AddWorkload(w); err != nil {
		log.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		log.Fatal(err)
	}
	st := sched.Stats()
	fmt.Printf("\nstrict-run scheduler internals: %d periods opened, %d denied at entry, "+
		"%d admitted by the empty-load safeguard\n", st.Begins, st.Denied, st.Safegrds)
	llc := sched.DomainStats().PerDomain[0]
	fmt.Printf("peak LLC load registered: %v of %v capacity\n", llc.Peak, llc.Capacity)
}
