package persist_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/perf"
	"rdasched/internal/persist"
)

// fixedState is a StateExporter that exports one state: the
// benchmark's checkpointer needs a gate only for its attach-time
// snapshot.
type fixedState core.State

func (s fixedState) ExportState() core.State { return core.State(s) }

// BenchmarkCheckpointerReplay times journal append, the checkpointer's
// cost per admission decision: every record of a governed 4-domain
// revive-mix run (governedConfig: misdeclarations, quarantines,
// reservations and governor ticks among the decisions) goes through one
// Checkpointer with periodic snapshots off, so each costs one encode and
// one write. It reports time, bytes allocated and allocations per
// record.
func BenchmarkCheckpointerReplay(b *testing.B) {
	src := b.TempDir()
	rc := governedConfig(4)
	rc.Checkpoint = &persist.Config{Dir: src}
	if _, err := perf.Sample(reviveWorkload(), rc, 0); err != nil {
		b.Fatal(err)
	}
	res, err := persist.Restore(src)
	if err != nil {
		b.Fatal(err)
	}
	recs := res.Records
	cp, err := persist.Attach(persist.Config{Dir: filepath.Join(b.TempDir(), "ckpt")}, fixedState(res.State), 0)
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range recs {
			cp.Replay(r)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if err := cp.Close(); err != nil {
		b.Fatal(err)
	}
	n := float64(b.N) * float64(len(recs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
	b.ReportMetric(float64(len(recs)), "records/op")
}
