package blame

import (
	"runtime"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/machine"
	"rdasched/internal/sim"
	"rdasched/internal/workloads"
)

// recordedCall is one call a blame sink received: an event, plus the
// blocker snapshot when the call was RecordDeny.
type recordedCall struct {
	e        core.Event
	blockers []core.Blocker
	deny     bool
}

// callRecorder is a core.BlameSink that keeps every call in order.
type callRecorder struct{ calls []recordedCall }

func (r *callRecorder) Record(e core.Event) {
	r.calls = append(r.calls, recordedCall{e: e})
}

func (r *callRecorder) RecordDeny(e core.Event, blockers []core.Blocker) {
	r.calls = append(r.calls, recordedCall{e: e, blockers: append([]core.Blocker(nil), blockers...), deny: true})
}

// recordE5Stream runs E5's workload, the 96-process BLAS-3 group, under
// strict admission on the default machine and returns every call its
// blame sink received and the time the run ended.
func recordE5Stream(b *testing.B) ([]recordedCall, sim.Time) {
	b.Helper()
	cfg := machine.DefaultConfig()
	s := core.New(core.StrictPolicy{}, cfg.LLCCapacity)
	m := machine.New(cfg, s)
	s.SetWaker(m)
	s.SetClock(m.Now)
	s.SetTimer(m.Engine())
	rec := &callRecorder{}
	s.AddSink(rec)
	if err := m.AddWorkload(workloads.BLAS3()); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	s.Quiesce()
	return rec.calls, m.Now()
}

var benchReportOut *Report

// BenchmarkCollectorRecord replays a recorded E5-shaped decision stream
// into a fresh Collector, finishes it and builds its Report, and reports
// host ns and heap allocations per recorded call (Record or RecordDeny),
// Finish and Report included.
func BenchmarkCollectorRecord(b *testing.B) {
	calls, end := recordE5Stream(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCollector()
		for j := range calls {
			if r := &calls[j]; r.deny {
				c.RecordDeny(r.e, r.blockers)
			} else {
				c.Record(r.e)
			}
		}
		c.Finish(end)
		benchReportOut = c.Report()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(len(calls))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
	b.ReportMetric(float64(len(calls)), "records/op")
}
