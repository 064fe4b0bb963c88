package trace

import (
	"runtime"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/machine"
	"rdasched/internal/sim"
	"rdasched/internal/workloads"
)

// eventRecorder is a core.EventSink that keeps every event in order.
type eventRecorder struct{ events []core.Event }

func (r *eventRecorder) Record(e core.Event) { r.events = append(r.events, e) }

// recordE5Stream runs E5's workload, the 96-process BLAS-3 group, under
// strict admission on the default machine and returns its decision
// stream and the time the run ended.
func recordE5Stream(b *testing.B) ([]core.Event, sim.Time) {
	b.Helper()
	cfg := machine.DefaultConfig()
	s := core.New(core.StrictPolicy{}, cfg.LLCCapacity)
	m := machine.New(cfg, s)
	s.SetWaker(m)
	s.SetClock(m.Now)
	s.SetTimer(m.Engine())
	rec := &eventRecorder{}
	s.AddSink(rec)
	if err := m.AddWorkload(workloads.BLAS3()); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	s.Quiesce()
	return rec.events, m.Now()
}

var benchSpansOut []Span

// BenchmarkCollectorRecord replays a recorded E5-shaped decision stream
// into a fresh Collector, finishes it and takes its spans, and reports
// host ns and heap allocations per recorded event, Finish and Spans
// included.
func BenchmarkCollectorRecord(b *testing.B) {
	events, end := recordE5Stream(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCollector()
		for j := range events {
			c.Record(events[j])
		}
		c.Finish(end)
		benchSpansOut = c.Spans()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(len(events))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
	b.ReportMetric(float64(len(events)), "records/op")
}
