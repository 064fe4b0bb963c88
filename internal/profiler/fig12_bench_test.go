package profiler_test

import (
	"runtime"
	"testing"

	"rdasched/internal/memtrace"
	"rdasched/internal/profiler"
	"rdasched/internal/workloads"
)

// BenchmarkWindowsFig12 windows Fig 12's largest trace, water_nsquared
// at 64,000 molecules, under the Fig 12 profiler configuration: filler
// windows that stream ~160k distinct entries, and periods that re-touch
// multi-megabyte hot sets. ns/ref includes generating the stream, which
// is too large to materialize; one op is the whole trace.
func BenchmarkWindowsFig12(b *testing.B) {
	cfg := workloads.Fig12ProfilerConfig()
	var refs uint64
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	for n := 0; n < b.N; n++ {
		s, _ := workloads.WaterNsqTrace(64000, 1)
		wins, err := profiler.Windows(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range wins {
			refs += w.Refs
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(refs), "allocs/ref")
}

// BenchmarkPhasedStream drains the same trace as BenchmarkWindowsFig12
// with no consumer, to price memtrace alone: read takes it in batches of
// 256 references, as Windows does, and next one reference per call, as
// a Next-only consumer does. ns/ref and allocs/ref count every Ref the
// stream emits, jumps included; one op is the whole trace.
func BenchmarkPhasedStream(b *testing.B) {
	for _, mode := range []string{"read", "next"} {
		b.Run(mode, func(b *testing.B) {
			buf := make([]memtrace.Ref, 256)
			var refs uint64
			var before, after runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			for n := 0; n < b.N; n++ {
				s, _ := workloads.WaterNsqTrace(64000, 1)
				for mode == "read" {
					k := s.Read(buf)
					refs += uint64(k)
					if k < len(buf) {
						break
					}
				}
				for mode == "next" {
					if _, ok := s.Next(); !ok {
						break
					}
					refs++
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(refs), "allocs/ref")
		})
	}
}
