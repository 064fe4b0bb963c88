package blame

import (
	"fmt"
	"testing"

	"rdasched/internal/sim"
)

// benchReport has the shape of a full-scale E4/E5 cell's report: 96
// processes, 337 waitlisted periods and 384 burn samples over the
// default SLO's two windows. Each (blocker, waiter) pair is blamed with
// probability density; at 1 every pair is, and the report is the same
// whatever the density's draws.
func benchReport(density float64) (ReportMeta, *Report, *SLOResult) {
	const procs, periods, samples = 96, 337, 384
	rng, keep := sim.NewRNG(7), sim.NewRNG(11)
	meta := ReportMeta{Workload: "BLAS-3", Policy: "compromise"}
	rpt := &Report{Denies: periods}
	for p := 0; p < procs; p++ {
		meta.Procs = append(meta.Procs, fmt.Sprintf("dgemm-%d", p%4))
		for w := 0; w < procs; w++ {
			v := sim.Duration(rng.Uint64n(uint64(sim.Second)) + 1)
			if keep.Float64() < density {
				rpt.Matrix = append(rpt.Matrix, MatrixCell{BlockerProc: p, WaiterProc: w, Blamed: v})
				rpt.TotalBlamed += v
			}
		}
	}
	for i := 0; i < periods; i++ {
		p := PeriodBlame{Proc: i % procs, Phase: i % 4, Outcome: "wake",
			DenyAt: sim.Time(i) * sim.Time(sim.Millisecond), Wait: sim.Duration(rng.Uint64n(uint64(sim.Second)))}
		for j := 0; j < 3; j++ {
			s := Share{BlockerProc: (i + j + 1) % procs, Blamed: p.Wait / 4}
			p.Shares = append(p.Shares, s)
		}
		p.Unattributed = p.Wait - p.Blamed()
		rpt.Periods = append(rpt.Periods, p)
		rpt.TotalWait += p.Wait
		rpt.TotalUnattributed += p.Unattributed
	}
	rpt.Path = Path{Run: 40 * sim.Second, WaitBlamed: 3 * sim.Second, Idle: sim.Second, Makespan: 44 * sim.Second}
	cfg := DefaultSLOConfig()
	slo := &SLOResult{Config: cfg, Admissions: samples, MaxBurn: make([]float64, len(cfg.Windows))}
	for i := 0; i < samples; i++ {
		s := BurnSample{Rep: i % 4, At: sim.Time(i) * sim.Time(100*sim.Millisecond)}
		for range cfg.Windows {
			s.Burn = append(s.Burn, 4*rng.Float64())
		}
		slo.Samples = append(slo.Samples, s)
	}
	return meta, rpt, slo
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkWriteHTML writes benchReport's report with every pair blamed
// (all-pairs) and with 18% of pairs blamed (density=0.18), the share of
// nonzero cells in observed-sweep's reports. Each reports the bytes one
// report writes.
func BenchmarkWriteHTML(b *testing.B) {
	for _, bc := range []struct {
		name    string
		density float64
	}{{"all-pairs", 1}, {"density=0.18", 0.18}} {
		b.Run(bc.name, func(b *testing.B) {
			meta, rpt, slo := benchReport(bc.density)
			var w countingWriter
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := WriteHTML(&w, meta, rpt, slo); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(w.n)/float64(b.N), "written-B/op")
		})
	}
}
