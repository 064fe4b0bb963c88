package trace

import (
	"io"
	"testing"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// benchTrace has the shape of a full-scale E5 cell's trace: 384 periods,
// 337 of which waited, and 768 SLO burn samples on two counter tracks.
func benchTrace() ([]Span, []Counter) {
	const periods, waited = 384, 337
	rng := sim.NewRNG(5)
	var spans []Span
	var counters []Counter
	for i := 0; i < periods; i++ {
		begin := sim.Time(i) * sim.Time(37*sim.Millisecond)
		sp := Span{Rep: i % 4, ID: pp.ID(i + 1), Proc: i % 96, Phase: i % 4,
			Begin: begin, Admit: begin, Outcome: "admit", Close: "end",
			Demand: pp.MB(1 + float64(i%12)), Load: pp.MB(12)}
		if i < waited {
			sp.Admit += sim.Time(rng.Uint64n(uint64(sim.Second)))
			sp.Outcome = "wake"
		}
		sp.End = sp.Admit + sim.Time(rng.Uint64n(uint64(sim.Second)))
		spans = append(spans, sp)
		for w, name := range []string{"slo_burn_w0", "slo_burn_w1"} {
			counters = append(counters, Counter{Name: name, At: sp.Admit,
				Value: float64(w+1) * rng.Float64() / 0.05, Pid: sp.Rep * 1000})
		}
	}
	return spans, counters
}

func BenchmarkWriteChrome(b *testing.B) {
	spans, counters := benchTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeWithCounters(io.Discard, spans, counters); err != nil {
			b.Fatal(err)
		}
	}
}
