package experiments

import (
	"testing"

	"rdasched/internal/core"
)

// TestE5Overload runs the E5 harness once at the golden settings (fixed
// seed, no jitter) and checks everything the run must guarantee: the
// pinned table rendering, the acceptance inequalities the governor
// exists to satisfy, hands-off behavior on clean runs, and the governor
// counters reaching the merged telemetry registry.
func TestE5Overload(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := Defaults()
	opt.Repetitions = 1
	opt.JitterFrac = 0
	opt.Scale = 0.1
	opt, dir := withExports(t, opt)
	res, err := RunOverload(opt)
	if err != nil {
		t.Fatal(err)
	}
	row := func(config string, rate float64, bursts int) OverloadRow {
		for _, r := range res.Rows {
			if r.Config == config && r.Rate == rate && r.Bursts == bursts {
				return r
			}
		}
		t.Fatalf("no row for %s rate %v bursts %d", config, rate, bursts)
		return OverloadRow{}
	}

	t.Run("golden", func(t *testing.T) {
		checkGolden(t, "e5", res.Table())
		checkObservedGolden(t, "e5", dir)
	})

	// The headline claim: at the hardest cell the governed Strict beats
	// static Strict on makespan (no parking until the fallback deadline)
	// AND static Compromise on the DRAM-access thrash proxy (no blanket
	// over-admission) — the two failure modes E4 demonstrates.
	t.Run("acceptance", func(t *testing.T) {
		rate := OverloadRates[len(OverloadRates)-1]
		bursts := OverloadBursts[len(OverloadBursts)-1]
		strict := row("strict", rate, bursts)
		comp := row("compromise", rate, bursts)
		gov := row("governor", rate, bursts)
		if gov.Mean.ElapsedSec > strict.Mean.ElapsedSec {
			t.Errorf("governor elapsed %.3fs > strict %.3fs at rate %v bursts %d",
				gov.Mean.ElapsedSec, strict.Mean.ElapsedSec, rate, bursts)
		}
		if gov.Mean.DRAMAccesses > comp.Mean.DRAMAccesses {
			t.Errorf("governor DRAM accesses %.3g > compromise %.3g at rate %v bursts %d",
				gov.Mean.DRAMAccesses, comp.Mean.DRAMAccesses, rate, bursts)
		}
		if gov.Interventions() == 0 {
			t.Error("governor made no interventions at the hardest cell")
		}
	})

	// On clean runs the governor must keep its hands off: no ladder
	// steps, no quarantines, and metrics identical to ungoverned Strict.
	t.Run("clean-hands-off", func(t *testing.T) {
		for _, bursts := range OverloadBursts {
			strict := row("strict", 0, bursts)
			gov := row("governor", 0, bursts)
			if gov.Interventions() != 0 {
				t.Errorf("governor intervened %.0f times on a clean run (bursts %d)",
					gov.Interventions(), bursts)
			}
			if gov.Mean.ElapsedSec != strict.Mean.ElapsedSec || gov.Mean.DRAMAccesses != strict.Mean.DRAMAccesses {
				t.Errorf("clean governed run diverged from strict (bursts %d): %.6fs/%.6g vs %.6fs/%.6g",
					bursts, gov.Mean.ElapsedSec, gov.Mean.DRAMAccesses,
					strict.Mean.ElapsedSec, strict.Mean.DRAMAccesses)
			}
		}
	})

	t.Run("telemetry", func(t *testing.T) {
		for _, name := range []string{
			core.MetricGovernorDegradations,
			core.MetricGovernorQuarantines,
			core.MetricGovernorTightened,
		} {
			if v := res.Telemetry.Counter(name).Value(); v == 0 {
				t.Errorf("merged registry: %s = 0, want > 0", name)
			}
		}
	})
}
