package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdasched/internal/core"
)

// e7Opts is the pinned E7 configuration shared by the golden and the
// recovery assertions: one repetition, no jitter, a tenth scale — fully
// deterministic, like the E4 and E6 goldens.
func e7Opts() Options {
	opt := Defaults()
	opt.Repetitions = 1
	opt.JitterFrac = 0
	opt.Scale = 0.1
	return opt
}

// TestGoldenE7 pins the recovery table at a fixed seed: the fault plan,
// the evacuation, the backoff retries, and the auditor all ride the
// virtual clock, so the full sweep is reproducible byte for byte.
func TestGoldenE7(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt, dir := withExports(t, e7Opts())
	res, err := RunHeal(opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e7", res.Table())
	checkObservedGolden(t, "e7", dir)
}

// TestHealRecoveryWins asserts the experiment's headline claim
// directly, independent of table formatting: in every (domains, fail
// time) cell, governed evacuation beats the stall baseline AND the drop
// baseline on elapsed time AND DRAM energy, and the invariant auditor
// repaired the injected ledger corruption in every single run.
func TestHealRecoveryWins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunHeal(e7Opts())
	if err != nil {
		t.Fatal(err)
	}
	type cellKey struct {
		n    int
		frac float64
	}
	byMode := map[cellKey]map[core.RecoveryMode]HealRow{}
	for _, row := range res.Rows {
		k := cellKey{row.Domains, row.FailFrac}
		if byMode[k] == nil {
			byMode[k] = map[core.RecoveryMode]HealRow{}
		}
		byMode[k][row.Mode] = row

		// Every run carries exactly the injected faults: one crash, one
		// ledger corruption, repaired by the auditor.
		if row.Mean.AuditRepairs < 1 {
			t.Errorf("%s n=%d fail=%.2f: audit repairs %.1f, want >= 1 (the injected corruption must be repaired)",
				row.Mode, row.Domains, row.FailFrac, row.Mean.AuditRepairs)
		}
		// The early-failure cells heal within the run (the plan recovers
		// the shard at 3x the crash time); the late-failure cells end
		// still quarantined — evacuation must win either way.
		if row.FailFrac <= 0.25 && row.Mean.DomainRecoveries < 1 {
			t.Errorf("%s n=%d fail=%.2f: domain recoveries %.1f, want >= 1 (heal lands mid-run)",
				row.Mode, row.Domains, row.FailFrac, row.Mean.DomainRecoveries)
		}
	}
	for k, rows := range byMode {
		evac, stall, drop := rows[core.RecoverEvacuate], rows[core.RecoverStall], rows[core.RecoverDrop]
		if evac.Mean.ElapsedSec >= stall.Mean.ElapsedSec {
			t.Errorf("n=%d fail=%.2f: evacuate elapsed %.4fs, want < stall %.4fs",
				k.n, k.frac, evac.Mean.ElapsedSec, stall.Mean.ElapsedSec)
		}
		if evac.Mean.ElapsedSec >= drop.Mean.ElapsedSec {
			t.Errorf("n=%d fail=%.2f: evacuate elapsed %.4fs, want < drop %.4fs",
				k.n, k.frac, evac.Mean.ElapsedSec, drop.Mean.ElapsedSec)
		}
		if evac.Mean.DRAMJ >= stall.Mean.DRAMJ {
			t.Errorf("n=%d fail=%.2f: evacuate DRAM %.2fJ, want < stall %.2fJ",
				k.n, k.frac, evac.Mean.DRAMJ, stall.Mean.DRAMJ)
		}
		if evac.Mean.DRAMJ >= drop.Mean.DRAMJ {
			t.Errorf("n=%d fail=%.2f: evacuate DRAM %.2fJ, want < drop %.2fJ",
				k.n, k.frac, evac.Mean.DRAMJ, drop.Mean.DRAMJ)
		}
		// Only evacuation moves periods; only drop degrades them.
		if evac.Mean.Evacuations < 1 {
			t.Errorf("n=%d fail=%.2f: evacuate moved %.1f periods, want >= 1", k.n, k.frac, evac.Mean.Evacuations)
		}
		if drop.Mean.DroppedPeriods < 1 {
			t.Errorf("n=%d fail=%.2f: drop degraded %.1f periods, want >= 1", k.n, k.frac, drop.Mean.DroppedPeriods)
		}
		if stall.Mean.Evacuations != 0 || stall.Mean.DroppedPeriods != 0 {
			t.Errorf("n=%d fail=%.2f: stall moved %.1f / dropped %.1f, want 0/0",
				k.n, k.frac, stall.Mean.Evacuations, stall.Mean.DroppedPeriods)
		}
	}
	// The merged registry carries the rda_recovery_* family (Prometheus
	// surface of the same counters the table prints).
	if v := res.Telemetry.Counter(core.MetricRecoveryFailures).Value(); v == 0 {
		t.Error("merged telemetry: no rda_recovery_domain_failures_total despite injected crashes")
	}
	if v := res.Telemetry.Counter(core.MetricRecoveryEvacuations).Value(); v == 0 {
		t.Error("merged telemetry: no rda_recovery_evacuations_total despite evacuation cells")
	}
}

// TestDeterminismHeal covers the E7 harness: the fault plan, evacuation
// targets, retry backoff, and auditor ticks all ride the virtual clock,
// so the recovery table and its merged registry must be byte-identical
// for every worker count.
func TestDeterminismHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertIdenticalAcrossJobs(t, "heal", func(opt Options) ([]string, error) {
		res, err := RunHeal(opt)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := res.Telemetry.WritePrometheus(&b); err != nil {
			return nil, err
		}
		return []string{res.Table().String(), b.String()}, nil
	})
}

// TestHealTraceFiles checks the E7 Perfetto surface: one valid JSON
// trace per cell, byte-identical across worker counts, with the
// domain-fail and recovery marks present in the evacuate cells.
func TestHealTraceFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	render := func(jobs int) map[string][]byte {
		dir := t.TempDir()
		opt := e7Opts()
		opt.Jobs = jobs
		opt.TraceDir = dir
		if _, err := RunHeal(opt); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = b
		}
		return out
	}
	serial := render(1)
	want := len(HealDomainCounts) * len(HealFailFracs) * len(healModes)
	if len(serial) != want {
		t.Fatalf("trace files = %d, want one per cell (%d)", len(serial), want)
	}
	sawFail, sawEvac := false, false
	for name, b := range serial {
		if !json.Valid(b) {
			t.Fatalf("%s is not valid JSON", name)
		}
		if bytes.Contains(b, []byte("domain-fail")) {
			sawFail = true
		}
		if strings.Contains(name, "evacuate") && bytes.Contains(b, []byte("evacuate")) {
			sawEvac = true
		}
	}
	if !sawFail {
		t.Error("no trace carries a domain-fail mark despite injected crashes")
	}
	if !sawEvac {
		t.Error("no evacuate-cell trace carries an evacuation event")
	}
	parallel := render(4)
	for name, b := range serial {
		if !bytes.Equal(b, parallel[name]) {
			t.Fatalf("trace %s differs between Jobs=1 and Jobs=4", name)
		}
	}
}
