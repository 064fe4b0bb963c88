package experiments

import (
	"testing"
)

// e9Opts is the pinned E9 configuration shared by the golden and the
// determinism assertions: one repetition, no jitter, a tenth scale —
// fully deterministic, like the E4–E7 goldens.
func e9Opts() Options {
	opt := Defaults()
	opt.Repetitions = 1
	opt.JitterFrac = 0
	opt.Scale = 0.1
	return opt
}

// TestGoldenE9 pins the revival table at a fixed seed: kill times,
// journal record counts, snapshot anchors, replay lengths, and both
// makespans are all functions of the virtual clock alone.
func TestGoldenE9(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt, dir := withExports(t, e9Opts())
	res, err := RunRevive(opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e9", res.Table())
	checkObservedGolden(t, "e9", dir)
}

// TestReviveDeterministicResume asserts the experiment's claim directly,
// independent of table formatting: in every cell the revived run's
// final metrics are byte-identical to the unkilled baseline's, the
// revival actually leaned on the checkpoint (records journaled, a
// mid-run snapshot cut, a suffix replayed), and a clean kill never
// reports a torn journal.
func TestReviveDeterministicResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunRevive(e9Opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(revivePolicies)*len(ReviveDomainCounts)*len(ReviveKillFracs) {
		t.Fatalf("have %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		tag := func() string {
			return row.Policy + "/" + string(rune('0'+row.Domains))
		}
		if !row.Identical {
			t.Errorf("%s kill %.2f: revived run diverged from the unkilled baseline", tag(), row.KillFrac)
		}
		if row.Records == 0 {
			t.Errorf("%s kill %.2f: killed run journaled nothing", tag(), row.KillFrac)
		}
		if row.Snapshots < 2 {
			t.Errorf("%s kill %.2f: %d snapshots, want the attach snapshot plus at least one periodic cut",
				tag(), row.KillFrac, row.Snapshots)
		}
		if row.SnapshotSeq == 0 {
			t.Errorf("%s kill %.2f: restore anchored on the attach snapshot; no periodic snapshot landed before the kill",
				tag(), row.KillFrac)
		}
		if row.Truncated {
			t.Errorf("%s kill %.2f: clean kill reported a torn journal", tag(), row.KillFrac)
		}
		if row.BaselineSec <= 0 || row.RevivedSec != row.BaselineSec {
			t.Errorf("%s kill %.2f: makespans %.6f vs %.6f", tag(), row.KillFrac, row.BaselineSec, row.RevivedSec)
		}
	}
	// The persist telemetry family must flow through the merged registry:
	// every cell replayed a journal suffix and restored a sequence.
	if v := res.Telemetry.Counter("rda_persist_replayed_total").Value(); v == 0 {
		t.Error("merged telemetry has no replayed records")
	}
	if v := res.Telemetry.Gauge("rda_persist_restore_seq").Value(); v == 0 {
		t.Error("merged telemetry has no restore sequence")
	}
}
