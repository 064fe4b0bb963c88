package persist_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/perf"
	"rdasched/internal/persist"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// reviveWorkload is a compact crash-restart mix: twelve single-thread
// processes each declaring a quarter of the Table 1 LLC, so admission
// bounds concurrency (at four under Strict, eight under Compromise) and
// the rest sit on the waitlist — the kill lands while tickets, waiters,
// and leases are all live. Job lengths are staggered so ends, wakes,
// and the journal records they cut spread across the whole run instead
// of clustering in waves.
func reviveWorkload() proc.Workload {
	w := proc.Workload{Name: "revive-mix"}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("job-%d", i)
		instr := 2e7 * (1 + 0.15*float64(i))
		w.Procs = append(w.Procs, proc.Spec{
			Name: name, Threads: 1,
			Program: proc.Program{
				{Name: name + "-init", Instr: 2e5, WSS: pp.KB(3840), Reuse: pp.ReuseLow,
					AccessesPerInstr: 0.4, PrivateHitFrac: 0.9, StreamFrac: 1.0},
				{Name: name, Instr: instr, WSS: pp.KB(3840), Reuse: pp.ReuseHigh,
					AccessesPerInstr: 1.0, PrivateHitFrac: 0.5, FlopsPerInstr: 0.1,
					Declared: true},
				{Name: name + "-fini", Instr: 1e5, WSS: pp.KB(64), Reuse: pp.ReuseLow,
					AccessesPerInstr: 0.2, PrivateHitFrac: 0.95, StreamFrac: 1.0},
			},
		})
	}
	return w
}

// reviveConfig mirrors the chaos harness timeouts: generous enough that
// a clean run shows no reclaims or fallbacks, so the restored schedule
// must reproduce the baseline's exact lease and deadline bookkeeping.
func reviveConfig(policy core.Policy, domains int) perf.RunConfig {
	ideal := 2e7 * (1 + 0.15*11) / 1.9e9 // longest declared phase at 1 IPC
	return perf.RunConfig{
		Machine:       machine.DefaultConfig(),
		Policy:        policy,
		Lease:         sim.FromSeconds(ideal * 96),
		AdmitDeadline: sim.FromSeconds(ideal * 64),
		Domains:       domains,
	}
}

// killRestore runs the full protocol: baseline, killed run with a
// checkpoint, restore from disk, revival run; it returns baseline and
// revived metrics plus the checkpoint provenance.
func killRestore(t *testing.T, rc perf.RunConfig, frac float64, mutate func(dir string)) (base, revived perf.Metrics, res *persist.Restored) {
	t.Helper()
	w := reviveWorkload()
	base, err := perf.Sample(w, rc, 0)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if base.MaxWaitSec == 0 {
		t.Fatal("workload forms no waitlist; the round trip would not exercise restore")
	}
	killAt := sim.FromSeconds(base.ElapsedSec * frac)
	dir := t.TempDir()

	krc := rc
	krc.Faults = &faults.Plan{KillAt: killAt}
	krc.Checkpoint = &persist.Config{Dir: dir, Every: killAt / 3}
	if _, err := perf.Sample(w, krc, 0); !errors.Is(err, machine.ErrHalted) {
		t.Fatalf("killed run returned %v, want machine.ErrHalted", err)
	}
	if mutate != nil {
		mutate(dir)
	}

	res, err = persist.Restore(dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if res.KillAt != killAt {
		t.Fatalf("restored KillAt %v, want %v", res.KillAt, killAt)
	}

	rrc := rc
	rrc.Restore = res
	revived, err = perf.Sample(w, rrc, 0)
	if err != nil {
		t.Fatalf("revival run: %v", err)
	}
	return base, revived, res
}

// assertSameMetrics compares two runs through the JSON encoding of
// their metrics — the same representation the E9 verdict and goldens
// pin.
func assertSameMetrics(t *testing.T, want, got perf.Metrics) {
	t.Helper()
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatalf("revived run diverged from the unkilled baseline:\nbaseline %s\nrevived  %s", wb, gb)
	}
}

// TestKillRestoreRoundTrip is the tentpole invariant: kill the process
// mid-schedule, restore from the checkpoint directory, and the revived
// run's final metrics are byte-identical to an uninterrupted run's —
// across sharding and policy.
func TestKillRestoreRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		policy  core.Policy
		domains int
	}{
		{"strict", core.StrictPolicy{}, 0},
		{"strict-4dom", core.StrictPolicy{}, 4},
		{"compromise", core.NewCompromise(), 0},
		{"compromise-4dom", core.NewCompromise(), 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rc := reviveConfig(tc.policy, tc.domains)
			base, revived, res := killRestore(t, rc, 0.4, nil)
			if res.Truncated {
				t.Fatalf("clean kill reported a torn journal: %s", res.TruncReason)
			}
			if res.Seq == 0 {
				t.Fatal("nothing journaled before the kill")
			}
			if res.SnapshotSeq == 0 {
				t.Fatal("no periodic snapshot was cut before the kill")
			}
			assertSameMetrics(t, base, revived)
		})
	}
}

// TestKillRestoreEarlyAndLate moves the kill point: early (during the
// admission pile-up) and late (most periods already drained).
func TestKillRestoreEarlyAndLate(t *testing.T) {
	for _, frac := range []float64{0.1, 0.75} {
		frac := frac
		t.Run(fmt.Sprintf("frac-%.2f", frac), func(t *testing.T) {
			rc := reviveConfig(core.StrictPolicy{}, 0)
			base, revived, _ := killRestore(t, rc, frac, nil)
			assertSameMetrics(t, base, revived)
		})
	}
}

// TestRestoreFromTornJournal tears bytes off the journal tail after the
// kill — the on-disk shape an actual mid-write death leaves — and pins
// that the revival still converges: the reader truncates at the torn
// frame and the deterministic prefix re-execution regenerates the lost
// suffix.
func TestRestoreFromTornJournal(t *testing.T) {
	for _, cut := range []int{5, 400} {
		cut := cut
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			rc := reviveConfig(core.StrictPolicy{}, 4)
			base, revived, res := killRestore(t, rc, 0.4, func(dir string) {
				jp := filepath.Join(dir, "journal.log")
				b, err := os.ReadFile(jp)
				if err != nil {
					t.Fatal(err)
				}
				if len(b) <= cut {
					t.Fatalf("journal only %d bytes, cannot cut %d", len(b), cut)
				}
				if err := os.WriteFile(jp, b[:len(b)-cut], 0o644); err != nil {
					t.Fatal(err)
				}
			})
			if !res.Truncated {
				t.Fatal("torn journal not reported as truncated")
			}
			assertSameMetrics(t, base, revived)
		})
	}
}

// TestRestoreSkipsCorruptSnapshot poisons the newest snapshot file;
// restore must fall back to the previous one, the revival must still
// match the baseline, and Restored.Snapshots must count every snapshot
// file in the directory listing, the poisoned one included.
func TestRestoreSkipsCorruptSnapshot(t *testing.T) {
	rc := reviveConfig(core.StrictPolicy{}, 0)
	var snaps []string
	base, revived, res := killRestore(t, rc, 0.4, func(dir string) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			n := e.Name()
			if len(n) > 5 && n[:5] == "snap-" {
				snaps = append(snaps, n)
			}
		}
		if len(snaps) < 2 {
			t.Fatalf("need at least 2 snapshots to poison the newest, have %d", len(snaps))
		}
		newest := snaps[len(snaps)-1]
		if err := os.WriteFile(filepath.Join(dir, newest), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	assertSameMetrics(t, base, revived)
	if res.Snapshots != len(snaps) {
		t.Fatalf("Restored.Snapshots = %d, directory lists %d snapshot files %v", res.Snapshots, len(snaps), snaps)
	}
}

// TestRestoreErrors pins the loader's failure modes.
func TestRestoreErrors(t *testing.T) {
	t.Run("missing-dir", func(t *testing.T) {
		if _, err := persist.Restore(filepath.Join(t.TempDir(), "nope")); err == nil {
			t.Fatal("restore of a missing directory succeeded")
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(`{"Version":99,"KillAt":1}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := persist.Restore(dir); err == nil {
			t.Fatal("restore accepted an unknown format version")
		}
	})
	t.Run("no-snapshot", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(`{"Version":1,"KillAt":1}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := persist.Restore(dir); err == nil {
			t.Fatal("restore without any snapshot succeeded")
		}
	})
}

// TestKilledRepetitionsSameCheckpointTree pins that a killed
// multi-repetition run leaves the same checkpoint tree at every Jobs
// value: each repetition runs to its own kill and writes its own
// directory, whether the repetitions run serially or concurrently.
func TestKilledRepetitionsSameCheckpointTree(t *testing.T) {
	w := reviveWorkload()
	base, err := perf.Sample(w, reviveConfig(core.StrictPolicy{}, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	killAt := sim.FromSeconds(base.ElapsedSec * 0.5)
	tree := func(jobs int) map[string][]byte {
		dir := t.TempDir()
		rc := reviveConfig(core.StrictPolicy{}, 0)
		rc.Repetitions, rc.Jobs = 2, jobs
		rc.Faults = &faults.Plan{KillAt: killAt}
		rc.Checkpoint = &persist.Config{Dir: dir, Every: killAt / 4}
		if _, _, err := perf.Run(w, rc); !errors.Is(err, machine.ErrHalted) {
			t.Fatalf("jobs %d: Run = %v, want machine.ErrHalted", jobs, err)
		}
		files := map[string][]byte{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				return err
			}
			files[rel], err = os.ReadFile(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	serial, parallel := tree(1), tree(4)
	if _, ok := serial[filepath.Join("rep1", "meta.json")]; !ok {
		t.Fatalf("serial run left no checkpoint for repetition 1: %d files", len(serial))
	}
	if len(serial) != len(parallel) {
		t.Fatalf("jobs 1 left %d files, jobs 4 left %d", len(serial), len(parallel))
	}
	for name, b := range serial {
		if !bytes.Equal(b, parallel[name]) {
			t.Errorf("%s differs between jobs 1 and jobs 4", name)
		}
	}
}
