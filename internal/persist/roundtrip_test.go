package persist_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
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

// killRun runs the baseline and then the same configuration killed at
// frac of the baseline's makespan with a checkpoint, on top of any fault
// plan rc carries; it returns the baseline metrics, the checkpoint
// directory and the kill time.
func killRun(t *testing.T, rc perf.RunConfig, frac float64) (base perf.Metrics, dir string, killAt sim.Duration) {
	t.Helper()
	w := reviveWorkload()
	base, err := perf.Sample(w, rc, 0)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if base.MaxWaitSec == 0 {
		t.Fatal("workload forms no waitlist; the round trip would not exercise restore")
	}
	killAt = sim.FromSeconds(base.ElapsedSec * frac)
	dir = t.TempDir()

	var plan faults.Plan
	if rc.Faults != nil {
		plan = *rc.Faults
	}
	plan.KillAt = killAt
	krc := rc
	krc.Faults = &plan
	krc.Checkpoint = &persist.Config{Dir: dir, Every: killAt / 3}
	if _, err := perf.Sample(w, krc, 0); !errors.Is(err, machine.ErrHalted) {
		t.Fatalf("killed run returned %v, want machine.ErrHalted", err)
	}
	return base, dir, killAt
}

// killRestore runs the full protocol: baseline, killed run with a
// checkpoint, restore from disk, revival run; it returns baseline and
// revived metrics plus the checkpoint provenance.
func killRestore(t *testing.T, rc perf.RunConfig, frac float64, mutate func(dir string)) (base, revived perf.Metrics, res *persist.Restored) {
	t.Helper()
	base, dir, killAt := killRun(t, rc, frac)
	if mutate != nil {
		mutate(dir)
	}

	res, err := persist.Restore(dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if res.KillAt != killAt {
		t.Fatalf("restored KillAt %v, want %v", res.KillAt, killAt)
	}

	rrc := rc
	rrc.Restore = res
	revived, err = perf.Sample(reviveWorkload(), rrc, 0)
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

// domSuffix names a sharded row's domain count; a single-domain row
// carries no suffix.
func domSuffix(domains int) string {
	if domains > 1 {
		return fmt.Sprintf("-%ddom", domains)
	}
	return ""
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
// admission pile-up) and late (most periods already drained), unsharded
// and sharded. Late kills on a sharded gate find domains whose registry,
// waiters or placements the journal has emptied; the restored lists must
// encode like the live gate's.
func TestKillRestoreEarlyAndLate(t *testing.T) {
	for _, domains := range []int{0, 2, 4} {
		for _, frac := range []float64{0.1, 0.75, 0.8, 0.85, 0.9, 0.95} {
			t.Run(fmt.Sprintf("frac-%.2f%s", frac, domSuffix(domains)), func(t *testing.T) {
				rc := reviveConfig(core.StrictPolicy{}, domains)
				base, revived, _ := killRestore(t, rc, frac, nil)
				assertSameMetrics(t, base, revived)
			})
		}
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

// TestRestoreRefusesCorruptCheckpoint alters what persist.Restore
// returns, as a checkpoint that passed its checksums but misrepresents
// the killed run would: fields the journal's records patch, fields no
// record touches, whole registries, process, phase and thread IDs the
// machine could not have issued, and a kill time past the run's end.
// The revival must refuse every one with an error, not panic and not
// resume, on one domain and on four.
func TestRestoreRefusesCorruptCheckpoint(t *testing.T) {
	huge := 1 << 40
	llc := pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(1), Reuse: pp.ReuseHigh}
	// Each row alters d, a domain holding an admitted period with a
	// thread inside it, or the state around it.
	rows := []struct {
		name string
		mut  func(res *persist.Restored, d *core.DomainState)
	}{
		{"period-refs", func(_ *persist.Restored, d *core.DomainState) { d.Periods[0].Refs++ }},
		{"period-admitted-at", func(_ *persist.Restored, d *core.DomainState) { d.Periods[0].AdmittedAt++ }},
		{"period-enqueued-at", func(_ *persist.Restored, d *core.DomainState) { d.Periods[0].EnqueuedAt++ }},
		{"period-ticket", func(_ *persist.Restored, d *core.DomainState) { d.Periods[0].Ticket++ }},
		{"period-waiters", func(_ *persist.Restored, d *core.DomainState) {
			d.Periods[0].Waiters = append(d.Periods[0].Waiters, d.Inside[0].Thread)
		}},
		{"stats", func(_ *persist.Restored, d *core.DomainState) { d.Stats.Begins++ }},
		{"usage", func(_ *persist.Restored, d *core.DomainState) { d.Usage[pp.ResourceLLC]++ }},
		{"capacity", func(_ *persist.Restored, d *core.DomainState) { d.Capacity[pp.ResourceLLC]-- }},
		{"reserve", func(_ *persist.Restored, d *core.DomainState) { d.Reserve++ }},
		{"drop-period", func(_ *persist.Restored, d *core.DomainState) { d.Periods = d.Periods[1:] }},
		{"extra-period", func(_ *persist.Restored, d *core.DomainState) {
			last := d.Periods[len(d.Periods)-1]
			d.Periods = append(d.Periods, core.PeriodState{ID: last.ID + 1000, Proc: last.Proc, Phase: last.Phase + 1,
				Demands: []pp.Demand{llc}, Admitted: true})
		}},
		{"empty-every-domain", func(res *persist.Restored, _ *core.DomainState) {
			for i := range res.State.Domains {
				e := &res.State.Domains[i]
				e.Periods, e.Inside, e.Parked, e.Stats = nil, nil, nil, core.Stats{}
				e.Usage = make([]pp.Bytes, pp.NumResources)
			}
		}},
		{"parked-negative", func(_ *persist.Restored, d *core.DomainState) { d.Parked = append(d.Parked, -1) }},
		{"parked-huge", func(_ *persist.Restored, d *core.DomainState) { d.Parked = append(d.Parked, huge) }},
		{"reclaimed-neg-proc", func(_ *persist.Restored, d *core.DomainState) {
			d.Reclaimed = append(d.Reclaimed, core.ProcPhase{Proc: -1})
		}},
		{"reclaimed-neg-phase", func(_ *persist.Restored, d *core.DomainState) {
			d.Reclaimed = append(d.Reclaimed, core.ProcPhase{Phase: -1})
		}},
		{"inside-neg-thread", func(_ *persist.Restored, d *core.DomainState) { d.Inside[0].Thread = -1 }},
		{"inside-huge-thread", func(_ *persist.Restored, d *core.DomainState) { d.Inside[0].Thread = huge }},
		{"inside-wrong-proc", func(_ *persist.Restored, d *core.DomainState) { d.Inside[0].Proc++ }},
		{"inside-neg-proc", func(_ *persist.Restored, d *core.DomainState) { d.Inside[0].Proc = -1 }},
		{"inside-neg-phase", func(_ *persist.Restored, d *core.DomainState) { d.Inside[0].Phase = -1 }},
		{"period-neg-proc", func(_ *persist.Restored, d *core.DomainState) { d.Periods[0].Proc = -1 }},
		{"period-huge-proc", func(_ *persist.Restored, d *core.DomainState) { d.Periods[0].Proc = huge }},
		{"period-neg-phase", func(_ *persist.Restored, d *core.DomainState) { d.Periods[0].Phase = -1 }},
		{"period-no-demand", func(_ *persist.Restored, d *core.DomainState) { d.Periods[0].Demands = nil }},
		{"period-twice", func(_ *persist.Restored, d *core.DomainState) {
			twin := d.Periods[len(d.Periods)-1]
			twin.ID += 1000
			d.Periods = append(d.Periods, twin)
		}},
		{"breaker-negative", func(_ *persist.Restored, d *core.DomainState) {
			d.Gov.Breakers = append(d.Gov.Breakers, core.BreakerSnap{Proc: -1, State: core.BreakerOpen, Strikes: 1})
		}},
		{"breaker-huge", func(_ *persist.Restored, d *core.DomainState) {
			d.Gov.Breakers = append(d.Gov.Breakers, core.BreakerSnap{Proc: huge, State: core.BreakerOpen, Strikes: 1})
		}},
		{"kill-after-end", func(res *persist.Restored, _ *core.DomainState) { res.KillAt = 1000 * sim.Second }},
	}
	for _, domains := range []int{1, 4} {
		rc := governedConfig(domains)
		base, dir, _ := killRun(t, rc, 0.4)
		restore := func(t *testing.T) (*persist.Restored, *core.DomainState) {
			t.Helper()
			res, err := persist.Restore(dir)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			for i := range res.State.Domains {
				if d := &res.State.Domains[i]; len(d.Periods) > 0 && len(d.Inside) > 0 {
					return res, d
				}
			}
			t.Fatal("no domain holds an admitted period at the kill")
			return nil, nil
		}
		t.Run("intact"+domSuffix(domains), func(t *testing.T) {
			res, _ := restore(t)
			rrc := rc
			rrc.Restore = res
			revived, err := perf.Sample(reviveWorkload(), rrc, 0)
			if err != nil {
				t.Fatalf("revival run: %v", err)
			}
			assertSameMetrics(t, base, revived)
		})
		for _, row := range rows {
			t.Run(row.name+domSuffix(domains), func(t *testing.T) {
				res, d := restore(t)
				row.mut(res, d)
				rrc := rc
				rrc.Restore = res
				err := func() (err error) {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("panic: %v", p)
						}
					}()
					_, err = perf.Sample(reviveWorkload(), rrc, 0)
					return err
				}()
				if err == nil || !strings.HasPrefix(err.Error(), "perf: restored ") {
					t.Fatalf("revival from the altered checkpoint returned %v, want the restore check's refusal", err)
				}
			})
		}
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

// governedConfig attaches the admission governor to reviveConfig's
// strict run with a breaker that trips on the first misdeclaration and
// stays open for half the admission deadline, and misdeclares demands
// (with leaks, crashes, oversize demands and arrival bursts) at rate
// 0.3, so the kill lands on open breakers, probation clocks and aged
// waiters.
func governedConfig(domains int) perf.RunConfig {
	rc := reviveConfig(core.StrictPolicy{}, domains)
	gov := core.DefaultGovernorConfig()
	gov.Strikes = 1
	gov.Probation = rc.AdmitDeadline / 2
	rc.Governor = &gov
	plan := faults.Uniform(0.3, rc.Machine.LLCCapacity)
	rc.Faults = &plan
	return rc
}

// TestKillRestoreGoverned kills governed runs, sharded and not, early,
// midway and late: every kill lands with a misdeclaring process
// quarantined behind an open breaker, in runs whose governor also
// reserves capacity for aged waiters. The revived run must end exactly
// where the unkilled one does.
func TestKillRestoreGoverned(t *testing.T) {
	for _, domains := range []int{0, 4} {
		for _, frac := range []float64{0.25, 0.5, 0.75} {
			t.Run(fmt.Sprintf("frac-%.2f%s", frac, domSuffix(domains)), func(t *testing.T) {
				base, revived, res := killRestore(t, governedConfig(domains), frac, nil)
				if base.GovernorQuarantines == 0 || base.GovernorReservations == 0 {
					t.Fatalf("baseline quarantined %v and reserved %v times, want both", base.GovernorQuarantines, base.GovernorReservations)
				}
				open := 0
				for _, d := range res.State.Domains {
					for _, b := range d.Gov.Breakers {
						if b.State == core.BreakerOpen {
							open++
						}
					}
				}
				if open == 0 {
					t.Fatal("no breaker open at the kill")
				}
				assertSameMetrics(t, base, revived)
			})
		}
	}
}
