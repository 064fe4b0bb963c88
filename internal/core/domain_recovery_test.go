package core

import (
	"errors"
	"testing"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
)

// kindSink tallies decision-stream events by kind.
type kindSink struct{ counts map[EventKind]int }

func newKindSink() *kindSink { return &kindSink{counts: make(map[EventKind]int)} }

func (k *kindSink) Record(e Event) { k.counts[e.Kind]++ }

func TestRecoveryConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  RecoveryConfig
		ok   bool
	}{
		{"default", DefaultRecoveryConfig(), true},
		{"zero value", RecoveryConfig{}, true},
		{"stall", RecoveryConfig{Mode: RecoverStall}, true},
		{"drop", RecoveryConfig{Mode: RecoverDrop}, true},
		{"unknown mode", RecoveryConfig{Mode: RecoveryMode(9)}, false},
		{"negative retries", RecoveryConfig{MaxRetries: -1}, false},
		{"retries without base", RecoveryConfig{MaxRetries: 2}, false},
	} {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
			} else if !errors.Is(err, ErrInvalidRecoveryConfig) {
				t.Errorf("%s: error %v does not wrap ErrInvalidRecoveryConfig", tc.name, err)
			}
		}
	}
	if RecoverEvacuate.String() != "evacuate" || RecoverStall.String() != "stall" ||
		RecoverDrop.String() != "drop" {
		t.Error("RecoveryMode strings changed")
	}
}

func TestEnableRecoveryErrors(t *testing.T) {
	single := mustDomainSet(t, StrictPolicy{}, pp.MB(15), DefaultDomainConfig(1))
	if err := single.EnableRecovery(DefaultRecoveryConfig()); !errors.Is(err, ErrInvalidDomain) {
		t.Errorf("single-domain EnableRecovery: %v, want ErrInvalidDomain", err)
	}

	d := mustDomainSet(t, StrictPolicy{}, pp.MB(16), DefaultDomainConfig(2))
	if err := d.EnableRecovery(RecoveryConfig{MaxRetries: -1}); !errors.Is(err, ErrInvalidRecoveryConfig) {
		t.Errorf("bad config: %v, want ErrInvalidRecoveryConfig", err)
	}
	// Injection before EnableRecovery must refuse rather than touch state.
	if err := d.InjectCrash(0); !errors.Is(err, ErrInvalidDomain) {
		t.Errorf("InjectCrash without recovery: %v, want ErrInvalidDomain", err)
	}
	if err := d.EnableRecovery(DefaultRecoveryConfig()); err != nil {
		t.Fatal(err)
	}
	if err := d.InjectCrash(5); !errors.Is(err, ErrInvalidDomain) {
		t.Errorf("out-of-range crash: %v, want ErrInvalidDomain", err)
	}
	if err := d.InjectCapacityLoss(0, -0.5); !errors.Is(err, ErrInvalidDomain) {
		t.Errorf("negative loss: %v, want ErrInvalidDomain", err)
	}
	if err := d.InjectLedgerCorruption(-1, pp.MB(1)); !errors.Is(err, ErrInvalidDomain) {
		t.Errorf("out-of-range corruption: %v, want ErrInvalidDomain", err)
	}
}

// TestCapacityLossAndResplit drives the capacity ledger directly:
// partial loss shrinks only the target shard, a crash zeroes it and (in
// evacuate mode) hands its share to the survivor, reintegration restores
// the baseline split exactly.
func TestCapacityLossAndResplit(t *testing.T) {
	d := mustDomainSet(t, StrictPolicy{}, pp.MB(16), DefaultDomainConfig(2))
	if err := d.EnableRecovery(DefaultRecoveryConfig()); err != nil {
		t.Fatal(err)
	}
	capOf := func(i int) pp.Bytes { return d.Shard(i).Resources().Capacity(pp.ResourceLLC) }

	if err := d.InjectCapacityLoss(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if capOf(0) != pp.MB(4) || capOf(1) != pp.MB(8) {
		t.Fatalf("after 50%% loss: caps %v/%v, want 4MB/8MB", capOf(0), capOf(1))
	}
	if d.Quarantined(0) {
		t.Error("partial loss must not quarantine the shard")
	}
	if err := d.RecoverDomain(0); err != nil {
		t.Fatal(err)
	}
	if capOf(0) != pp.MB(8) || capOf(1) != pp.MB(8) {
		t.Fatalf("after restore: caps %v/%v, want 8MB/8MB", capOf(0), capOf(1))
	}

	// frac >= 1 is a crash: offline, zero capacity, survivor absorbs the
	// lost share under the evacuating mode.
	if err := d.InjectCapacityLoss(0, 1.5); err != nil {
		t.Fatal(err)
	}
	if !d.Quarantined(0) {
		t.Fatal("full loss must quarantine the shard")
	}
	if capOf(0) != 0 || capOf(1) != pp.MB(16) {
		t.Fatalf("after crash: caps %v/%v, want 0/16MB", capOf(0), capOf(1))
	}
	// Crash is idempotent.
	if err := d.InjectCrash(0); err != nil {
		t.Fatal(err)
	}
	if got := d.RecoveryStats().Failures; got != 1 {
		t.Fatalf("failures = %d after a repeated crash, want 1", got)
	}
	if err := d.RecoverDomain(0); err != nil {
		t.Fatal(err)
	}
	if d.Quarantined(0) || capOf(0) != pp.MB(8) || capOf(1) != pp.MB(8) {
		t.Fatalf("after reintegration: quarantined=%v caps %v/%v, want online 8MB/8MB",
			d.Quarantined(0), capOf(0), capOf(1))
	}
	if got := d.RecoveryStats().Reintegrations; got != 2 {
		t.Fatalf("reintegrations = %d, want 2", got)
	}
	// Healing a healthy shard is a no-op.
	if err := d.RecoverDomain(0); err != nil {
		t.Fatal(err)
	}
	if got := d.RecoveryStats().Reintegrations; got != 2 {
		t.Fatalf("no-op recover bumped reintegrations to %d", got)
	}
}

// TestCrashEvacuatesPeriods is the canonical evacuation scenario: the
// crashed shard's active migrates first onto the survivor (the absorbed
// capacity makes room — no forced oversubscription), the waiter strands
// onto the survivor's waitlist, and the run completes with every period
// ending on the survivor.
func TestCrashEvacuatesPeriods(t *testing.T) {
	d, m := buildDomains(t, StrictPolicy{}, DomainConfig{Domains: 2, DisableSteal: true})
	if err := d.EnableRecovery(DefaultRecoveryConfig()); err != nil {
		t.Fatal(err)
	}
	sink := newKindSink()
	d.AddSink(sink)
	// hog-long fills shard 0, hog-short fills shard 1, the waiter parks
	// on shard 0's waitlist (least-loaded tie breaks low).
	if _, err := m.AddProcess(declaredProc("hog-long", pp.MB(6), 4e8)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("hog-short", pp.MB(6), 1e7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("waiter", pp.MB(6), 1e7)); err != nil {
		t.Fatal(err)
	}
	m.Engine().After(sim.Millisecond, func() {
		if err := d.InjectCrash(0); err != nil {
			t.Error(err)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	rst := d.RecoveryStats()
	if rst.Failures != 1 {
		t.Fatalf("failures = %d, want 1", rst.Failures)
	}
	// hog-long moves first and fits (the survivor holds the whole LLC
	// after the re-split: 6+6 MB); the waiter then finds no headroom
	// (6+6+6 MB) and transfers to the survivor's waitlist, waking there
	// when hog-short drains. No move is forced.
	if rst.Evacuations != 2 || rst.ForcedMoves != 0 {
		t.Fatalf("evacuations/forced = %d/%d, want 2/0", rst.Evacuations, rst.ForcedMoves)
	}
	if !d.Quarantined(0) {
		t.Error("shard 0 should still be quarantined (never healed)")
	}
	if st := d.Stats(); st.Begins != 3 || st.Ends != 3 {
		t.Fatalf("begins/ends = %d/%d, want 3/3", st.Begins, st.Ends)
	}
	if got := d.Shard(1).Stats().Ends; got != 3 {
		t.Fatalf("survivor ends = %d, want 3 (every period ended there)", got)
	}
	if sink.counts[EventDomainFail] != 1 || sink.counts[EventEvacuate] != 2 {
		t.Fatalf("events: %d domain-fail, %d evacuate, want 1 and 2",
			sink.counts[EventDomainFail], sink.counts[EventEvacuate])
	}
	if d.Waitlisted() != 0 || d.ActivePeriods() != 0 || len(d.domainOf) != 0 {
		t.Fatal("registries not drained after the run")
	}
	for i := 0; i < 2; i++ {
		if u := d.Shard(i).Resources().Usage(pp.ResourceLLC); u != 0 {
			t.Errorf("shard %d load %v after drain, want 0", i, u)
		}
	}
}

// TestEvacuationRetryBackoff strands a waiter (no survivor admits it at
// crash time) and checks the backoff retry migrates it once a survivor
// drains. Stealing is disabled so only the retry path can move it.
func TestEvacuationRetryBackoff(t *testing.T) {
	d, m := buildDomains(t, StrictPolicy{}, DomainConfig{Domains: 3, DisableSteal: true})
	if err := d.EnableRecovery(DefaultRecoveryConfig()); err != nil {
		t.Fatal(err)
	}
	sink := newKindSink()
	d.AddSink(sink)
	// 15 MB LLC → 5 MB per shard. hog-a lands on shard 0 with the 4 MB
	// waiter queued behind it; hog-b (long) on shard 1, hog-c (~3 ms) on
	// shard 2. After the crash shard 1 absorbs shard 0's share (10 MB):
	// hog-a migrates there next to hog-b (4+4 ≤ 10), the waiter fits
	// neither survivor (8+4 > 10, 4+4 > 5) and strands onto shard 1's
	// waitlist — the least-loaded tie breaks low, and nothing there
	// drains for ~200 ms — so only a retry tick can notice shard 2
	// emptying when hog-c ends and migrate the waiter across (4 ≤ 5).
	if _, err := m.AddProcess(declaredProc("hog-a", pp.MB(4), 4e8)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("hog-b", pp.MB(4), 4e8)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("hog-c", pp.MB(4), 6e6)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("waiter", pp.MB(4), 1e7)); err != nil {
		t.Fatal(err)
	}
	m.Engine().After(sim.Millisecond, func() {
		if err := d.InjectCrash(0); err != nil {
			t.Error(err)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	rst := d.RecoveryStats()
	if rst.EvacRetries == 0 {
		t.Fatal("no retry ticks fired for the stranded waiter")
	}
	if rst.LadderFallbacks != 0 {
		t.Fatalf("ladder fallbacks = %d, want 0 (the retry found a fit)", rst.LadderFallbacks)
	}
	// Transfer to a survivor waitlist + forced active move + the retry's
	// eventual migration.
	if rst.Evacuations < 3 {
		t.Fatalf("evacuations = %d, want >= 3", rst.Evacuations)
	}
	if st := d.Stats(); st.Ends != 4 {
		t.Fatalf("ends = %d, want 4", st.Ends)
	}
	if st := d.Stats(); st.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0 (the waiter was admitted, not abandoned)", st.Fallbacks)
	}
	if d.Waitlisted() != 0 || d.ActivePeriods() != 0 {
		t.Fatal("registries not drained after the run")
	}
}

// TestRetryExhaustionFallsToLadder pins the bounded half of the backoff:
// when every survivor stays full past MaxRetries, the stranded waiter is
// handed to the admission ladder and the fallback deadline bounds its
// wait.
func TestRetryExhaustionFallsToLadder(t *testing.T) {
	d, m := buildDomains(t, StrictPolicy{}, DomainConfig{Domains: 3, DisableSteal: true})
	if err := d.EnableRecovery(RecoveryConfig{
		Mode: RecoverEvacuate, MaxRetries: 1, RetryBase: sim.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	d.SetAdmissionDeadline(30 * sim.Millisecond)
	// Every hog runs long: the survivors never drain before the retry
	// budget (two ticks, ~2 ms + 4 ms) is gone.
	for _, name := range []string{"hog-a", "hog-b", "hog-c"} {
		if _, err := m.AddProcess(declaredProc(name, pp.MB(4), 4e8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.AddProcess(declaredProc("waiter", pp.MB(4), 1e7)); err != nil {
		t.Fatal(err)
	}
	m.Engine().After(sim.Millisecond, func() {
		if err := d.InjectCrash(0); err != nil {
			t.Error(err)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	rst := d.RecoveryStats()
	if rst.LadderFallbacks != 1 {
		t.Fatalf("ladder fallbacks = %d, want 1", rst.LadderFallbacks)
	}
	st := d.Stats()
	if st.Fallbacks < 1 {
		t.Fatalf("fallback admissions = %d, want >= 1 (the deadline caught the waiter)", st.Fallbacks)
	}
	if st.Ends != 4 {
		t.Fatalf("ends = %d, want 4", st.Ends)
	}
	// The deadline was re-armed with the waiter's *remaining* budget at
	// transfer time, so the fallback fires at its original 30 ms bound.
	if st.MaxWait > 31*sim.Millisecond {
		t.Errorf("max wait %v exceeds the fallback deadline bound", st.MaxWait)
	}
}

// TestDropMode pins the RecoverDrop baseline: every period registered on
// the crashed shard is degraded to untracked admission on the spot and
// the shard's ledger empties immediately.
func TestDropMode(t *testing.T) {
	d, m := buildDomains(t, StrictPolicy{}, DomainConfig{Domains: 2, DisableSteal: true})
	if err := d.EnableRecovery(RecoveryConfig{Mode: RecoverDrop}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("hog-long", pp.MB(6), 4e8)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("hog-short", pp.MB(6), 1e7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("waiter", pp.MB(6), 1e7)); err != nil {
		t.Fatal(err)
	}
	m.Engine().After(sim.Millisecond, func() {
		if err := d.InjectCrash(0); err != nil {
			t.Error(err)
		}
		if u := d.Shard(0).Resources().Usage(pp.ResourceLLC); u != 0 {
			t.Errorf("shard 0 load %v right after drop, want 0", u)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	rst := d.RecoveryStats()
	if rst.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (the active and the waiter)", rst.Dropped)
	}
	if rst.Evacuations != 0 {
		t.Fatalf("evacuations = %d under RecoverDrop, want 0", rst.Evacuations)
	}
	st := d.Stats()
	if st.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1 (the waiter was fallback-admitted)", st.Fallbacks)
	}
	if st.Ends != 3 {
		t.Fatalf("ends = %d, want 3", st.Ends)
	}
}

// TestStallMode pins the RecoverStall baseline: nothing moves, the
// crashed shard's active drains on its own end and the waiter waits out
// the fallback deadline.
func TestStallMode(t *testing.T) {
	d, m := buildDomains(t, StrictPolicy{}, DomainConfig{Domains: 2, DisableSteal: true})
	if err := d.EnableRecovery(RecoveryConfig{Mode: RecoverStall}); err != nil {
		t.Fatal(err)
	}
	d.SetAdmissionDeadline(20 * sim.Millisecond)
	if _, err := m.AddProcess(declaredProc("hog-long", pp.MB(6), 4e8)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("hog-short", pp.MB(6), 1e7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("waiter", pp.MB(6), 1e7)); err != nil {
		t.Fatal(err)
	}
	m.Engine().After(sim.Millisecond, func() {
		if err := d.InjectCrash(0); err != nil {
			t.Error(err)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	rst := d.RecoveryStats()
	if rst.Evacuations != 0 || rst.Dropped != 0 {
		t.Fatalf("stall moved/dropped %d/%d periods, want 0/0", rst.Evacuations, rst.Dropped)
	}
	st := d.Stats()
	if st.Fallbacks < 1 {
		t.Fatalf("fallbacks = %d, want >= 1 (only the deadline can free the stalled waiter)", st.Fallbacks)
	}
	if st.Ends != 3 {
		t.Fatalf("ends = %d, want 3", st.Ends)
	}
	if !d.Quarantined(0) {
		t.Error("stalled shard should remain quarantined")
	}
}

// TestAuditRepairsLedger drives the auditor directly: injected skew in
// either direction is repaired back to the exact sum of admitted
// tracked charges, and Quiesce stays exact through a corruption.
func TestAuditRepairsLedger(t *testing.T) {
	d := mustDomainSet(t, StrictPolicy{}, pp.MB(16), DefaultDomainConfig(2))
	if err := d.EnableRecovery(DefaultRecoveryConfig()); err != nil {
		t.Fatal(err)
	}
	sink := newKindSink()
	d.AddSink(sink)
	dm := pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(3), Reuse: pp.ReuseHigh}
	for i := 0; i < 4; i++ {
		key := periodKey{procID: i, phaseIdx: 0}
		di := d.place([]pp.Demand{dm})
		s := d.Shard(di)
		per := s.reg.open(key)
		per.demands = append(per.demands, dm)
		per.id = s.allocID()
		d.domainOf[key] = di
		s.admit(per)
	}
	usage := func(i int) pp.Bytes { return d.Shard(i).Resources().Usage(pp.ResourceLLC) }
	want0, want1 := usage(0), usage(1)

	if err := d.InjectLedgerCorruption(0, pp.MB(2)); err != nil {
		t.Fatal(err)
	}
	if usage(0) != want0+pp.MB(2) {
		t.Fatalf("skew not applied: usage %v", usage(0))
	}
	if err := d.InjectLedgerCorruption(1, -pp.MB(100)); err != nil {
		t.Fatal(err)
	}
	if usage(1) != 0 {
		t.Fatalf("negative skew not clamped: usage %v", usage(1))
	}
	d.runAudit(false)
	if usage(0) != want0 || usage(1) != want1 {
		t.Fatalf("audit left usage %v/%v, want %v/%v", usage(0), usage(1), want0, want1)
	}
	rst := d.RecoveryStats()
	if rst.Corruptions != 2 || rst.AuditRuns != 1 || rst.AuditRepairs != 2 {
		t.Fatalf("corruptions/runs/repairs = %d/%d/%d, want 2/1/2",
			rst.Corruptions, rst.AuditRuns, rst.AuditRepairs)
	}
	if sink.counts[EventAudit] != 2 {
		t.Fatalf("audit events = %d, want 2 (one per drifted shard)", sink.counts[EventAudit])
	}
	// A second pass over the clean ledger repairs nothing.
	d.runAudit(false)
	if got := d.RecoveryStats().AuditRepairs; got != 2 {
		t.Fatalf("clean audit repaired (%d total repairs)", got)
	}

	// Quiesce through a fresh corruption: the pre-reclaim audit keeps the
	// zero-residue check exact.
	if err := d.InjectLedgerCorruption(0, pp.MB(5)); err != nil {
		t.Fatal(err)
	}
	if got := d.Quiesce(); got != 4 {
		t.Fatalf("Quiesce reclaimed %d, want 4", got)
	}
	if usage(0) != 0 || usage(1) != 0 {
		t.Fatalf("usage %v/%v after Quiesce, want 0/0", usage(0), usage(1))
	}
}

// TestAuditTickRepairsMidRun checks the periodic tick end to end: a
// mid-run corruption is discovered and repaired on the next interval
// without disturbing the workload.
func TestAuditTickRepairsMidRun(t *testing.T) {
	d, m := buildDomains(t, StrictPolicy{}, DomainConfig{Domains: 2, DisableSteal: true})
	if err := d.EnableRecovery(RecoveryConfig{
		Mode: RecoverEvacuate, AuditInterval: 2 * sim.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	sink := newKindSink()
	d.AddSink(sink)
	if _, err := m.AddProcess(declaredProc("worker", pp.MB(6), 1e7)); err != nil {
		t.Fatal(err)
	}
	m.Engine().After(sim.Millisecond, func() {
		if err := d.InjectLedgerCorruption(0, pp.MB(3)); err != nil {
			t.Error(err)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	rst := d.RecoveryStats()
	if rst.Corruptions != 1 || rst.AuditRepairs < 1 {
		t.Fatalf("corruptions/repairs = %d/%d, want 1/>=1", rst.Corruptions, rst.AuditRepairs)
	}
	if rst.AuditRuns < 2 {
		t.Fatalf("audit runs = %d, want >= 2 (the tick re-arms)", rst.AuditRuns)
	}
	if sink.counts[EventAudit] < 1 {
		t.Fatal("no audit event emitted for the repair")
	}
	if st := d.Stats(); st.Ends != 1 {
		t.Fatalf("ends = %d, want 1", st.Ends)
	}
	if u := d.Shard(0).Resources().Usage(pp.ResourceLLC); u != 0 {
		t.Fatalf("shard 0 load %v after drain, want 0", u)
	}
}

// TestRecoverDomainMidRun heals a crashed shard mid-run: the shard comes
// back online at the baseline split and the time-to-recover lands in the
// recovery histogram.
func TestRecoverDomainMidRun(t *testing.T) {
	d, m := buildDomains(t, StrictPolicy{}, DomainConfig{Domains: 2, DisableSteal: true})
	if err := d.EnableRecovery(DefaultRecoveryConfig()); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	d.SetMetrics(reg)
	sink := newKindSink()
	d.AddSink(sink)
	if _, err := m.AddProcess(declaredProc("hog-long", pp.MB(6), 4e8)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("hog-short", pp.MB(6), 1e7)); err != nil {
		t.Fatal(err)
	}
	m.Engine().After(sim.Millisecond, func() {
		if err := d.InjectCrash(0); err != nil {
			t.Error(err)
		}
	})
	m.Engine().After(3*sim.Millisecond, func() {
		if err := d.RecoverDomain(0); err != nil {
			t.Error(err)
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Quarantined(0) {
		t.Error("shard 0 still quarantined after RecoverDomain")
	}
	half := machine.DefaultConfig().LLCCapacity / 2
	for i := 0; i < 2; i++ {
		if c := d.Shard(i).Resources().Capacity(pp.ResourceLLC); c != half {
			t.Errorf("shard %d capacity %v after heal, want baseline %v", i, c, half)
		}
	}
	rst := d.RecoveryStats()
	if rst.Failures != 1 || rst.Reintegrations != 1 {
		t.Fatalf("failures/reintegrations = %d/%d, want 1/1", rst.Failures, rst.Reintegrations)
	}
	if sink.counts[EventRecover] != 1 {
		t.Fatalf("recover events = %d, want 1", sink.counts[EventRecover])
	}
	h := reg.Histogram(MetricRecoverySeconds)
	if h.Count() != 1 {
		t.Fatalf("recovery histogram count = %d, want 1", h.Count())
	}
	if got, want := h.Sum(), (2 * sim.Millisecond).Seconds(); got < want*0.9 || got > want*1.1 {
		t.Errorf("time-to-recover %v s, want ~%v s", got, want)
	}
	if st := d.Stats(); st.Ends != 2 {
		t.Fatalf("ends = %d, want 2", st.Ends)
	}
}
