package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// Recovery invariants, fuzzed. A DomainSet with the fault/recovery
// subsystem enabled must uphold, for every workload, domain count, and
// recovery mode, under a seeded schedule of capacity loss + ledger
// corruption + shard crash (and sometimes a heal):
//
//  1. a period is registered in exactly one domain at any instant —
//     evacuation re-homes it, never duplicates it;
//  2. wait clocks never reset: a wake's or fallback's Wait spans back to
//     the period's begin, through any number of evacuations;
//  3. the run completes: begins == ends + reclaims — a crash may strand
//     work temporarily, never permanently (the retry ladder, admission
//     deadline, and leases bound every wait);
//  4. the end-of-run ledger is exact: after Quiesce every shard reads
//     zero usage with drained registries and no stale routing entries,
//     no matter what corruption was injected — and every injected
//     corruption was repaired by the auditor (AuditRepairs >= 1).
//
// Unlike the domain fuzz sink, the per-event check deliberately does NOT
// reconcile shard load against the admitted charges: between an injected
// ledger corruption and the audit that repairs it, that invariant is
// *supposed* to be broken. The auditor is the repair mechanism, and the
// end-of-run assertions prove it ran to completion.

// recoveryInvariantSink checks invariants 1–2 synchronously at every
// decision.
type recoveryInvariantSink struct {
	d       *DomainSet
	beginAt map[pp.ID]sim.Time
	err     error
}

func (k *recoveryInvariantSink) fail(format string, args ...any) {
	if k.err == nil {
		k.err = fmt.Errorf(format, args...)
	}
}

func (k *recoveryInvariantSink) Record(e Event) {
	if k.err != nil {
		return
	}
	seen := make(map[periodKey]int, len(k.d.domainOf))
	for i, s := range k.d.shards {
		s.reg.each(func(per *period) {
			if prev, dup := seen[per.key]; dup {
				k.fail("proc %d phase %d registered in domains %d and %d at %v",
					per.key.procID, per.key.phaseIdx, prev, i, e.At)
			}
			seen[per.key] = i
		})
		if k.err != nil {
			return
		}
	}
	switch e.Kind {
	case EventBegin:
		k.beginAt[e.ID] = e.At
	case EventWake, EventFallback:
		if begin, ok := k.beginAt[e.ID]; ok {
			if want := e.At.DurationSince(begin); e.Wait != want {
				k.fail("period %d %v Wait %v != %v since its begin — wait clock reset",
					e.ID, e.Kind, e.Wait, want)
			}
		}
	}
}

// checkRecoveryInvariants drives one random workload through a fault-
// injected DomainSet of 2–4 domains and returns the first violated
// invariant.
func checkRecoveryInvariants(seed uint64, domains, modeIdx uint8) error {
	n := 2 + int(domains)%3
	mode := RecoveryMode(int(modeIdx) % 3)
	w := randomWorkload(seed, 8)

	cfg := machine.DefaultConfig()
	cfg.MaxSimTime = 600 * sim.Second
	d, err := NewDomainSet(StrictPolicy{}, cfg.LLCCapacity, DomainConfig{Domains: n, StealAge: sim.Millisecond})
	if err != nil {
		return fmt.Errorf("seed %d domains %d: NewDomainSet: %v", seed, n, err)
	}
	m := machine.New(cfg, d)
	d.SetWaker(m)
	d.SetClock(m.Now)
	d.SetTimer(m.Engine())
	// The admission deadline is the stall baseline's only way out for a
	// dead shard's waiters; the lease (half the seeds) exercises reclaim
	// across evacuated actives.
	d.SetAdmissionDeadline(30 * sim.Millisecond)
	if seed&1 == 0 {
		d.SetLease(50 * sim.Millisecond)
	}
	if err := d.EnableRecovery(RecoveryConfig{
		Mode:          mode,
		MaxRetries:    3,
		RetryBase:     500 * sim.Microsecond,
		AuditInterval: 2 * sim.Millisecond,
	}); err != nil {
		return fmt.Errorf("seed %d: EnableRecovery: %v", seed, err)
	}

	// The seeded fault schedule: a positive ledger skew, sometimes a
	// partial capacity loss, then a crash of another shard — healed for a
	// third of the seeds. Positive skew only: a negative skew clamps at
	// zero and can coincidentally re-align as the shard drains, making
	// "every corruption is repaired" unassertable.
	crashTarget := int(seed % uint64(n))
	skewTarget := (crashTarget + 1) % n
	crashAt := sim.Duration(1+seed%10) * 500 * sim.Microsecond
	skew := pp.Bytes(1+(seed>>4)%8) * pp.MiB
	m.Engine().After(crashAt/2, func() {
		if err := d.InjectLedgerCorruption(skewTarget, skew); err != nil {
			panic(err)
		}
	})
	if (seed>>2)&1 == 1 {
		m.Engine().After(crashAt/4+1, func() {
			if err := d.InjectCapacityLoss(skewTarget, 0.3); err != nil {
				panic(err)
			}
		})
	}
	m.Engine().After(crashAt, func() {
		if err := d.InjectCrash(crashTarget); err != nil {
			panic(err)
		}
	})
	if seed%3 == 0 {
		m.Engine().After(2*crashAt, func() {
			if err := d.RecoverDomain(crashTarget); err != nil {
				panic(err)
			}
		})
	}

	sink := &recoveryInvariantSink{d: d, beginAt: make(map[pp.ID]sim.Time)}
	d.AddSink(sink)
	if err := m.AddWorkload(w); err != nil {
		return fmt.Errorf("seed %d: invalid workload: %v", seed, err)
	}
	if _, err := m.Run(); err != nil {
		return fmt.Errorf("seed %d domains %d mode %s: %v", seed, n, mode, err)
	}
	if sink.err != nil {
		return fmt.Errorf("seed %d domains %d mode %s: %v", seed, n, mode, sink.err)
	}
	st := d.Stats()
	if st.Begins != st.Ends+st.Reclaimed {
		return fmt.Errorf("seed %d domains %d mode %s: %d begins vs %d ends + %d reclaims",
			seed, n, mode, st.Begins, st.Ends, st.Reclaimed)
	}
	if d.Quiesce() != 0 {
		return fmt.Errorf("seed %d mode %s: Quiesce found registered periods after a drained run", seed, mode)
	}
	rst := d.RecoveryStats()
	if rst.Corruptions > 0 && rst.AuditRepairs == 0 {
		return fmt.Errorf("seed %d mode %s: %d corruptions injected, none repaired",
			seed, mode, rst.Corruptions)
	}
	for i := 0; i < d.NumDomains(); i++ {
		s := d.shards[i]
		if u := s.Resources().Usage(pp.ResourceLLC); u != 0 {
			return fmt.Errorf("seed %d mode %s domain %d: leftover load %v", seed, mode, i, u)
		}
		if s.Waitlisted() != 0 || s.ActivePeriods() != 0 {
			return fmt.Errorf("seed %d mode %s domain %d: registry not drained", seed, mode, i)
		}
	}
	if len(d.domainOf) != 0 {
		return fmt.Errorf("seed %d mode %s: %d stale routing entries after drain",
			seed, mode, len(d.domainOf))
	}
	return nil
}

// TestFuzzRecoveryInvariants is the quick.Check sweep;
// FuzzRecoveryInvariants explores further from the committed corpus
// under `make fuzz` / CI.
func TestFuzzRecoveryInvariants(t *testing.T) {
	f := func(seed uint64, domains, modeIdx uint8) bool {
		if err := checkRecoveryInvariants(seed, domains, modeIdx); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRecoveryInvariants is the native fuzz entry point; the committed
// corpus seeds every recovery mode × domain count pairing plus boundary
// seeds.
func FuzzRecoveryInvariants(f *testing.F) {
	for _, c := range [][3]uint64{
		{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {3, 0, 1},
		{256, 1, 2}, {512, 2, 0}, {768, 0, 2}, {1337, 1, 0}, {^uint64(0), 2, 1},
	} {
		f.Add(c[0], uint8(c[1]), uint8(c[2]))
	}
	f.Fuzz(func(t *testing.T, seed uint64, domains, modeIdx uint8) {
		if err := checkRecoveryInvariants(seed, domains, modeIdx); err != nil {
			t.Error(err)
		}
	})
}
