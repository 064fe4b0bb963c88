package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// Domain invariants, fuzzed. The sharded scheduler must uphold, for
// every workload, domain count, policy, and steal-age setting:
//
//  1. a period is registered in exactly one domain at any instant —
//     placement routes it, a steal re-homes it, never duplicates it;
//  2. every shard's LLC usage reconciles exactly with the sum of its
//     admitted, tracked periods' charges — migrations move the charge
//     with the period, never double-charge or leak it (per-domain loads
//     always sum to the true global load);
//  3. wait clocks never reset: a wake's or fallback's Wait spans back
//     to the period's begin, no matter how many domains it crossed;
//  4. the run completes with begins == ends and every domain drained to
//     zero usage, zero waitlist, zero active periods, and no stale
//     routing entries.
//
// checkDomainInvariants is shared by the quick.Check sweep and the
// native fuzz target, like the scheduler and chaos fuzz suites.

// domainInvariantSink checks invariants 1–3 synchronously at every
// decision, where a violation is still attributable.
type domainInvariantSink struct {
	d       *DomainSet
	beginAt map[pp.ID]sim.Time
	err     error
}

func (k *domainInvariantSink) fail(format string, args ...any) {
	if k.err == nil {
		k.err = fmt.Errorf(format, args...)
	}
}

func (k *domainInvariantSink) Record(e Event) {
	if k.err != nil {
		return
	}
	seen := make(map[periodKey]int, len(k.d.domainOf))
	for i, s := range k.d.shards {
		var want pp.Bytes
		s.reg.each(func(per *period) {
			if prev, dup := seen[per.key]; dup {
				k.fail("proc %d phase %d registered in domains %d and %d at %v",
					per.key.procID, per.key.phaseIdx, prev, i, e.At)
			}
			seen[per.key] = i
			if per.admitted && !per.untracked {
				want += per.demands[0].WorkingSet
			}
		})
		if k.err != nil {
			return
		}
		if got := s.rm.Usage(pp.ResourceLLC); got != want {
			k.fail("domain %d load %v != %v charged by its admitted periods (after %v %v)",
				i, got, want, e.Kind, e.At)
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

// checkDomainInvariants drives one random workload through a DomainSet
// of 1–4 domains and returns the first violated invariant.
func checkDomainInvariants(seed uint64, domains, polIdx uint8) error {
	policies := []Policy{StrictPolicy{}, NewCompromise(), AlwaysPolicy{}}
	pol := policies[int(polIdx)%len(policies)]
	n := 1 + int(domains)%4
	// Sweep the steal knob from hyper-aggressive through default to
	// disabled; the invariants may not depend on it.
	dcfg := DomainConfig{Domains: n}
	switch (seed >> 8) % 4 {
	case 0:
		dcfg.StealAge = 1
	case 1:
		dcfg.StealAge = 10 * sim.Microsecond
	case 2:
		// default age
	case 3:
		dcfg.DisableSteal = true
	}
	w := randomWorkload(seed, 8)

	cfg := machine.DefaultConfig()
	cfg.MaxSimTime = 600 * sim.Second
	d, err := NewDomainSet(pol, cfg.LLCCapacity, dcfg)
	if err != nil {
		return fmt.Errorf("seed %d domains %d: NewDomainSet: %v", seed, n, err)
	}
	m := machine.New(cfg, d)
	d.SetWaker(m)
	d.SetClock(m.Now)
	d.SetTimer(m.Engine())
	if seed&1 == 0 {
		// Half the runs exercise the robustness layer across shards.
		d.SetLease(50 * sim.Millisecond)
		d.SetAdmissionDeadline(30 * sim.Millisecond)
	}
	sink := &domainInvariantSink{d: d, beginAt: make(map[pp.ID]sim.Time)}
	d.AddSink(sink)
	if err := m.AddWorkload(w); err != nil {
		return fmt.Errorf("seed %d: invalid workload: %v", seed, err)
	}
	if _, err := m.Run(); err != nil {
		return fmt.Errorf("seed %d domains %d policy %s: %v", seed, n, pol.Name(), err)
	}
	if sink.err != nil {
		return fmt.Errorf("seed %d domains %d policy %s: %v", seed, n, pol.Name(), sink.err)
	}
	st := d.Stats()
	if st.Begins != st.Ends+st.Reclaimed {
		return fmt.Errorf("seed %d domains %d: %d begins vs %d ends + %d reclaims",
			seed, n, st.Begins, st.Ends, st.Reclaimed)
	}
	for i := 0; i < d.NumDomains(); i++ {
		s := d.Shard(i)
		if u := s.Resources().Usage(pp.ResourceLLC); u != 0 {
			return fmt.Errorf("seed %d domain %d: leftover load %v", seed, i, u)
		}
		if s.Waitlisted() != 0 || s.ActivePeriods() != 0 {
			return fmt.Errorf("seed %d domain %d: registry not drained", seed, i)
		}
	}
	if len(d.domainOf) != 0 {
		return fmt.Errorf("seed %d: %d stale routing entries after drain", seed, len(d.domainOf))
	}
	if residue := d.Quiesce(); residue != 0 {
		return fmt.Errorf("seed %d: Quiesce reclaimed %d periods after a drained run", seed, residue)
	}
	return nil
}

// TestFuzzDomainInvariants is the quick.Check sweep;
// FuzzDomainInvariants explores further from the committed corpus under
// `make fuzz` / CI.
func TestFuzzDomainInvariants(t *testing.T) {
	f := func(seed uint64, domains, polIdx uint8) bool {
		if err := checkDomainInvariants(seed, domains, polIdx); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDomainInvariants is the native fuzz entry point; the committed
// corpus seeds every domain count × policy pairing plus boundary seeds.
func FuzzDomainInvariants(f *testing.F) {
	for _, c := range [][3]uint64{
		{0, 0, 0}, {1, 1, 0}, {2, 2, 1}, {3, 3, 2},
		{256, 1, 0}, {512, 2, 0}, {768, 3, 1}, {1337, 1, 0}, {^uint64(0), 3, 2},
	} {
		f.Add(c[0], uint8(c[1]), uint8(c[2]))
	}
	f.Fuzz(func(t *testing.T, seed uint64, domains, polIdx uint8) {
		if err := checkDomainInvariants(seed, domains, polIdx); err != nil {
			t.Error(err)
		}
	})
}
