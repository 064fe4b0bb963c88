package core

import (
	"errors"
	"testing"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// buildDomains wires a DomainSet and machine together like build does
// for the unsharded scheduler, with the full clock/timer binding the
// steal pass needs.
func buildDomains(t *testing.T, policy Policy, dcfg DomainConfig) (*DomainSet, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.WakeLatency = 0
	cfg.OverheadAPIInstr = 0
	cfg.OverheadKernelInstr = 0
	d := mustDomainSet(t, policy, cfg.LLCCapacity, dcfg)
	m := machine.New(cfg, d)
	d.SetWaker(m)
	d.SetClock(m.Now)
	d.SetTimer(m.Engine())
	return d, m
}

func mustDomainSet(t *testing.T, policy Policy, llc pp.Bytes, dcfg DomainConfig) *DomainSet {
	t.Helper()
	d, err := NewDomainSet(policy, llc, dcfg)
	if err != nil {
		t.Fatalf("NewDomainSet: %v", err)
	}
	return d
}

// waitlisted sums the periods waiting on every shard of d.
func waitlisted(d *DomainSet) int {
	n := 0
	for _, s := range d.shards {
		n += s.Waitlisted()
	}
	return n
}

func TestSplitShare(t *testing.T) {
	for _, tc := range []struct {
		total pp.Bytes
		n     int
		want  []pp.Bytes
	}{
		{10, 2, []pp.Bytes{5, 5}},
		{11, 2, []pp.Bytes{6, 5}},
		{10, 3, []pp.Bytes{4, 3, 3}},
		{2, 4, []pp.Bytes{1, 1, 0, 0}},
	} {
		var sum pp.Bytes
		for i, want := range tc.want {
			got := splitShare(tc.total, i, tc.n)
			if got != want {
				t.Errorf("splitShare(%d, %d, %d) = %d, want %d", tc.total, i, tc.n, got, want)
			}
			sum += got
		}
		if sum != tc.total {
			t.Errorf("splitShare(%d, ·, %d) sums to %d", tc.total, tc.n, sum)
		}
	}
	// A set's per-domain capacities are that split of the whole LLC.
	d := mustDomainSet(t, StrictPolicy{}, pp.MB(15), DomainConfig{Domains: 3})
	if n := d.NumDomains(); n != 3 {
		t.Fatalf("NumDomains = %d, want 3", n)
	}
	var total pp.Bytes
	for _, per := range d.DomainStats().PerDomain {
		total += per.Capacity
	}
	if total != pp.MB(15) {
		t.Errorf("per-domain capacities sum to %v, want the whole LLC", total)
	}
}

// TestDomainSingleMatchesUnsharded locks the Domains=1 aggregation
// values to the unsharded scheduler's: identical Stats (including
// MaxWait), zero placements and steals, and matching end-state gauges.
func TestDomainSingleMatchesUnsharded(t *testing.T) {
	s, ms := build(t, StrictPolicy{})
	s.SetClock(ms.Now) // buildDomains binds a clock; match it so MaxWait compares
	s.SetTimer(ms.Engine())
	d, md := buildDomains(t, StrictPolicy{}, DomainConfig{Domains: 1})
	for i := 0; i < 10; i++ {
		if _, err := ms.AddProcess(declaredProc("p", pp.MB(4), 1e7)); err != nil {
			t.Fatal(err)
		}
		if _, err := md.AddProcess(declaredProc("p", pp.MB(4), 1e7)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ms.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := md.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Stats(), s.Stats(); got != want {
		t.Errorf("single-domain stats %+v != unsharded %+v", got, want)
	}
	if got, want := waitlisted(d), s.Waitlisted(); got != want {
		t.Errorf("waitlisted = %d, want %d", got, want)
	}
	if got, want := d.ActivePeriods(), s.ActivePeriods(); got != want {
		t.Errorf("ActivePeriods() = %d, want %d", got, want)
	}
	ds := d.DomainStats()
	if ds.Placements != 0 || ds.Steals != 0 {
		t.Errorf("single-domain set made decisions: placements %d steals %d", ds.Placements, ds.Steals)
	}
	if ds.Domains != 1 || len(ds.PerDomain) != 1 {
		t.Fatalf("DomainStats shape: %+v", ds)
	}
	if ds.PerDomain[0].Capacity != ms.Config().LLCCapacity {
		t.Errorf("single domain capacity %v, want the whole LLC %v",
			ds.PerDomain[0].Capacity, ms.Config().LLCCapacity)
	}
}

// TestDomainAggregatesSumShards locks the multi-domain aggregation: the
// set-wide Stats/Waitlisted/ActivePeriods are the shard sums (MaxWait
// the shard max), and every counter the run produced is accounted to
// exactly one domain.
func TestDomainAggregatesSumShards(t *testing.T) {
	d, m := buildDomains(t, StrictPolicy{}, DomainConfig{Domains: 3})
	for i := 0; i < 12; i++ {
		if _, err := m.AddProcess(declaredProc("p", pp.MB(3), 1e7)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var want Stats
	for i := 0; i < d.NumDomains(); i++ {
		st := d.shards[i].Stats()
		want.Begins += st.Begins
		want.Ends += st.Ends
		want.Admitted += st.Admitted
		want.Denied += st.Denied
		want.Woken += st.Woken
		want.Safegrds += st.Safegrds
		want.Reclaimed += st.Reclaimed
		want.ReclaimedBytes += st.ReclaimedBytes
		want.Fallbacks += st.Fallbacks
		want.Rejected += st.Rejected
		want.LateEnds += st.LateEnds
		if st.MaxWait > want.MaxWait {
			want.MaxWait = st.MaxWait
		}
	}
	if got := d.Stats(); got != want {
		t.Errorf("aggregate stats %+v != shard sum %+v", got, want)
	}
	st := d.Stats()
	if st.Begins != 12 || st.Ends != 12 {
		t.Fatalf("begins/ends = %d/%d, want 12/12", st.Begins, st.Ends)
	}
	if waitlisted(d) != 0 || d.ActivePeriods() != 0 {
		t.Fatal("registry not empty after run")
	}
	for i := 0; i < d.NumDomains(); i++ {
		if u := d.shards[i].Resources().Usage(pp.ResourceLLC); u != 0 {
			t.Errorf("domain %d load %v after drain, want 0", i, u)
		}
	}
	if len(d.domainOf) != 0 {
		t.Errorf("%d stale routing entries after run", len(d.domainOf))
	}
	if ds := d.DomainStats(); ds.Placements != 12 {
		t.Errorf("placements = %d, want 12 (every period placed once)", ds.Placements)
	}
}

// TestPlaceBestFit drives the placer directly: pack-tight among
// admitting domains, least-loaded fallback, lower index on ties.
func TestPlaceBestFit(t *testing.T) {
	d := mustDomainSet(t, StrictPolicy{}, pp.MB(16), DomainConfig{Domains: 2}) // 8 MB per domain
	dm := func(mb float64) []pp.Demand {
		return []pp.Demand{{Resource: pp.ResourceLLC, WorkingSet: pp.MB(mb), Reuse: pp.ReuseHigh}}
	}
	occupy := func(i int, mb float64) {
		d.shards[i].Resources().Increment(dm(mb)[0])
	}
	if got := d.place(dm(2)); got != 0 {
		t.Errorf("empty set: place(2MB) = %d, want 0 (tie breaks low)", got)
	}
	occupy(0, 5)
	if got := d.place(dm(2)); got != 0 {
		t.Errorf("place(2MB) = %d, want 0 (best fit packs the busier domain)", got)
	}
	if got := d.place(dm(4)); got != 1 {
		t.Errorf("place(4MB) = %d, want 1 (does not fit domain 0)", got)
	}
	occupy(1, 7)
	// 2 MB fits neither (5+2 ok... domain 0 admits), so first check a
	// demand nowhere admits: least-loaded fallback picks domain 0
	// (5/8 < 7/8).
	if got := d.place(dm(6)); got != 0 {
		t.Errorf("place(6MB) = %d, want 0 (least-loaded fallback)", got)
	}
}

// stealWatch records the begin/steal/wake trail of one proc's period.
type stealWatch struct {
	proc    int
	beginAt sim.Time
	steals  []Event
	wakes   []Event
}

func (w *stealWatch) Record(e Event) {
	if e.Proc != w.proc {
		return
	}
	switch e.Kind {
	case EventBegin:
		w.beginAt = e.At
	case EventSteal:
		w.steals = append(w.steals, e)
	case EventWake:
		w.wakes = append(w.wakes, e)
	}
}

// TestStealMigratesAgedWaiter builds the canonical steal scenario: both
// domains full, a waiter parked on one; the other domain drains first
// and the post-wake scan migrates the waiter to it. The migration must
// preserve the wait clock — the wake's Wait spans back to the original
// pp_begin, not to the steal.
func TestStealMigratesAgedWaiter(t *testing.T) {
	d, m := buildDomains(t, StrictPolicy{},
		DomainConfig{Domains: 2, StealAge: 1}) // age bar: one picosecond
	// 15 MB LLC → 7.5 MB per domain. Two 6 MB hogs fill one domain
	// each; the 6 MB waiter fits nowhere until a hog ends.
	if _, err := m.AddProcess(declaredProc("hog-long", pp.MB(6), 4e8)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("hog-short", pp.MB(6), 1e7)); err != nil {
		t.Fatal(err)
	}
	waiter, err := m.AddProcess(declaredProc("waiter", pp.MB(6), 1e7))
	if err != nil {
		t.Fatal(err)
	}
	watch := &stealWatch{proc: waiter.ID()}
	d.AddSink(watch)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ds := d.DomainStats()
	if ds.Steals != 1 {
		t.Fatalf("steals = %d, want 1 (waiter migrated when the short hog drained)", ds.Steals)
	}
	if len(watch.steals) != 1 || len(watch.wakes) != 1 {
		t.Fatalf("event trail: %d steals, %d wakes, want 1 each", len(watch.steals), len(watch.wakes))
	}
	st, wk := watch.steals[0], watch.wakes[0]
	if st.Domain == 0 && wk.Domain == 0 {
		t.Error("steal landed on domain 0 — expected a cross-domain move to be visible")
	}
	if st.Domain != wk.Domain {
		t.Errorf("steal domain %d != wake domain %d", st.Domain, wk.Domain)
	}
	// The wait clock never resets: the wake's Wait measures from the
	// original begin, through the migration.
	if want := wk.At.DurationSince(watch.beginAt); wk.Wait != want {
		t.Errorf("wake Wait = %v, want full wait %v since begin", wk.Wait, want)
	}
	if got := d.Stats().MaxWait; got != wk.Wait {
		t.Errorf("MaxWait = %v, want the waiter's full wait %v", got, wk.Wait)
	}
	if waitlisted(d) != 0 || d.ActivePeriods() != 0 {
		t.Fatal("registry not empty after run")
	}
}

// TestStealDisabled pins the DisableSteal escape hatch: the same
// scenario moves nothing, and the waiter is woken by its own domain
// when the long hog finally ends.
func TestStealDisabled(t *testing.T) {
	d, m := buildDomains(t, StrictPolicy{},
		DomainConfig{Domains: 2, DisableSteal: true})
	for _, spec := range []struct {
		name  string
		instr float64
	}{{"hog-long", 4e8}, {"hog-short", 1e7}, {"waiter", 1e7}} {
		if _, err := m.AddProcess(declaredProc(spec.name, pp.MB(6), spec.instr)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if ds := d.DomainStats(); ds.Steals != 0 {
		t.Fatalf("steals = %d with stealing disabled, want 0", ds.Steals)
	}
	if st := d.Stats(); st.Begins != 3 || st.Ends != 3 {
		t.Fatalf("begins/ends = %d/%d, want 3/3", st.Begins, st.Ends)
	}
}

// TestDomainConfigValidation pins the constructor contract: bad
// configurations return ErrInvalidDomainConfig instead of deferring a
// panic to some later admission path.
func TestDomainConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  DomainConfig
		ok   bool
	}{
		{"zero domains", DomainConfig{Domains: 0}, false},
		{"negative domains", DomainConfig{Domains: -3}, false},
		{"negative steal age", DomainConfig{Domains: 2, StealAge: -1}, false},
		{"one domain", DomainConfig{Domains: 1}, true},
		{"disable steal", DomainConfig{Domains: 2, DisableSteal: true}, true},
		{"explicit age", DomainConfig{Domains: 4, StealAge: sim.Millisecond}, true},
	} {
		d, err := NewDomainSet(StrictPolicy{}, pp.MB(15), tc.cfg)
		if tc.ok {
			if err != nil || d == nil {
				t.Errorf("%s: NewDomainSet failed: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: NewDomainSet accepted %+v", tc.name, tc.cfg)
			continue
		}
		if !errors.Is(err, ErrInvalidDomainConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidDomainConfig", tc.name, err)
		}
	}
}

// TestDomainBoundsChecks pins the introspection accessors on a
// zero-value set: zero values, never a panic.
func TestDomainBoundsChecks(t *testing.T) {
	var empty DomainSet
	if n := empty.NumDomains(); n != 0 {
		t.Errorf("zero-value NumDomains() = %d, want 0", n)
	}
	if st := empty.Stats(); st != (Stats{}) {
		t.Errorf("zero-value Stats() = %+v, want zero", st)
	}
	if n := empty.ActivePeriods(); n != 0 {
		t.Errorf("zero-value ActivePeriods() = %d, want 0", n)
	}
	if ds := empty.DomainStats(); ds.Domains != 0 || len(ds.PerDomain) != 0 {
		t.Errorf("zero-value DomainStats() = %+v, want no domains", ds)
	}
}

// TestStealSkipsOpenBreaker pins the governor-quarantine × steal
// interplay: a waitlisted period whose owner process has an open
// misdeclaration breaker on its shard must not be stolen into admission
// on another shard — the quarantine would be laundered through the
// migration.
func TestStealSkipsOpenBreaker(t *testing.T) {
	d, m := buildDomains(t, StrictPolicy{},
		DomainConfig{Domains: 2, StealAge: 1})
	d.EnableGovernor(DefaultGovernorConfig())
	if _, err := m.AddProcess(declaredProc("hog-long", pp.MB(6), 4e8)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("hog-short", pp.MB(6), 1e7)); err != nil {
		t.Fatal(err)
	}
	waiter, err := m.AddProcess(declaredProc("waiter", pp.MB(6), 1e7))
	if err != nil {
		t.Fatal(err)
	}
	// Trip the waiter's breaker on every shard after it is waitlisted
	// (t=0) but before the short hog drains (~5 ms): by the time the
	// steal pass runs, the owner is quarantined and the otherwise-certain
	// steal must not happen. (Tripping it before the run would
	// quarantine-admit the waiter at pp_begin and never exercise the
	// steal path at all.)
	m.Engine().After(sim.Millisecond, func() {
		for i := 0; i < d.NumDomains(); i++ {
			s := d.shards[i]
			s.gov.breakers = growSlots(s.gov.breakers, waiter.ID())
			s.gov.breakers[waiter.ID()] = &breaker{state: BreakerOpen, openedAt: m.Now()}
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if ds := d.DomainStats(); ds.Steals != 0 {
		t.Fatalf("steals = %d for a circuit-broken owner, want 0", ds.Steals)
	}
	if st := d.Stats(); st.Ends != 3 {
		t.Fatalf("ends = %d, want 3 (the waiter still finishes, on its own shard)", st.Ends)
	}
}

// TestDomainQuiesce checks end-of-run reclamation across shards: every
// registered period is reclaimed in domain order and the set reports
// zero residue afterwards.
func TestDomainQuiesce(t *testing.T) {
	d := mustDomainSet(t, StrictPolicy{}, pp.MB(16), DomainConfig{Domains: 2})
	dm := pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(3), Reuse: pp.ReuseHigh}
	for i := 0; i < 4; i++ {
		key := periodKey{procID: i, phaseIdx: 0}
		di := d.place([]pp.Demand{dm})
		s := d.shards[di]
		per := s.reg.open(key)
		per.demands = append(per.demands, dm)
		per.id = s.allocID()
		d.domainOf[key] = di
		s.admit(per)
	}
	if got := d.ActivePeriods(); got != 4 {
		t.Fatalf("active = %d, want 4", got)
	}
	if got := d.Quiesce(); got != 4 {
		t.Fatalf("Quiesce reclaimed %d, want 4", got)
	}
	for i := 0; i < 2; i++ {
		if u := d.shards[i].Resources().Usage(pp.ResourceLLC); u != 0 {
			t.Errorf("domain %d load %v after Quiesce, want 0", i, u)
		}
	}
}
