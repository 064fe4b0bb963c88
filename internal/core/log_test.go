package core

import (
	"testing"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
)

func mkEvent(i int) Event {
	return Event{
		At: sim.Time(i) * sim.Time(sim.Millisecond), Kind: EventAdmit,
		ID: pp.ID(i), Proc: i, Phase: 0,
		Demand: pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(1), Reuse: pp.ReuseHigh},
	}
}

// TestEventRingWraparound drives the ring sink through fill, wrap, and
// drain, asserting oldest-first order and the drop count.
func TestEventRingWraparound(t *testing.T) {
	r := NewEventRing(4)
	for i := 0; i < 10; i++ {
		r.Record(mkEvent(i))
	}
	if got := r.Drops(); got != 6 {
		t.Fatalf("drops = %d, want 6", got)
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("len = %d, want 4", len(events))
	}
	for i, e := range events {
		if want := pp.ID(6 + i); e.ID != want {
			t.Fatalf("events[%d].ID = %d, want %d (oldest first)", i, e.ID, want)
		}
	}
	// A partially filled ring returns only what it holds, in order.
	r2 := NewEventRing(8)
	for i := 0; i < 3; i++ {
		r2.Record(mkEvent(i))
	}
	if got := len(r2.Events()); got != 3 {
		t.Fatalf("partial ring len = %d, want 3", got)
	}
	if r2.Drops() != 0 {
		t.Fatalf("partial ring drops = %d, want 0", r2.Drops())
	}
}

// recordingSink collects every event it is handed.
type recordingSink struct {
	events []Event
}

func (r *recordingSink) Record(e Event) { r.events = append(r.events, e) }

// TestSinkFanOut subscribes an external sink alongside a ring and
// checks both see the same stream.
func TestSinkFanOut(t *testing.T) {
	s, m := build(t, StrictPolicy{})
	s.SetClock(m.Now)
	ring := NewEventRing(1024)
	s.AddSink(ring)
	var rec recordingSink
	s.AddSink(&rec)
	for i := 0; i < 4; i++ {
		if _, err := m.AddProcess(declaredProc("p", pp.MB(4), 1e7)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ringEvents := ring.Events()
	if dropped := ring.Drops(); dropped != 0 {
		t.Fatalf("dropped %d with a roomy ring", dropped)
	}
	if len(rec.events) == 0 || len(rec.events) != len(ringEvents) {
		t.Fatalf("sink saw %d events, ring %d", len(rec.events), len(ringEvents))
	}
	for i := range rec.events {
		if rec.events[i] != ringEvents[i] {
			t.Fatalf("event %d diverges between sinks:\n%v\n%v", i, rec.events[i], ringEvents[i])
		}
	}
	// Every period-opening event carries a nonzero admission ID.
	for _, e := range rec.events {
		if e.Kind == EventBegin && e.ID == 0 {
			t.Fatalf("begin event without period ID: %v", e)
		}
	}
}

// TestDisabledEmitZeroAllocs pins the disabled-path cost: with no sinks
// and no metrics registry, publishing a decision must allocate nothing.
func TestDisabledEmitZeroAllocs(t *testing.T) {
	s := New(StrictPolicy{}, pp.MB(15))
	key := periodKey{procID: 1, phaseIdx: 0}
	d := pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(1), Reuse: pp.ReuseHigh}
	allocs := testing.AllocsPerRun(1000, func() {
		s.emit(EventBegin, nil, key, d)
	})
	if allocs != 0 {
		t.Fatalf("disabled emit allocates %.1f per event, want 0", allocs)
	}
}

// TestSchedulerMetrics runs a contended mix with a registry bound and
// checks the sampled histograms and published counters line up with
// Stats.
func TestSchedulerMetrics(t *testing.T) {
	s, m := build(t, StrictPolicy{})
	s.SetClock(m.Now)
	reg := telemetry.NewRegistry()
	s.SetMetrics(reg)
	for i := 0; i < 6; i++ {
		if _, err := m.AddProcess(declaredProc("p", pp.MB(4), 1e7)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s.PublishStats(reg)

	st := s.Stats()
	if got := reg.Counter(MetricBegins).Value(); got != st.Begins {
		t.Fatalf("%s = %d, want %d", MetricBegins, got, st.Begins)
	}
	if got := reg.Counter(MetricAdmitted).Value(); got != st.Admitted {
		t.Fatalf("%s = %d, want %d", MetricAdmitted, got, st.Admitted)
	}
	if got := reg.Counter(MetricDenied).Value(); got != st.Denied {
		t.Fatalf("%s = %d, want %d", MetricDenied, got, st.Denied)
	}

	waits := reg.Histogram(MetricWaitSeconds)
	if waits.Count() != st.Admitted {
		t.Fatalf("wait histogram count = %d, want one observation per admission (%d)",
			waits.Count(), st.Admitted)
	}
	if st.Denied > 0 && waits.Max() <= 0 {
		t.Fatal("denied periods waited, but wait histogram max is 0")
	}
	if waits.Max() > st.MaxWait.Seconds()+1e-12 {
		t.Fatalf("wait histogram max %v exceeds Stats.MaxWait %v", waits.Max(), st.MaxWait.Seconds())
	}
	periods := reg.Histogram(MetricPeriodSeconds)
	if periods.Count() != st.Ends {
		t.Fatalf("period histogram count = %d, want one per end (%d)", periods.Count(), st.Ends)
	}
	if periods.Min() <= 0 {
		t.Fatal("period length histogram has non-positive minimum")
	}
	occ := reg.Histogram(MetricOccupancyBytes)
	depth := reg.Histogram(MetricWaitlistDepth)
	if occ.Count() == 0 || occ.Count() != depth.Count() {
		t.Fatalf("occupancy/depth sampled %d/%d times", occ.Count(), depth.Count())
	}
	if st.Denied > 0 && depth.Max() == 0 {
		t.Fatal("waitlist depth never observed above zero despite denials")
	}
}
