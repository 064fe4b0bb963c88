package core

import (
	"testing"

	"rdasched/internal/pp"
	"rdasched/internal/proc"
)

func TestSetReserveAffectsAdmission(t *testing.T) {
	s := New(StrictPolicy{}, pp.MB(15))
	d := pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(12), Reuse: pp.ReuseHigh}
	if run, _ := s.TrySchedule(d); !run {
		t.Fatal("12 MB denied on empty 15 MB cache")
	}
	s.SetReserve(pp.MB(5))
	if s.reserve != pp.MB(5) {
		t.Fatal("reserve not recorded")
	}
	// Now only 10 MB is schedulable... but the empty-load safeguard still
	// admits a lone oversized period.
	run, safeguard := s.TrySchedule(d)
	if !run || !safeguard {
		t.Fatalf("12 MB against 10 MB effective on idle cache: run=%v safeguard=%v, want safeguard admit", run, safeguard)
	}
	// With any load present, the reserve bites.
	s.rm.Increment(pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(1), Reuse: pp.ReuseLow})
	if run, _ := s.TrySchedule(d); run {
		t.Fatal("12 MB admitted past a 5 MB reserve with load present")
	}
	small := pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(8), Reuse: pp.ReuseHigh}
	if run, _ := s.TrySchedule(small); !run {
		t.Fatal("8 MB denied though 9 MB effective space remains")
	}
}

func TestSetReservePanicsOutOfRange(t *testing.T) {
	s := New(StrictPolicy{}, pp.MB(15))
	for _, b := range []pp.Bytes{-1, pp.MB(16)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("reserve %v accepted", b)
				}
			}()
			s.SetReserve(b)
		}()
	}
}

func TestPartitionedDemandCharged(t *testing.T) {
	// A phase with a partition declares only the partition to the
	// resource monitor, so over-LLC streamers no longer need the
	// safeguard and no longer starve the waitlist.
	s, m := build(t, StrictPolicy{})
	streamPh := proc.Phase{
		Name: "stream", Instr: 1e7, WSS: pp.MB(24), Reuse: pp.ReuseLow,
		AccessesPerInstr: 0.4, PrivateHitFrac: 0.875, StreamFrac: 1,
		FlopsPerInstr: 0.2, Declared: true, CachePartition: pp.MB(0.5),
	}
	for i := 0; i < 4; i++ {
		if _, err := m.AddProcess(proc.Spec{Name: "s", Threads: 1, Program: proc.Program{streamPh}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Denied != 0 {
		t.Fatalf("partitioned streamers denied: %+v", st)
	}
	if st.Safegrds != 0 {
		t.Fatalf("safeguard used despite partitions: %+v", st)
	}
	if peak := s.Resources().Peak(pp.ResourceLLC); peak != pp.MB(2) {
		t.Fatalf("peak load = %v, want 4 × 0.5 MB partitions", peak)
	}
}

func TestMultiResourceAdmission(t *testing.T) {
	// Periods declaring both LLC and bandwidth demands are gated on both
	// resources: with 14 GB/s of bandwidth capacity and 5 GB/s demands,
	// only two fit despite trivial LLC demands.
	s, m := build(t, StrictPolicy{})
	s.Resources().SetCapacity(pp.ResourceMemBW, pp.Bytes(14e9))
	ph := proc.Phase{
		Name: "stream", Instr: 1e7, WSS: pp.MB(0.5), Reuse: pp.ReuseLow,
		AccessesPerInstr: 0.5, PrivateHitFrac: 0.75, StreamFrac: 1,
		FlopsPerInstr: 0.3, Declared: true, BWDemand: 5e9,
	}
	for i := 0; i < 6; i++ {
		if _, err := m.AddProcess(proc.Spec{Name: "s", Threads: 1, Program: proc.Program{ph}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Denied == 0 {
		t.Fatal("bandwidth demands never denied anything")
	}
	if peak := s.Resources().Peak(pp.ResourceMemBW); peak > pp.Bytes(14e9) {
		t.Fatalf("bandwidth peak %v over capacity", peak)
	}
	if peak := s.Resources().Peak(pp.ResourceMemBW); peak != pp.Bytes(10e9) {
		t.Fatalf("bandwidth peak %v, want 2 × 5 GB/s", peak)
	}
	if s.Resources().Usage(pp.ResourceMemBW) != 0 {
		t.Fatal("bandwidth load not released")
	}
}

func TestDecisionLog(t *testing.T) {
	s, m := build(t, StrictPolicy{})
	s.SetClock(m.Now)
	ring := NewEventRing(1024)
	s.AddSink(ring)
	for i := 0; i < 6; i++ {
		if _, err := m.AddProcess(declaredProc("p", pp.MB(4), 1e7)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	events := ring.Events()
	if dropped := ring.Drops(); dropped != 0 {
		t.Fatalf("dropped %d events with roomy ring", dropped)
	}
	counts := map[EventKind]int{}
	for _, e := range events {
		counts[e.Kind]++
		if e.Load < 0 {
			t.Fatal("negative load in event")
		}
		if e.String() == "" {
			t.Fatal("empty event string")
		}
	}
	if counts[EventBegin] != 6 || counts[EventEnd] != 6 {
		t.Fatalf("begin/end = %d/%d, want 6/6", counts[EventBegin], counts[EventEnd])
	}
	if counts[EventDeny] == 0 || counts[EventWake] == 0 {
		t.Fatalf("no deny/wake events for an over-capacity mix: %v", counts)
	}
	if counts[EventAdmit]+counts[EventWake] != 6 {
		t.Fatalf("admissions %d + wakes %d != 6 periods", counts[EventAdmit], counts[EventWake])
	}
	// Timestamps are monotone.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("event timestamps not monotone")
		}
	}
}

func TestDecisionLogRing(t *testing.T) {
	s, m := build(t, StrictPolicy{})
	ring := NewEventRing(4) // tiny ring: must drop and keep the most recent
	s.AddSink(ring)
	for i := 0; i < 8; i++ {
		if _, err := m.AddProcess(declaredProc("p", pp.MB(1), 1e6)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	events := ring.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d, want 4", len(events))
	}
	if ring.Drops() == 0 {
		t.Fatal("no drops despite overflow")
	}
	// The retained events are the last ones: all should be ends (the run
	// finishes with a burst of period completions).
	last := events[len(events)-1]
	if last.Kind != EventEnd {
		t.Fatalf("last event = %v, want end", last.Kind)
	}
}

// TestDecisionLogDisabled pins the disabled decision log: AddSink(nil)
// subscribes nothing, so the run keeps the sink-free path (a nil sink
// would panic on the first decision), and a ring subscribed after the
// run holds none of its decisions.
func TestDecisionLogDisabled(t *testing.T) {
	s, m := build(t, StrictPolicy{})
	s.AddSink(nil)
	if len(s.sinks) != 0 {
		t.Fatalf("AddSink(nil) subscribed %d sinks", len(s.sinks))
	}
	if _, err := m.AddProcess(declaredProc("p", pp.MB(1), 1e6)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ring := NewEventRing(8)
	s.AddSink(ring)
	if events := ring.Events(); len(events) != 0 || ring.Drops() != 0 {
		t.Fatalf("a ring subscribed after the run holds %d events, %d dropped", len(events), ring.Drops())
	}
}
