package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps, want 1e12", int64(Second))
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %d, want %d", got, 1500*Millisecond)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v, want 2", got)
	}
}

func TestTimeAddSaturates(t *testing.T) {
	if got := MaxTime.Add(Duration(5)); got != MaxTime {
		t.Fatalf("MaxTime.Add = %v, want MaxTime", got)
	}
	if got := Time(10).Add(Duration(5)); got != 15 {
		t.Fatalf("Add = %v, want 15", got)
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events fired out of scheduling order: %v", order)
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine(1)
	var hits []Time
	e.After(5, func() {
		hits = append(hits, e.Now())
		e.After(7, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 5 || hits[1] != 12 {
		t.Fatalf("hits = %v, want [5 12]", hits)
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		e.At(50, func() {
			if e.Now() != 100 {
				t.Errorf("past event fired at %v, want clock held at 100", e.Now())
			}
		})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event does not report cancelled")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var evs []*Event
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, e.At(Time(i*10), func() { got = append(got, i) }))
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	for _, v := range got {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 8 {
		t.Fatalf("fired %d events, want 8", len(got))
	}
}

// TestEngineRearm checks that re-arming one timer fires in exactly the
// order Cancel followed by After gives, whether the timer is pending,
// fired or cancelled, and that it allocates nothing.
func TestEngineRearm(t *testing.T) {
	var want, got []string
	log := func(l *[]string, e *Engine, s string) func() {
		return func() { *l = append(*l, fmt.Sprintf("%s@%d", s, e.Now())) }
	}
	// Reference: a fresh event per (re)schedule.
	ref := NewEngine(1)
	var cur *Event
	arm := func(d Duration) {
		ref.Cancel(cur)
		cur = ref.After(d, log(&want, ref, "timer"))
	}
	ref.At(0, func() { arm(20); ref.After(20, log(&want, ref, "peer")) })
	ref.At(5, func() { arm(15) })  // move while pending, ties the peer
	ref.At(30, func() { arm(10) }) // re-arm after it fired
	ref.At(35, func() { ref.Cancel(cur); arm(5) })
	ref.Run()

	e := NewEngine(1)
	tm := e.NewTimer(log(&got, e, "timer"))
	if tm.When() != 0 || e.Pending() != 0 {
		t.Fatal("NewTimer scheduled its event")
	}
	e.At(0, func() { e.Rearm(tm, 20); e.After(20, log(&got, e, "peer")) })
	e.At(5, func() { e.Rearm(tm, 15) })
	e.At(30, func() { e.Rearm(tm, 10) })
	e.At(35, func() { e.Cancel(tm); e.Rearm(tm, 5) })
	e.Run()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rearmed timer fired %v, fresh events %v", got, want)
	}

	e = NewEngine(1)
	tm = e.NewTimer(func() {})
	e.After(1, func() {})
	next := e.seq
	e.Rearm(tm, 1)
	if tm.seq != next || e.seq != next+1 {
		t.Fatalf("Rearm took sequence %d and left %d, want %d and %d", tm.seq, e.seq, next, next+1)
	}
	if n := testing.AllocsPerRun(100, func() { e.Rearm(tm, 1); e.Step() }); n != 0 {
		t.Fatalf("Rearm+Step allocates %v times", n)
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("fired %d events after halt, want 3", count)
	}
	if !e.Halted() {
		t.Fatal("engine does not report halted")
	}
}

// Property: however events are scheduled, they fire in non-decreasing time
// order and the clock never rewinds.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16, seed uint64) bool {
		e := NewEngine(seed)
		var fired []Time
		for _, raw := range times {
			at := Time(raw)
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(9)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		// Expected 10000 per bucket; allow ±10%.
		if c < 9000 || c > 11000 {
			t.Fatalf("bucket %d has %d draws, expected ~10000", i, c)
		}
	}
}

func TestRNGPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%97), func() {})
		e.Step()
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func TestAccessors(t *testing.T) {
	e := NewEngine(5)
	ev := e.At(42, func() {})
	if ev.When() != 42 {
		t.Fatalf("When = %v", ev.When())
	}
	e.Run()
	if e.Fired() != 1 {
		t.Fatalf("Fired = %d", e.Fired())
	}
	if got := Time(3 * Second).String(); got != "3.000000000s" {
		t.Fatalf("String = %q", got)
	}
	if got := Time(5 * Second).DurationSince(Time(2 * Second)); got != 3*Second {
		t.Fatalf("DurationSince = %v", got)
	}
	if (2 * Second).Seconds() != 2 {
		t.Fatal("Duration.Seconds wrong")
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.After(-5, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 0 {
		t.Fatalf("negative After: fired=%v now=%v", fired, e.Now())
	}
}

func TestUint64nAndFork(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(7); v >= 7 {
			t.Fatalf("Uint64n out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	r.Uint64n(0)
}
