package core

import (
	"errors"
	"testing"
	"testing/quick"

	"rdasched/internal/pp"
)

func TestStrictPolicy(t *testing.T) {
	p := StrictPolicy{}
	if p.Name() != "strict" {
		t.Fatalf("name = %q", p.Name())
	}
	if !p.Allows(0, pp.MB(15)) {
		t.Fatal("exact fit denied")
	}
	if !p.Allows(pp.MB(1), pp.MB(15)) {
		t.Fatal("fitting demand denied")
	}
	if p.Allows(-1, pp.MB(15)) {
		t.Fatal("oversubscription allowed")
	}
}

func TestCompromisePolicy(t *testing.T) {
	p := NewCompromise()
	if p.Name() != "compromise" {
		t.Fatalf("name = %q", p.Name())
	}
	if p.Factor != 2 {
		t.Fatalf("factor = %v, want the paper's 2", p.Factor)
	}
	cap := pp.MB(15)
	// Usage may reach 2x capacity: outcome ≥ -capacity.
	if !p.Allows(-cap, cap) {
		t.Fatal("2x oversubscription denied")
	}
	if p.Allows(-cap-1, cap) {
		t.Fatal("beyond 2x allowed")
	}
	if !p.Allows(0, cap) || !p.Allows(cap, cap) {
		t.Fatal("fitting demand denied")
	}
}

func TestCompromiseFactorBelowOneClamped(t *testing.T) {
	p := CompromisePolicy{Factor: 0.5}
	cap := pp.MB(10)
	if p.Allows(-1, cap) {
		t.Fatal("factor < 1 should behave like strict")
	}
	if !p.Allows(0, cap) {
		t.Fatal("exact fit denied")
	}
}

func TestAlwaysPolicy(t *testing.T) {
	p := AlwaysPolicy{}
	if p.Name() != "default" {
		t.Fatalf("name = %q", p.Name())
	}
	if !p.Allows(-pp.GiB, pp.MB(1)) {
		t.Fatal("always policy denied something")
	}
}

func TestPolicyNesting(t *testing.T) {
	// Property: anything strict allows, compromise allows; anything
	// compromise allows, always allows.
	f := func(outcomeMB int16, capMB uint8) bool {
		if capMB == 0 {
			capMB = 1
		}
		outcome := pp.MB(float64(outcomeMB))
		capacity := pp.MB(float64(capMB))
		s := StrictPolicy{}.Allows(outcome, capacity)
		c := NewCompromise().Allows(outcome, capacity)
		a := AlwaysPolicy{}.Allows(outcome, capacity)
		if s && !c {
			return false
		}
		if c && !a {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"strict":     "strict",
		"compromise": "compromise",
		"default":    "default",
		"always":     "default",
	} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Fatalf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestResourceMonitorAccounting(t *testing.T) {
	rm := NewResourceMonitor(pp.MB(15))
	if rm.Capacity(pp.ResourceLLC) != pp.MB(15) {
		t.Fatal("capacity wrong")
	}
	d := pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(6), Reuse: pp.ReuseHigh}
	rm.Increment(d)
	rm.Increment(d)
	if rm.Usage(pp.ResourceLLC) != pp.MB(12) {
		t.Fatalf("usage = %v", rm.Usage(pp.ResourceLLC))
	}
	rm.Decrement(d)
	if rm.Usage(pp.ResourceLLC) != pp.MB(6) {
		t.Fatalf("usage after decrement = %v", rm.Usage(pp.ResourceLLC))
	}
	if rm.Peak(pp.ResourceLLC) != pp.MB(12) {
		t.Fatalf("peak = %v", rm.Peak(pp.ResourceLLC))
	}
}

func TestResourceMonitorUnderflowError(t *testing.T) {
	// Underflow on the external API is a sentinel error, not a panic —
	// untrusted trace replay must be able to survive an End without a
	// Begin. The table is left untouched.
	rm := NewResourceMonitor(pp.MB(15))
	err := rm.Decrement(pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(1), Reuse: pp.ReuseLow})
	if !errors.Is(err, ErrLoadUnderflow) {
		t.Fatalf("underflow error = %v, want ErrLoadUnderflow", err)
	}
	if rm.Usage(pp.ResourceLLC) != 0 {
		t.Fatalf("usage mutated by failed decrement: %v", rm.Usage(pp.ResourceLLC))
	}
}

func TestResourceMonitorInvalidDemandError(t *testing.T) {
	rm := NewResourceMonitor(pp.MB(15))
	bad := pp.Demand{Resource: pp.Resource(99), WorkingSet: 1}
	if err := rm.Increment(bad); !errors.Is(err, ErrInvalidDemand) {
		t.Fatalf("Increment error = %v, want ErrInvalidDemand", err)
	}
	if err := rm.Decrement(bad); !errors.Is(err, ErrInvalidDemand) {
		t.Fatalf("Decrement error = %v, want ErrInvalidDemand", err)
	}
	if rm.Usage(pp.ResourceLLC) != 0 {
		t.Fatal("usage mutated by invalid demand")
	}
}

// TestSchedulerInternalUnderflowPanics pins the dividing line: the same
// underflow reached through the scheduler's *internal* accounting is a
// bug in this package and still panics.
func TestSchedulerInternalUnderflowPanics(t *testing.T) {
	s := New(StrictPolicy{}, pp.MB(15))
	defer func() {
		if recover() == nil {
			t.Fatal("internal underflow did not panic")
		}
	}()
	s.mustDecrement(pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(1), Reuse: pp.ReuseLow})
}

func TestResourceMonitorSetCapacity(t *testing.T) {
	rm := NewResourceMonitor(pp.MB(15))
	rm.SetCapacity(pp.ResourceMemBW, pp.MB(100))
	if rm.Capacity(pp.ResourceMemBW) != pp.MB(100) {
		t.Fatal("SetCapacity did not stick")
	}
}

func TestResourceMonitorConservation(t *testing.T) {
	// Property: after any valid sequence of increments and matching
	// decrements, usage equals the sum of outstanding demands.
	f := func(sizesKB []uint16) bool {
		rm := NewResourceMonitor(pp.GiB)
		var outstanding []pp.Demand
		var want pp.Bytes
		for i, kb := range sizesKB {
			d := pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.Bytes(kb) * pp.KiB, Reuse: pp.ReuseLow}
			if i%3 == 2 && len(outstanding) > 0 {
				last := outstanding[len(outstanding)-1]
				outstanding = outstanding[:len(outstanding)-1]
				rm.Decrement(last)
				want -= last.WorkingSet
			} else {
				rm.Increment(d)
				outstanding = append(outstanding, d)
				want += d.WorkingSet
			}
		}
		return rm.Usage(pp.ResourceLLC) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceMonitorString(t *testing.T) {
	rm := NewResourceMonitor(pp.MB(15))
	if rm.String() == "" {
		t.Fatal("empty string")
	}
}
