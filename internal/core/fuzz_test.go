package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// randomWorkload derives an arbitrary-but-valid workload from fuzz input:
// up to maxProcs processes with 1–4 threads, 1–4 phases each, working
// sets up to ~2x the LLC, mixed declared/undeclared phases, occasional
// barriers and task pools.
func randomWorkload(seed uint64, maxProcs int) proc.Workload {
	rng := sim.NewRNG(seed)
	n := 1 + rng.Intn(maxProcs)
	w := proc.Workload{Name: "fuzz"}
	for p := 0; p < n; p++ {
		threads := 1 + rng.Intn(4)
		phases := 1 + rng.Intn(4)
		var prog proc.Program
		for q := 0; q < phases; q++ {
			ph := proc.Phase{
				Name:             "ph",
				Instr:            float64(1+rng.Intn(20)) * 1e5,
				WSS:              pp.Bytes(1+rng.Intn(30)) * pp.MiB,
				Reuse:            pp.Reuse(rng.Intn(3)),
				AccessesPerInstr: 0.1 + 0.4*rng.Float64(),
				PrivateHitFrac:   0.5 + 0.4*rng.Float64(),
				StreamFrac:       rng.Float64(),
				FlopsPerInstr:    rng.Float64(),
				Declared:         rng.Intn(3) != 0,
				BarrierAfter:     rng.Intn(4) == 0,
			}
			if rng.Intn(8) == 0 {
				ph.CachePartition = pp.Bytes(1+rng.Intn(4)) * pp.MiB
			}
			prog = append(prog, ph)
		}
		w.Procs = append(w.Procs, proc.Spec{
			Name:     "fz",
			Threads:  threads,
			Program:  prog,
			TaskPool: rng.Intn(4) == 0,
		})
	}
	return w
}

// checkSchedulerInvariants drives one random workload through the full
// machine+scheduler stack and returns an error describing the first
// violated invariant. The invariants must hold regardless of input:
//
//  1. the run completes (no starvation, no stall, no panic);
//  2. every opened period closes, and the load table returns to zero;
//  3. the registry and waitlist drain;
//  4. under strict, peak load never exceeds capacity except through the
//     documented empty-load safeguard;
//  5. instruction totals equal the workload's intrinsic work.
//
// It is shared by the quick.Check regression test and the native fuzz
// target, so CI fuzzing and `go test` exercise the same predicate.
func checkSchedulerInvariants(seed uint64, polIdx uint8) error {
	policies := []Policy{StrictPolicy{}, NewCompromise(), AlwaysPolicy{}}
	pol := policies[int(polIdx)%len(policies)]
	w := randomWorkload(seed, 8)

	cfg := machine.DefaultConfig()
	cfg.MaxSimTime = 600 * sim.Second
	s := New(pol, cfg.LLCCapacity)
	m := machine.New(cfg, s)
	bind(s, m)
	if err := m.AddWorkload(w); err != nil {
		return fmt.Errorf("seed %d: invalid workload: %v", seed, err)
	}
	res, err := m.Run()
	if err != nil {
		return fmt.Errorf("seed %d policy %s: %v", seed, pol.Name(), err)
	}
	st := s.Stats()
	if st.Begins != st.Ends {
		return fmt.Errorf("seed %d: %d begins vs %d ends", seed, st.Begins, st.Ends)
	}
	if s.Resources().Usage(pp.ResourceLLC) != 0 {
		return fmt.Errorf("seed %d: leftover load %v", seed, s.Resources().Usage(pp.ResourceLLC))
	}
	if s.Waitlisted() != 0 || s.ActivePeriods() != 0 {
		return fmt.Errorf("seed %d: registry not drained", seed)
	}
	if _, ok := pol.(StrictPolicy); ok && st.Safegrds == 0 {
		if peak := s.Resources().Peak(pp.ResourceLLC); peak > cfg.LLCCapacity {
			return fmt.Errorf("seed %d: strict peak %v over capacity without safeguard", seed, peak)
		}
	}
	// Work conservation: executed instructions equal the program sums
	// (the boundary overhead is stall, not instructions).
	var want float64
	for _, spec := range w.Procs {
		want += float64(spec.Threads) * spec.Program.TotalInstr()
	}
	if diff := res.Counters.Instructions - want; diff < -1 || diff > 1 {
		return fmt.Errorf("seed %d: executed %v instructions, want %v", seed, res.Counters.Instructions, want)
	}
	return nil
}

// checkDeterminism re-runs one random workload and demands bit-identical
// counters.
func checkDeterminism(seed uint64) error {
	run := func() (machine.Counters, error) {
		w := randomWorkload(seed, 6)
		cfg := machine.DefaultConfig()
		cfg.MaxSimTime = 600 * sim.Second
		s := New(StrictPolicy{}, cfg.LLCCapacity)
		m := machine.New(cfg, s)
		bind(s, m)
		if err := m.AddWorkload(w); err != nil {
			return machine.Counters{}, err
		}
		res, err := m.Run()
		if err != nil {
			return machine.Counters{}, err
		}
		return res.Counters, nil
	}
	a, err := run()
	if err != nil {
		return fmt.Errorf("seed %d: %v", seed, err)
	}
	b, err := run()
	if err != nil {
		return fmt.Errorf("seed %d: %v", seed, err)
	}
	if a != b {
		return fmt.Errorf("seed %d: reruns diverged: %+v vs %+v", seed, a, b)
	}
	return nil
}

// TestFuzzSchedulerInvariants is the quick.Check sweep over random
// seeds; FuzzSchedulerInvariants explores further from the committed
// corpus under `make fuzz` / CI.
func TestFuzzSchedulerInvariants(t *testing.T) {
	f := func(seed uint64, polIdx uint8) bool {
		if err := checkSchedulerInvariants(seed, polIdx); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzDeterminism re-runs random workloads and demands bit-identical
// results.
func TestFuzzDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		if err := checkDeterminism(seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSchedulerInvariants is the native fuzz entry point; the committed
// corpus under testdata/fuzz seeds it with one input per policy plus
// boundary seeds (0 and MaxUint64).
func FuzzSchedulerInvariants(f *testing.F) {
	for _, c := range [][2]uint64{
		{0, 0}, {1, 1}, {2, 2}, {1337, 0}, {^uint64(0), 1},
	} {
		f.Add(c[0], uint8(c[1]))
	}
	f.Fuzz(func(t *testing.T, seed uint64, polIdx uint8) {
		if err := checkSchedulerInvariants(seed, polIdx); err != nil {
			t.Error(err)
		}
	})
}

// FuzzDeterminism is the native fuzz entry point for the bit-identical
// rerun property.
func FuzzDeterminism(f *testing.F) {
	for _, seed := range []uint64{0, 1, 42, 1337, ^uint64(0)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := checkDeterminism(seed); err != nil {
			t.Error(err)
		}
	})
}
