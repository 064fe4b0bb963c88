package blame

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"rdasched/internal/core"
	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

func ev(kind core.EventKind, at sim.Time, id pp.ID, prc int, ws pp.Bytes) core.Event {
	return core.Event{At: at, Kind: kind, ID: id, Proc: prc, Demand: pp.Demand{WorkingSet: ws}}
}

// TestAttributionExact pins the fractional split: wait 10 ps over three
// equal-demand blockers is 4+3+3 — floor shares plus the remainder one
// picosecond at a time to the lowest admission IDs.
func TestAttributionExact(t *testing.T) {
	c := NewCollector()
	blockers := []core.Blocker{
		{ID: 1, Proc: 0, Demand: pp.MiB},
		{ID: 2, Proc: 1, Demand: pp.MiB},
		{ID: 3, Proc: 2, Demand: pp.MiB},
	}
	c.Record(ev(core.EventAdmit, 0, 1, 0, pp.MiB))
	c.RecordDeny(ev(core.EventDeny, 5, 9, 7, pp.MiB), blockers)
	c.Record(ev(core.EventWake, 15, 9, 7, pp.MiB))
	c.Finish(20)
	r := c.Report()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if len(r.Periods) != 1 {
		t.Fatalf("got %d periods, want 1", len(r.Periods))
	}
	p := r.Periods[0]
	if p.Wait != 10 || p.Unattributed != 0 {
		t.Fatalf("wait %v unattributed %v, want 10/0", p.Wait, p.Unattributed)
	}
	want := []sim.Duration{4, 3, 3}
	for i, s := range p.Shares {
		if s.Blamed != want[i] {
			t.Errorf("share %d = %v, want %v", i, s.Blamed, want[i])
		}
	}
}

// TestAttributionDemandWeighted pins proportionality: a blocker with
// 3x the demand takes 3x the blame.
func TestAttributionDemandWeighted(t *testing.T) {
	c := NewCollector()
	blockers := []core.Blocker{
		{ID: 1, Proc: 0, Demand: 3 * pp.MiB},
		{ID: 2, Proc: 1, Demand: pp.MiB},
	}
	c.RecordDeny(ev(core.EventDeny, 0, 5, 4, pp.MiB), blockers)
	c.Record(ev(core.EventWake, 400, 5, 4, pp.MiB))
	c.Finish(400)
	p := c.Report().Periods[0]
	if p.Shares[0].Blamed != 300 || p.Shares[1].Blamed != 100 {
		t.Fatalf("shares %v/%v, want 300/100", p.Shares[0].Blamed, p.Shares[1].Blamed)
	}
}

// TestNoBlockersUnattributed: a deny with an empty resident set (demand
// bigger than clean capacity) leaves the whole wait unattributed.
func TestNoBlockersUnattributed(t *testing.T) {
	c := NewCollector()
	c.RecordDeny(ev(core.EventDeny, 0, 1, 0, 99*pp.MiB), nil)
	c.Record(ev(core.EventFallback, 70, 1, 0, 99*pp.MiB))
	c.Finish(100)
	r := c.Report()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	p := r.Periods[0]
	if p.Unattributed != 70 || len(p.Shares) != 0 || p.Outcome != "fallback" {
		t.Fatalf("unattributed %v shares %d outcome %q", p.Unattributed, len(p.Shares), p.Outcome)
	}
	if r.Path.WaitUnattributed != 70 || r.Path.Idle != 30 {
		t.Fatalf("path %+v, want 70 unattributed + 30 idle", r.Path)
	}
}

// TestUnfinishedWaiterClosesAtFinish: waiters still open at Finish
// close with their wait measured to the finish instant.
func TestUnfinishedWaiterClosesAtFinish(t *testing.T) {
	c := NewCollector()
	c.Record(ev(core.EventAdmit, 0, 1, 0, 2*pp.MiB))
	c.RecordDeny(ev(core.EventDeny, 10, 2, 1, pp.MiB),
		[]core.Blocker{{ID: 1, Proc: 0, Demand: 2 * pp.MiB}})
	c.Finish(110)
	r := c.Report()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	p := r.Periods[0]
	if p.Outcome != "unfinished" || p.Wait != 100 || p.Blamed() != 100 {
		t.Fatalf("got %+v, want unfinished wait=100 fully blamed", p)
	}
	// Blocker 1 never ended: the whole makespan is Run.
	if r.Path.Run != 110 || r.Path.Makespan != 110 {
		t.Fatalf("path %+v, want run=makespan=110", r.Path)
	}
}

// TestPathDecomposition walks all four segment classes.
func TestPathDecomposition(t *testing.T) {
	c := NewCollector()
	// [0,10) idle; [10,40) run (30); [40,70) wait-blamed; [70,90)
	// wait-unattributed (the blamed waiter woke and ended, an unblamed
	// one remains); [90,100) idle again.
	c.Record(ev(core.EventAdmit, 10, 1, 0, pp.MiB))
	c.RecordDeny(ev(core.EventDeny, 20, 2, 1, pp.MiB),
		[]core.Blocker{{ID: 1, Proc: 0, Demand: pp.MiB}})
	c.RecordDeny(ev(core.EventDeny, 30, 3, 2, 99*pp.MiB), nil)
	c.Record(ev(core.EventEnd, 40, 1, 0, pp.MiB))
	c.Record(ev(core.EventWake, 70, 2, 1, pp.MiB))
	c.Record(ev(core.EventEnd, 70, 2, 1, pp.MiB))
	c.Record(ev(core.EventFallback, 90, 3, 2, 99*pp.MiB))
	c.Finish(100)
	r := c.Report()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	want := Path{Run: 30, WaitBlamed: 30, WaitUnattributed: 20, Idle: 20, Makespan: 100}
	if r.Path != want {
		t.Fatalf("path %+v, want %+v", r.Path, want)
	}
}

// TestMerge folds two reports and re-checks conservation and matrix
// aggregation.
func TestMerge(t *testing.T) {
	mk := func(blockerProc int) *Report {
		c := NewCollector()
		c.Record(ev(core.EventAdmit, 0, 1, blockerProc, pp.MiB))
		c.RecordDeny(ev(core.EventDeny, 0, 2, 9, pp.MiB),
			[]core.Blocker{{ID: 1, Proc: blockerProc, Demand: pp.MiB}})
		c.Record(ev(core.EventWake, 50, 2, 9, pp.MiB))
		c.Finish(50)
		return c.Report()
	}
	var agg Report
	agg.Merge(mk(0))
	agg.Merge(mk(0))
	agg.Merge(mk(3))
	if err := agg.Check(); err != nil {
		t.Fatal(err)
	}
	if agg.TotalWait != 150 || len(agg.Matrix) != 2 {
		t.Fatalf("total %v matrix %v", agg.TotalWait, agg.Matrix)
	}
	if agg.Matrix[0].Blamed != 100 || agg.Matrix[1].Blamed != 50 {
		t.Fatalf("matrix %v, want 100 from proc0 and 50 from proc3", agg.Matrix)
	}
	if agg.Path.Makespan != 150 {
		t.Fatalf("merged makespan %v, want 150", agg.Path.Makespan)
	}
}

// contendedWorkload puts two 9 MiB hogs and two small processes on the
// 15 MiB LLC so strict admission must waitlist somebody.
func contendedWorkload() proc.Workload {
	hog := proc.Phase{
		Name: "hog", Instr: 4e6, WSS: 9 * pp.MiB, Reuse: pp.ReuseHigh,
		AccessesPerInstr: 0.3, PrivateHitFrac: 0.6, Declared: true,
	}
	small := proc.Phase{
		Name: "small", Instr: 2e6, WSS: 2 * pp.MiB, Reuse: pp.ReuseMed,
		AccessesPerInstr: 0.3, PrivateHitFrac: 0.7, Declared: true,
	}
	w := proc.Workload{Name: "contended"}
	for i := 0; i < 2; i++ {
		w.Procs = append(w.Procs, proc.Spec{Name: "hog", Threads: 2, Program: proc.Program{hog}})
	}
	for i := 0; i < 2; i++ {
		w.Procs = append(w.Procs, proc.Spec{Name: "small", Threads: 1, Program: proc.Program{small}})
	}
	return w
}

// runCollector drives a workload through the real scheduler with a
// Collector attached and returns the checked report.
func runCollector(t *testing.T, w proc.Workload) *Report {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.MaxSimTime = 600 * sim.Second
	s := core.New(core.StrictPolicy{}, cfg.LLCCapacity)
	m := machine.New(cfg, s)
	s.SetWaker(m)
	s.SetClock(m.Now)
	s.SetTimer(m.Engine())
	c := NewCollector()
	s.AddSink(c)
	if err := m.AddWorkload(w); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s.Quiesce()
	c.Finish(m.Now())
	r := c.Report()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCollectorOnScheduler is the end-to-end smoke: real contention,
// real decision stream, exact conservation, non-trivial matrix.
func TestCollectorOnScheduler(t *testing.T) {
	r := runCollector(t, contendedWorkload())
	if r.Denies == 0 || len(r.Periods) == 0 {
		t.Fatalf("contended workload produced no denies (report %+v)", r)
	}
	if r.TotalBlamed == 0 {
		t.Fatal("contention produced no blamed wait")
	}
	if len(r.Matrix) == 0 {
		t.Fatal("empty interference matrix under contention")
	}
	if r.Path.Makespan == 0 || r.Path.Run == 0 {
		t.Fatalf("degenerate path %+v", r.Path)
	}
}

// TestCollectorDeterminism: two identical runs produce deeply equal
// reports — the property that makes e8.golden byte-stable.
func TestCollectorDeterminism(t *testing.T) {
	a := runCollector(t, contendedWorkload())
	b := runCollector(t, contendedWorkload())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reruns diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// randomWorkload mirrors the core fuzz generator: arbitrary-but-valid
// mixes of declared/undeclared phases, barriers, and task pools.
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

// checkBlameInvariants drives one random workload through the full
// stack with a blame collector attached and verifies, for any input:
//
//  1. the run completes;
//  2. conservation: Σ shares + unattributed = wait, per period and in
//     total, matrix sum = total blamed, path classes sum to makespan;
//  3. the report is identical across a rerun (determinism);
//  4. the matrix equals the timeline's shares summed by (blocker
//     process, waiter process) through a map and sorted, the oracle
//     for the collector's dense table.
//
// Shared by the quick.Check sweep and FuzzBlameInvariants.
func checkBlameInvariants(seed uint64, polIdx uint8) error {
	policies := []core.Policy{core.StrictPolicy{}, core.NewCompromise(), core.AlwaysPolicy{}}
	pol := policies[int(polIdx)%len(policies)]
	run := func() (*Report, error) {
		w := randomWorkload(seed, 8)
		cfg := machine.DefaultConfig()
		cfg.MaxSimTime = 600 * sim.Second
		s := core.New(pol, cfg.LLCCapacity)
		m := machine.New(cfg, s)
		s.SetWaker(m)
		s.SetClock(m.Now)
		s.SetTimer(m.Engine())
		c := NewCollector()
		s.AddSink(c)
		if err := m.AddWorkload(w); err != nil {
			return nil, fmt.Errorf("seed %d: invalid workload: %v", seed, err)
		}
		if _, err := m.Run(); err != nil {
			return nil, fmt.Errorf("seed %d policy %s: %v", seed, pol.Name(), err)
		}
		s.Quiesce()
		c.Finish(m.Now())
		return c.Report(), nil
	}
	a, err := run()
	if err != nil {
		return err
	}
	if err := a.Check(); err != nil {
		return fmt.Errorf("seed %d policy %s: %v", seed, pol.Name(), err)
	}
	var shares []MatrixCell
	for _, p := range a.Periods {
		for _, s := range p.Shares {
			shares = append(shares, MatrixCell{BlockerProc: s.BlockerProc, WaiterProc: p.Proc, Blamed: s.Blamed})
		}
	}
	if want := oracleMergeMatrix(shares, nil); !reflect.DeepEqual(a.Matrix, want) {
		return fmt.Errorf("seed %d policy %s: matrix\n%v\nbut the shares sum to\n%v", seed, pol.Name(), a.Matrix, want)
	}
	b, err := run()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("seed %d policy %s: blame reports diverged across reruns", seed, pol.Name())
	}
	return nil
}

// TestFuzzBlameInvariants is the quick.Check sweep; FuzzBlameInvariants
// explores further from the committed corpus under `make fuzz`.
func TestFuzzBlameInvariants(t *testing.T) {
	f := func(seed uint64, polIdx uint8) bool {
		if err := checkBlameInvariants(seed, polIdx); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBlameInvariants is the native fuzz entry point for conservation
// and determinism of the attribution engine.
func FuzzBlameInvariants(f *testing.F) {
	for _, c := range [][2]uint64{
		{0, 0}, {1, 1}, {2, 2}, {1337, 0}, {^uint64(0), 1},
	} {
		f.Add(c[0], uint8(c[1]))
	}
	f.Fuzz(func(t *testing.T, seed uint64, polIdx uint8) {
		if err := checkBlameInvariants(seed, polIdx); err != nil {
			t.Error(err)
		}
	})
}
