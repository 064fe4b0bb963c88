package machine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// fullScan is the machine's rate model recomputed the way reschedule
// computed it before the ready set and the pressure ledger existed: a
// scan of every thread, a fresh (process, phase) map for the LLC
// pressure, the core share from the scan's own count, and residency^γ
// per thread. It is the test oracle for the incremental state.
type fullScan struct {
	ready    []*Thread
	pressure pp.Bytes
	busy     float64
	rates    []float64
	llc      []float64
	dram     []float64
	next     float64 // seconds from the last update to the next completion
}

func scanAll(m *Machine) fullScan {
	var s fullScan
	type key struct{ proc, phase int }
	seen := make(map[key]struct{})
	for _, t := range m.threads {
		if t.state != Ready {
			continue
		}
		s.ready = append(s.ready, t)
		k := key{t.proc.id, t.PhaseIndex()}
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		s.pressure += t.CurrentPhase().OccupancyBytes()
	}
	if len(s.ready) == 0 {
		return s
	}
	residency := 1.0
	if s.pressure > m.cfg.LLCCapacity {
		residency = float64(m.cfg.LLCCapacity) / float64(s.pressure)
	}

	share := math.Min(1, float64(m.cfg.Cores)/float64(len(s.ready)))
	for range s.ready {
		s.busy += share
	}
	s.busy = math.Min(s.busy, float64(m.cfg.Cores))

	var traffic float64
	for _, t := range s.ready {
		perf := m.phasePerf(t.CurrentPhase(), math.Pow(residency, m.cfg.ResidencyExponent))
		rate := share * m.cfg.FreqHz / perf.cpi
		traffic += rate * perf.dramPerInstr * float64(m.cfg.LineSize)
		s.rates = append(s.rates, rate)
		s.llc = append(s.llc, perf.llcPerInstr)
		s.dram = append(s.dram, perf.dramPerInstr)
	}
	if traffic > m.cfg.MemBandwidth {
		scale := m.cfg.MemBandwidth / traffic
		for i := range s.rates {
			s.rates[i] *= scale
		}
	}
	s.next = math.Inf(1)
	for i, t := range s.ready {
		if dt := (t.remaining + t.penalty) / s.rates[i]; dt < s.next {
			s.next = dt
		}
	}
	return s
}

// checkOracle compares the machine's incremental state with a full scan:
// ready set, pressure, busy cores, rates and the next completion.
// It holds between events, where the state reschedule cached is current.
func checkOracle(m *Machine) error {
	s := scanAll(m)
	if len(s.ready) != len(m.ready) {
		return fmt.Errorf("ready set has %d threads, scan finds %d", len(m.ready), len(s.ready))
	}
	for i, t := range s.ready {
		if m.ready[i] != t {
			return fmt.Errorf("ready[%d] is thread %d, scan finds thread %d", i, m.ready[i].id, t.id)
		}
	}
	if s.pressure != m.pressure {
		return fmt.Errorf("ledger pressure %v, scan %v", m.pressure, s.pressure)
	}
	if len(s.ready) == 0 {
		if !m.completion.Cancelled() {
			return fmt.Errorf("completion event queued with no ready thread")
		}
		return nil
	}
	if s.busy != m.busyCores {
		return fmt.Errorf("busy cores %v, scan %v", m.busyCores, s.busy)
	}
	for i, t := range s.ready {
		if t.rate != s.rates[i] || t.llcPerInstr != s.llc[i] || t.dramPerInstr != s.dram[i] {
			return fmt.Errorf("thread %d rate/llc/dram %v/%v/%v, scan %v/%v/%v", t.id,
				t.rate, t.llcPerInstr, t.dramPerInstr, s.rates[i], s.llc[i], s.dram[i])
		}
	}
	d := sim.Duration(math.Ceil(s.next * 1e12))
	if d < 1 {
		d = 1
	}
	if want := m.lastUpdate.Add(d); m.completion.Cancelled() || m.completion.When() != want {
		return fmt.Errorf("next completion at %v (cancelled %v), scan %v", m.completion.When(), m.completion.Cancelled(), want)
	}
	return nil
}

// scanCompletion is onCompletion as it was before the ready set: it
// retires finished phases by scanning every thread in id order.
func scanCompletion(m *Machine) {
	m.advance()
	m.inEvent = true
	for _, t := range m.threads {
		if t.state == Ready && t.remaining+t.penalty <= completionEpsilon {
			m.finishPhase(t)
		}
	}
	m.inEvent = false
	m.reschedule()
}

// runChecked runs m to completion, comparing the incremental state with
// the oracle after every engine event.
func runChecked(t testing.TB, m *Machine) (*Result, error) {
	t.Helper()
	var bad error
	m.Engine().SetStepHook(func(sim.Time) {
		if bad == nil {
			if bad = checkOracle(m); bad != nil {
				bad = fmt.Errorf("event %d at %v: %w", m.Engine().Fired(), m.Now(), bad)
				m.Engine().Halt()
			}
		}
	})
	res, err := m.Run()
	if bad != nil {
		t.Fatal(bad)
	}
	return res, err
}

// randGate denies declared phases at random and releases each denied
// thread later, either from the next ExitPhase (inside a machine event)
// or from its own timer (outside one), whichever comes first. It logs
// every call, so two runs can be compared decision by decision.
type randGate struct {
	m       *Machine
	rng     *sim.RNG
	deny    float64
	blocked []*Thread
	gen     map[*Thread]int
	log     []string
}

func (g *randGate) EnterPhase(t *Thread, idx int, _ *proc.Phase) bool {
	admit := g.rng.Float64() >= g.deny
	g.log = append(g.log, fmt.Sprintf("%v enter %d/%d %v", g.m.Now(), t.id, idx, admit))
	if admit {
		return true
	}
	g.gen[t]++
	gen := g.gen[t]
	g.blocked = append(g.blocked, t)
	g.m.Engine().After(sim.Duration(1+g.rng.Intn(200))*sim.Microsecond, func() {
		if g.gen[t] == gen && t.State() == Blocked {
			g.release(t)
		}
	})
	return false
}

func (g *randGate) ExitPhase(t *Thread, idx int, _ *proc.Phase) {
	g.log = append(g.log, fmt.Sprintf("%v exit %d/%d", g.m.Now(), t.id, idx))
	for len(g.blocked) > 0 && g.rng.Float64() < 0.5 {
		t := g.blocked[0]
		if t.State() == Blocked {
			g.release(t)
			return
		}
		g.blocked = g.blocked[1:]
	}
}

func (g *randGate) release(t *Thread) {
	for i, b := range g.blocked {
		if b == t {
			g.blocked = append(g.blocked[:i], g.blocked[i+1:]...)
			break
		}
	}
	g.gen[t]++
	g.m.Unblock(t)
}

// randWorkload draws a small mix exercising every path the incremental
// state changes on: barriers, crashes, cache partitions, repeated
// phases, and phases short enough to finish in the event that starts
// them.
func randWorkload(rng *sim.RNG, procs int) proc.Workload {
	w := proc.Workload{Name: "fuzz"}
	for p := 0; p < procs; p++ {
		s := proc.Spec{Name: fmt.Sprintf("p%d", p), Threads: 1 + rng.Intn(4)}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			ph := proc.Phase{
				Name:             "ph",
				Instr:            1e5 + 4e6*rng.Float64(),
				WSS:              pp.Bytes(rng.Intn(12<<20) + 1),
				Reuse:            pp.Reuse(rng.Intn(3)),
				AccessesPerInstr: 0.1 + 0.5*rng.Float64(),
				PrivateHitFrac:   rng.Float64(),
				StreamFrac:       rng.Float64(),
				FlopsPerInstr:    rng.Float64(),
				Declared:         rng.Float64() < 0.6,
				BarrierAfter:     rng.Float64() < 0.3,
			}
			if rng.Float64() < 0.1 {
				ph.Instr = 0.01
			}
			if rng.Float64() < 0.2 {
				ph.CachePartition = pp.Bytes(rng.Intn(int(ph.WSS)) + 1)
			}
			if rng.Float64() < 0.05 {
				ph.CrashFrac = 0.05 + 0.95*rng.Float64()
			}
			if rng.Float64() < 0.05 {
				ph.LeakEnd = true
			}
			if rng.Float64() < 0.3 {
				ph.Repeat = 2 + rng.Intn(5)
			}
			s.Program = append(s.Program, ph)
		}
		w.Procs = append(w.Procs, s)
	}
	return w
}

// expand lists every repeated phase out: the program Repeat stands for.
func expand(w proc.Workload) proc.Workload {
	out := proc.Workload{Name: w.Name}
	for _, s := range w.Procs {
		c := s
		c.Program = nil
		for _, ph := range s.Program {
			n := ph.Repeats()
			ph.Repeat = 0
			for ; n > 0; n-- {
				c.Program = append(c.Program, ph)
			}
		}
		out.Procs = append(out.Procs, c)
	}
	return out
}

// gatedRun is one run's outcome: the result and the gate's call log.
type gatedRun struct {
	Res *Result
	Log []string
}

// fuzzRun runs w under a randGate seeded with seed, checking the oracle
// at every event. With scan set, phases retire through scanCompletion
// instead of the ready-set loop.
func fuzzRun(t *testing.T, cfg Config, w proc.Workload, seed uint64, deny float64, scan bool) gatedRun {
	t.Helper()
	g := &randGate{rng: sim.NewRNG(seed), deny: deny, gen: map[*Thread]int{}}
	m := New(cfg, g)
	g.m = m
	if scan {
		m.completion = m.eng.NewTimer(func() { scanCompletion(m) })
	}
	if err := m.AddWorkload(w); err != nil {
		t.Fatal(err)
	}
	res, err := runChecked(t, m)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return gatedRun{res, g.log}
}

// checkRuns runs w three ways, checking the oracle at every event of
// each: as is, retiring phases by full scan, and with every repeated
// phase listed out. All three must match result for result and gate call
// for gate call.
func checkRuns(t *testing.T, cfg Config, w proc.Workload, seed uint64, deny float64) {
	t.Helper()
	got := fuzzRun(t, cfg, w, seed, deny, false)
	if scan := fuzzRun(t, cfg, w, seed, deny, true); !reflect.DeepEqual(got, scan) {
		t.Fatalf("ready-set completion differs from the full scan:\n%+v\n%+v", got, scan)
	}
	if listed := fuzzRun(t, cfg, expand(w), seed, deny, false); !reflect.DeepEqual(got, listed) {
		t.Fatalf("repeated phases ran differently from listed ones:\n%+v\n%+v", got, listed)
	}
}

// FuzzMachineIncremental checks, at every engine event of a random run,
// that the incremental ready set, pressure ledger, busy cores, rates and
// next completion equal a full scan; that retiring phases from the
// ready set matches a scan of every thread; and that a run with repeated
// phases is identical to the same run with the repetitions listed out.
// Its seed corpus is committed under testdata/fuzz.
func FuzzMachineIncremental(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, procs, denyPct uint8, latency bool) {
		rng := sim.NewRNG(seed)
		cfg := DefaultConfig()
		cfg.Cores = 1 + rng.Intn(12)
		cfg.WakeLatency = 0
		if latency {
			cfg.WakeLatency = sim.Duration(1+rng.Intn(100)) * sim.Microsecond
		}
		cfg.WakeRefillFactor = rng.Float64()
		if rng.Float64() < 0.3 {
			cfg.MemBandwidth = 1e9 // the roofline binds
		}
		checkRuns(t, cfg, randWorkload(rng, 1+int(procs%8)), seed, float64(denyPct%80)/100)
	})
}

// TestIncrementalMatchesFullScan sweeps fixed seeds through the same
// checks as FuzzMachineIncremental on the zero-overhead unit-test
// machine, with and without wake latency.
func TestIncrementalMatchesFullScan(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := sim.NewRNG(seed)
		cfg := testConfig()
		if seed%2 == 1 {
			cfg.WakeLatency = 30 * sim.Microsecond
		}
		checkRuns(t, cfg, randWorkload(rng, 1+int(seed%8)), seed, 0.3)
	}
}
