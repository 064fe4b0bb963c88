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
// pressure, the core share and busy-core sum from the scan's own count,
// residency^γ from the scan's own pressure, and phasePerf per thread. It
// is the test oracle for the incremental state: the ready set, the
// ledger, the rate classes and the memos.
type fullScan struct {
	ready    []*Thread
	pressure pp.Bytes
	resid    float64 // residency^γ
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
	s.resid = math.Pow(residency, m.cfg.ResidencyExponent)

	share := math.Min(1, float64(m.cfg.Cores)/float64(len(s.ready)))
	s.busy = scanBusy(m, len(s.ready))

	var traffic float64
	for _, t := range s.ready {
		perf := m.phasePerf(t.CurrentPhase(), s.resid)
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

// scanBusy is the busy-core sum with n Ready threads: the share added
// once per thread, clamped to the core count.
func scanBusy(m *Machine, n int) float64 {
	share := math.Min(1, float64(m.cfg.Cores)/float64(n))
	var busy float64
	for range n {
		busy += share
	}
	return math.Min(busy, float64(m.cfg.Cores))
}

// checkOracle compares the machine's incremental state with a full scan:
// ready set, pressure, rate classes, both memos, busy cores, every
// thread's class-derived rates and the next completion. It holds between
// events, where the state reschedule cached is current.
func checkOracle(m *Machine) error {
	s := scanAll(m)
	var ready []*Thread
	for id := m.nextReady(0); id >= 0; id = m.nextReady(id + 1) {
		ready = append(ready, m.threads[id])
	}
	if len(s.ready) != len(ready) || m.nReady != len(ready) {
		return fmt.Errorf("ready set has %d threads (count %d), scan finds %d", len(ready), m.nReady, len(s.ready))
	}
	for i, t := range s.ready {
		if ready[i] != t {
			return fmt.Errorf("ready[%d] is thread %d, scan finds thread %d", i, ready[i].id, t.id)
		}
	}
	if s.pressure != m.pressure {
		return fmt.Errorf("ledger pressure %v, scan %v", m.pressure, s.pressure)
	}
	if err := checkClasses(m, s.ready); err != nil {
		return err
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
	for i, b := range m.busyOver {
		if n := m.cfg.Cores + 1 + i; b != 0 && b != scanBusy(m, n) {
			return fmt.Errorf("busy-core memo %v at %d ready threads, scan %v", b, n, scanBusy(m, n))
		}
	}
	if m.residAt != s.pressure || m.resid != s.resid {
		return fmt.Errorf("r^γ memo %v at pressure %v, scan %v at %v", m.resid, m.residAt, s.resid, s.pressure)
	}
	for i, t := range s.ready {
		c := m.cls[t.id]
		if c.rate != s.rates[i] || c.llcPerInstr != s.llc[i] || c.dramPerInstr != s.dram[i] {
			return fmt.Errorf("thread %d rate/llc/dram %v/%v/%v, scan %v/%v/%v", t.id,
				c.rate, c.llcPerInstr, c.dramPerInstr, s.rates[i], s.llc[i], s.dram[i])
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

// sameRate reports whether a and b agree, bit for bit, on every field
// phasePerf and advance read; it is written out field by field so that
// it does not share rateKey's choice of fields.
func sameRate(a, b *proc.Phase) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.CachePartition > 0 || b.CachePartition > 0 {
		if a.CachePartition != b.CachePartition || a.WSS != b.WSS {
			return false
		}
	}
	return same(a.AccessesPerInstr, b.AccessesPerInstr) && same(a.PrivateHitFrac, b.PrivateHitFrac) &&
		same(a.StreamFrac, b.StreamFrac) && same(a.FlopsPerInstr, b.FlopsPerInstr) && a.Reuse == b.Reuse
}

// checkClasses checks that every thread's class is its phase's, by value,
// and that the present list holds exactly the classes of the Ready
// threads, each with its count.
func checkClasses(m *Machine, ready []*Thread) error {
	for _, t := range m.threads {
		c := m.cls[t.id]
		if t.ph == nil {
			if c != nil {
				return fmt.Errorf("done thread %d keeps a rate class", t.id)
			}
			continue
		}
		if !sameRate(c.ph, t.ph) || c.flopsPerInstr != t.ph.FlopsPerInstr {
			return fmt.Errorf("thread %d phase %d in the class of another phase", t.id, t.PhaseIndex())
		}
	}
	count := make(map[*rateClass]int)
	for _, t := range ready {
		count[m.cls[t.id]]++
	}
	if len(count) != len(m.present) {
		return fmt.Errorf("%d classes present, scan finds %d", len(m.present), len(count))
	}
	for i, c := range m.present {
		if c.pos != i || c.ready != count[c] {
			return fmt.Errorf("present[%d] has position %d and %d ready threads, scan finds %d", i, c.pos, c.ready, count[c])
		}
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
// them. With shared set, every phase takes its rate fields from one of
// three shapes, so phases of different processes, each in a program of
// its own, fall into the same rate classes by value.
func randWorkload(rng *sim.RNG, procs int, shared bool) proc.Workload {
	w := proc.Workload{Name: "fuzz"}
	// The second and third shapes differ from the first in one rate
	// field each, so a class key that left a field out would merge them.
	var shapes [3]proc.Phase
	if shared {
		shapes[0] = proc.Phase{
			Reuse:            pp.Reuse(rng.Intn(3)),
			AccessesPerInstr: 0.1 + 0.5*rng.Float64(),
			PrivateHitFrac:   rng.Float64(),
			StreamFrac:       rng.Float64(),
			FlopsPerInstr:    rng.Float64(),
		}
		for i := 1; i < len(shapes); i++ {
			sh := shapes[0]
			switch rng.Intn(5) {
			case 0:
				sh.Reuse = (sh.Reuse + 1) % 3
			case 1:
				sh.AccessesPerInstr = 0.1 + 0.5*rng.Float64()
			case 2:
				sh.PrivateHitFrac = rng.Float64()
			case 3:
				sh.StreamFrac = rng.Float64()
			case 4:
				sh.FlopsPerInstr = rng.Float64()
			}
			shapes[i] = sh
		}
	}
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
			if shared {
				sh := &shapes[rng.Intn(len(shapes))]
				ph.Reuse, ph.AccessesPerInstr, ph.PrivateHitFrac = sh.Reuse, sh.AccessesPerInstr, sh.PrivateHitFrac
				ph.StreamFrac, ph.FlopsPerInstr = sh.StreamFrac, sh.FlopsPerInstr
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
// that the incremental ready set, pressure ledger, rate classes, memos,
// busy cores, rates and next completion equal a full scan; that retiring
// phases from the ready set matches a scan of every thread; and that a
// run with repeated phases is identical to the same run with the
// repetitions listed out. With shared set, processes share rate classes
// (see randWorkload). Its seed corpus is committed under testdata/fuzz.
func FuzzMachineIncremental(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, procs, denyPct uint8, latency, shared bool) {
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
		checkRuns(t, cfg, randWorkload(rng, 1+int(procs%8), shared), seed, float64(denyPct%80)/100)
	})
}

// TestIncrementalMatchesFullScan sweeps fixed seeds through the same
// checks as FuzzMachineIncremental on the zero-overhead unit-test
// machine, with and without wake latency, and with and without rate
// classes shared across processes.
func TestIncrementalMatchesFullScan(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		rng := sim.NewRNG(seed)
		cfg := testConfig()
		if seed%2 == 1 {
			cfg.WakeLatency = 30 * sim.Microsecond
		}
		checkRuns(t, cfg, randWorkload(rng, 1+int(seed%8), seed >= 40), seed, 0.3)
	}
}
