package machine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"rdasched/internal/energy"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// ErrHalted is returned by Run/Resume when the simulation was stopped by
// sim.Engine.Halt before every process completed (the crash-restart
// machinery's process-death fault). The machine's state is intact: the
// run can continue via Resume, typically after a restored gate has been
// swapped in with SetGate.
var ErrHalted = errors.New("machine: halted")

// State is a thread's scheduling state.
type State int

const (
	// Ready threads are runnable and share the cores.
	Ready State = iota
	// Blocked threads were paused by the Gate at a period boundary.
	Blocked
	// Waking threads have been released but are still inside the wake
	// latency window.
	Waking
	// BarrierWait threads finished a BarrierAfter phase and wait for
	// their siblings.
	BarrierWait
	// Done threads finished their program.
	Done
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Blocked:
		return "blocked"
	case Waking:
		return "waking"
	case BarrierWait:
		return "barrier"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Thread is the runtime state of one simulated thread.
type Thread struct {
	id        int
	proc      *Process
	at        proc.Cursor // position in the program; at.Index is the phase index
	ph        *proc.Phase // the current phase, nil once done
	weight    float64     // CFS weight: the process's EffectiveWeight
	remaining float64     // instructions left in current phase (incl. overhead)
	penalty   float64     // stall instruction-equivalents (wake refill); drains
	// before remaining and yields no flops or memory traffic — the
	// traffic was already counted when the penalty was charged.
	state State
	// crashing marks a thread whose current phase was truncated by
	// CrashFrac: when the truncated run completes, the thread dies instead
	// of retiring the phase.
	crashing bool

	// Cached per-interval model outputs (valid between reschedules).
	rate          float64 // instructions/second
	share         float64 // core share in [0,1] (weighted fair)
	llcPerInstr   float64
	dramPerInstr  float64
	flopsPerInstr float64

	instructions float64
	flops        float64
}

// ID returns the machine-wide thread id.
func (t *Thread) ID() int { return t.id }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// PhaseIndex returns the virtual index of the thread's current phase:
// its position with every repeated phase listed out (see proc.Cursor).
func (t *Thread) PhaseIndex() int { return t.at.Index }

// State returns the scheduling state.
func (t *Thread) State() State { return t.state }

// CurrentPhase returns the phase the thread is in, or nil when done.
func (t *Thread) CurrentPhase() *proc.Phase { return t.ph }

// Process is the runtime state of one simulated process.
type Process struct {
	id      int
	spec    proc.Spec
	threads []*Thread
	// arrived counts the threads waiting at the barrier after phase
	// barrierAt. At most one barrier is pending at a time: no thread
	// passes a barrier before every sibling has reached it.
	barrierAt int
	arrived   int
	// groups is the process's part of the pressure ledger: one entry per
	// phase index that has Ready threads.
	groups []group
	done   int
	finish sim.Time
}

// group is one (process, phase) entry of the pressure ledger: n Ready
// threads of the process are in virtual phase index phase.
type group struct{ phase, n int }

// ID returns the machine-wide process id.
func (p *Process) ID() int { return p.id }

// Name returns the spec name.
func (p *Process) Name() string { return p.spec.Name }

// Spec returns the process description.
func (p *Process) Spec() proc.Spec { return p.spec }

// Gate is the hook through which a scheduling extension intercepts
// declared phases (progress periods). EnterPhase returning false pauses
// the thread; the gate must later call Machine.Unblock to resume it.
// Undeclared phases never reach the gate — the paper's extension "ignores
// processes that have not provided progress period information".
type Gate interface {
	EnterPhase(t *Thread, phaseIdx int, ph *proc.Phase) bool
	ExitPhase(t *Thread, phaseIdx int, ph *proc.Phase)
}

// Counters aggregates machine-wide activity.
type Counters struct {
	Instructions float64
	Flops        float64
	LLCAccesses  float64
	DRAMAccesses float64
	PPBlocks     uint64 // gate denials
	Wakeups      uint64 // gate releases
	Barriers     uint64 // barrier rendezvous completed
	Crashes      uint64 // threads that died mid-phase (fault injection)
	LeakedEnds   uint64 // declared phases retired without a pp_end (fault injection)
}

// Sample is one point of the run's utilization timeline.
type Sample struct {
	At        sim.Time
	BusyCores float64
	// PressureBytes is the LLC pressure of the active set at the sample.
	PressureBytes float64
}

// Result summarizes one run.
type Result struct {
	Elapsed      sim.Duration
	Counters     Counters
	PackageJ     float64
	DRAMJ        float64
	SystemJ      float64
	AvgBusyCores float64
	Procs        []ProcResult
	// Timeline holds utilization samples taken at scheduling points, at
	// most one per TimelineInterval (empty when sampling is disabled).
	Timeline []Sample
}

// ProcResult is one process's completion record.
type ProcResult struct {
	Name         string
	Finish       sim.Duration
	Instructions float64
	Flops        float64
}

// GFLOPS returns billions of floating-point operations per wall second.
func (r *Result) GFLOPS() float64 {
	s := r.Elapsed.Seconds()
	if s == 0 {
		return 0
	}
	return r.Counters.Flops / s / 1e9
}

// GFLOPSPerWatt returns total GFLOP divided by system Joules — the
// paper's Figure 10 metric (work per energy).
func (r *Result) GFLOPSPerWatt() float64 {
	if r.SystemJ == 0 {
		return 0
	}
	return r.Counters.Flops / 1e9 / r.SystemJ
}

// Machine simulates one run of a set of processes. A Machine is single
// use: construct, add processes, Run once.
type Machine struct {
	cfg   Config
	eng   *sim.Engine
	meter *energy.Meter
	gate  Gate

	procs   []*Process
	threads []*Thread

	// ready holds the Ready threads in id order, and pressure and groups
	// sum the ledger of their (process, phase) groups. They change only
	// where a thread's state or phase does: startPhase, finishPhase,
	// completeBarrier and wake. Id order keeps every float
	// sum over them in the order a scan of all threads would use.
	ready    []*Thread
	pressure pp.Bytes
	groups   int
	unsat    []*Thread // computeShares scratch

	lastUpdate  sim.Time
	completion  *sim.Event // next phase completion; queued while any thread is Ready
	busyCores   float64
	timeline    []Sample
	lastSample  sim.Time
	sampleEvery sim.Duration
	inEvent     bool
	ran         bool
	doneProcs   int
	counters    Counters
	llcCarry    float64
	dramCarry   float64
	err         error
}

// New builds a machine; it panics on an invalid config (programming
// error) and accepts a nil gate (default scheduling only).
func New(cfg Config, gate Gate) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:   cfg,
		eng:   sim.NewEngine(0),
		meter: energy.NewMeter(cfg.Energy),
		gate:  gate,
	}
	m.completion = m.eng.NewTimer(m.onCompletion)
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the current virtual time.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// Engine exposes the event engine (used by gates that need timers).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// EnableTimeline records a utilization sample at scheduling points, at
// most one per interval. Call before Run.
func (m *Machine) EnableTimeline(interval sim.Duration) {
	if interval <= 0 {
		interval = 10 * sim.Millisecond
	}
	m.sampleEvery = interval
}

// AddProcess instantiates spec. It returns an error after Run has started
// or for invalid specs.
func (m *Machine) AddProcess(spec proc.Spec) (*Process, error) {
	if m.ran {
		return nil, fmt.Errorf("machine: AddProcess after Run")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Process{id: len(m.procs), spec: spec}
	for i := 0; i < spec.Threads; i++ {
		t := &Thread{id: len(m.threads), proc: p, ph: &spec.Program[0], weight: spec.EffectiveWeight()}
		p.threads = append(p.threads, t)
		m.threads = append(m.threads, t)
	}
	m.procs = append(m.procs, p)
	return p, nil
}

// AddWorkload instantiates every spec in w.
func (m *Machine) AddWorkload(w proc.Workload) error {
	if err := w.Validate(); err != nil {
		return err
	}
	for _, s := range w.Procs {
		if _, err := m.AddProcess(s); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the simulation to completion and returns the result. When
// the engine is halted mid-run (crash-restart fault injection) it returns
// ErrHalted; the machine stays live and Resume continues the run.
func (m *Machine) Run() (*Result, error) {
	if err := m.start(); err != nil {
		return nil, err
	}
	return m.drive()
}

// start launches every thread through its first phase (gate admission in
// thread order, like processes starting one after another at t=0) and
// schedules the first completion.
func (m *Machine) start() error {
	if m.ran {
		return fmt.Errorf("machine: Run called twice")
	}
	m.ran = true
	if len(m.procs) == 0 {
		return fmt.Errorf("machine: no processes")
	}
	m.ready = make([]*Thread, 0, len(m.threads))
	m.unsat = make([]*Thread, 0, len(m.threads))
	for _, t := range m.threads {
		m.startPhase(t)
	}
	m.reschedule()
	return nil
}

// Resume continues a run that Run (or a previous Resume) left with
// ErrHalted. The caller must first clear the engine halt (sim.Engine
// Resume); typically a restored gate has been installed with SetGate so
// the remainder of the schedule is driven by the revived scheduler.
func (m *Machine) Resume() (*Result, error) {
	if !m.ran {
		return nil, fmt.Errorf("machine: Resume before Run")
	}
	if m.err != nil {
		return nil, fmt.Errorf("machine: Resume after failed run: %w", m.err)
	}
	if m.eng.Halted() {
		return nil, fmt.Errorf("machine: Resume with the engine still halted")
	}
	return m.drive()
}

// drive steps the engine until every process completes, a stall or
// MaxSimTime error occurs, or the engine is halted. A halt is NOT stored
// in m.err — it is a resumable condition, not a failed run.
func (m *Machine) drive() (*Result, error) {
	deadline := sim.Time(0).Add(m.cfg.MaxSimTime)
	for m.doneProcs < len(m.procs) && m.err == nil {
		if !m.eng.Step() {
			if m.eng.Halted() {
				return nil, ErrHalted
			}
			m.err = m.stallError()
			break
		}
		if m.eng.Now() > deadline {
			m.err = fmt.Errorf("machine: exceeded MaxSimTime %v (livelock?)", m.cfg.MaxSimTime)
			break
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	res := &Result{
		Elapsed:      m.eng.Now().DurationSince(0),
		Counters:     m.counters,
		PackageJ:     m.meter.PackageJoules(),
		DRAMJ:        m.meter.DRAMJoules(),
		SystemJ:      m.meter.SystemJoules(),
		AvgBusyCores: m.meter.AvgBusyCores(),
		Timeline:     m.timeline,
	}
	for _, p := range m.procs {
		pr := ProcResult{Name: p.spec.Name, Finish: p.finish.DurationSince(0)}
		for _, t := range p.threads {
			pr.Instructions += t.instructions
			pr.Flops += t.flops
		}
		res.Procs = append(res.Procs, pr)
	}
	return res, nil
}

// SetGate replaces the admission gate mid-run. It exists for the restore
// path: after a halt, a scheduler rebuilt from a checkpoint takes over
// from the one that "died". The caller is responsible for the old gate's
// pending timers — a detached gate must never touch the machine again.
func (m *Machine) SetGate(g Gate) { m.gate = g }

// ThreadByID returns the thread with the given machine-wide id, or nil
// when no such thread exists. IDs are dense slice indexes assigned in
// AddProcess order, so restored checkpoints can re-link waiter lists.
func (m *Machine) ThreadByID(id int) *Thread {
	if id < 0 || id >= len(m.threads) {
		return nil
	}
	return m.threads[id]
}

func (m *Machine) stallError() error {
	blocked, waiting := 0, 0
	for _, t := range m.threads {
		switch t.state {
		case Blocked:
			blocked++
		case BarrierWait:
			waiting++
		}
	}
	return fmt.Errorf("machine: stalled at %v with %d/%d processes done (%d blocked, %d at barriers): "+
		"a progress period was never released — check the gate's policy for starvation",
		m.eng.Now(), m.doneProcs, len(m.procs), blocked, waiting)
}

// Unblock releases a thread the gate paused. It may be called
// synchronously from within ExitPhase or later from a timer.
func (m *Machine) Unblock(t *Thread) {
	if t.state != Blocked {
		panic(fmt.Sprintf("machine: Unblock of %s thread %d", t.state, t.id))
	}
	m.counters.Wakeups++
	if m.cfg.WakeLatency <= 0 {
		m.wake(t)
		return
	}
	t.state = Waking
	m.eng.After(m.cfg.WakeLatency, func() { m.wake(t) })
}

// wake makes a released thread Ready with correct advance/reschedule
// framing: inside an event the reschedule is deferred to the event's end;
// outside (timer callbacks) it happens immediately.
func (m *Machine) wake(t *Thread) {
	if !m.inEvent {
		m.advance()
	}
	m.chargeWakeRefill(t)
	m.setReady(t)
	if !m.inEvent {
		m.reschedule()
	}
}

// chargeWakeRefill bills the cold-cache restart of a resumed thread: the
// working set it is about to use was evicted while it waited, so
// WSS/LineSize lines stream back in from DRAM. The stall is charged as
// instruction-equivalents at base CPI (an approximation — refill overlaps
// poorly with execution, which is why only the exposed latency fraction
// is charged), and the line fetches are counted as LLC + DRAM traffic.
func (m *Machine) chargeWakeRefill(t *Thread) {
	if m.cfg.WakeRefillFactor <= 0 {
		return
	}
	ph := t.ph
	if ph == nil {
		return
	}
	lines := m.cfg.WakeRefillFactor * float64(ph.OccupancyBytes()) / float64(m.cfg.LineSize)
	exposed := m.cfg.DRAMCycles * (1 - m.cfg.MLPOverlap)
	t.penalty += lines * exposed / m.cfg.BaseCPI
	m.accumulate(lines, lines)
}

// advance integrates thread progress, counters, and energy from the last
// update point to now, using the rates cached by the last reschedule.
func (m *Machine) advance() {
	now := m.eng.Now()
	dt := now.DurationSince(m.lastUpdate)
	if dt <= 0 {
		m.lastUpdate = now
		return
	}
	secs := dt.Seconds()
	var llc, dram float64
	for _, t := range m.ready {
		done := t.rate * secs
		if done > t.remaining+t.penalty+1 {
			done = t.remaining + t.penalty + 1 // clamp numerical overshoot
		}
		if t.penalty > 0 {
			p := done
			if p > t.penalty {
				p = t.penalty
			}
			t.penalty -= p
			done -= p
		}
		t.remaining -= done
		t.instructions += done
		t.flops += done * t.flopsPerInstr
		m.counters.Instructions += done
		m.counters.Flops += done * t.flopsPerInstr
		llc += done * t.llcPerInstr
		dram += done * t.dramPerInstr
	}
	m.accumulate(llc, dram)
	m.meter.AdvanceTime(dt, m.busyCores)
	m.lastUpdate = now
}

// accumulate moves float access counts into the meter with carry so that
// rounding never loses events.
func (m *Machine) accumulate(llc, dram float64) {
	m.counters.LLCAccesses += llc
	m.counters.DRAMAccesses += dram
	m.llcCarry += llc
	m.dramCarry += dram
	if n := uint64(m.llcCarry); n > 0 {
		m.meter.CountLLC(n)
		m.llcCarry -= float64(n)
	}
	if n := uint64(m.dramCarry); n > 0 {
		m.meter.CountDRAM(n)
		m.dramCarry -= float64(n)
	}
}

// completionEpsilon is the slack (in instructions) below which a phase
// counts as finished; it absorbs picosecond event rounding.
const completionEpsilon = 0.05

// computeShares assigns each ready thread its weighted fair core share
// (CFS semantics in the fluid limit) by water-filling: no thread may use
// more than one core, and leftover capacity from capped threads is
// redistributed to the rest in proportion to their weights. It returns
// the total busy-core count (Σ shares). With uniform weights this
// reduces to share = min(1, cores/ready).
func (m *Machine) computeShares() float64 {
	m.unsat = append(m.unsat[:0], m.ready...)
	unsat := m.unsat
	for _, t := range unsat {
		t.share = 0
	}
	capacity := float64(m.cfg.Cores)
	capped := 0
	for len(unsat) > 0 && capacity > 1e-12 {
		var sumW float64
		for _, t := range unsat {
			sumW += t.weight
		}
		next := unsat[:0]
		for _, t := range unsat {
			if capacity*t.weight/sumW >= 1 {
				t.share = 1
			} else {
				next = append(next, t)
			}
		}
		if len(next) < len(unsat) {
			// Recompute remaining capacity and iterate.
			capped += len(unsat) - len(next)
			capacity = float64(m.cfg.Cores - capped)
			unsat = next
			continue
		}
		for _, t := range unsat {
			t.share = capacity * t.weight / sumW
		}
		unsat = nil
	}
	total := 0.0
	for _, t := range m.ready {
		total += t.share
	}
	// Clamp float accumulation noise: Σ shares can exceed the core count
	// by an ulp after water-filling.
	if max := float64(m.cfg.Cores); total > max {
		total = max
	}
	return total
}

// reschedule recomputes contention, rates, and the next completion event.
func (m *Machine) reschedule() {
	m.eng.Cancel(m.completion)
	if len(m.ready) == 0 {
		return // threads are blocked/waking/done; timers or the gate move things along
	}

	ctn := m.contention()
	m.busyCores = m.computeShares()
	if m.sampleEvery > 0 && (len(m.timeline) == 0 || m.eng.Now() >= m.lastSample.Add(m.sampleEvery)) {
		m.timeline = append(m.timeline, Sample{
			At: m.eng.Now(), BusyCores: m.busyCores,
			PressureBytes: float64(ctn.PressureBytes),
		})
		m.lastSample = m.eng.Now()
	}

	// Unconstrained rates, then a shared-bandwidth roofline.
	resid := math.Pow(ctn.Residency, m.cfg.ResidencyExponent)
	var traffic float64 // bytes/sec of DRAM transfers
	for _, t := range m.ready {
		perf := m.phasePerf(t.ph, resid)
		t.llcPerInstr = perf.llcPerInstr
		t.dramPerInstr = perf.dramPerInstr
		t.flopsPerInstr = t.ph.FlopsPerInstr
		t.rate = t.share * m.cfg.FreqHz / perf.cpi
		traffic += t.rate * t.dramPerInstr * float64(m.cfg.LineSize)
	}
	scale := 1.0
	if traffic > m.cfg.MemBandwidth {
		scale = m.cfg.MemBandwidth / traffic
	}

	// Next completion.
	next := math.Inf(1)
	for _, t := range m.ready {
		t.rate *= scale
		if dt := (t.remaining + t.penalty) / t.rate; dt < next {
			next = dt
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	d := sim.Duration(math.Ceil(next * 1e12))
	if d < 1 {
		d = 1
	}
	m.eng.Rearm(m.completion, d)
}

// onCompletion advances time and retires every phase that has finished,
// visiting Ready threads in id order.
func (m *Machine) onCompletion() {
	m.advance()
	m.inEvent = true
	for i := 0; i < len(m.ready); i++ {
		t := m.ready[i]
		if t.remaining+t.penalty > completionEpsilon {
			continue
		}
		m.finishPhase(t)
		// Retiring t (and the gate calls inside) added and removed ready
		// threads: resume after t's id, as a scan of all threads would.
		i = m.readyPos(t.id+1) - 1
	}
	m.inEvent = false
	m.reschedule()
}

// finishPhase retires t's current phase: gate exit, barrier rendezvous,
// next phase entry. A crashing thread dies instead: no pp_end reaches the
// gate, no barrier is joined, and the rest of its program never runs.
func (m *Machine) finishPhase(t *Thread) {
	m.unready(t)
	ph, idx := t.ph, t.at.Index
	if t.crashing {
		m.crashThread(t)
		return
	}
	if ph.Declared && m.gate != nil {
		if ph.LeakEnd {
			m.counters.LeakedEnds++
		} else {
			m.gate.ExitPhase(t, idx, ph)
		}
	}
	if ph.BarrierAfter && t.proc.spec.Threads > 1 {
		p := t.proc
		if p.arrived > 0 && p.barrierAt != idx {
			panic(fmt.Sprintf("machine: process %d reached barrier %d with barrier %d pending", p.id, idx, p.barrierAt))
		}
		p.barrierAt = idx
		p.arrived++
		if p.arrived < len(p.threads) {
			t.state = BarrierWait
			return
		}
		m.completeBarrier(p)
	}
	t.at.Next(t.proc.spec.Program)
	m.startPhase(t)
}

// completeBarrier releases every sibling waiting at the pending barrier.
// The last thread to arrive is not waiting; it advances itself in
// finishPhase.
func (m *Machine) completeBarrier(p *Process) {
	idx := p.barrierAt
	p.arrived = 0
	m.counters.Barriers++
	for _, sib := range p.threads {
		if sib.state == BarrierWait && sib.at.Index == idx {
			sib.at.Next(p.spec.Program)
			m.startPhase(sib)
		}
	}
}

// crashThread kills t mid-period: the thread counts as finished for
// process completion, and its open progress period never sees a pp_end
// (the scheduler's lease watchdog reclaims the load). No sibling can be
// waiting at a barrier: every thread runs the same program, so one at a
// later barrier would have passed this crashing phase and died in it.
func (m *Machine) crashThread(t *Thread) {
	p := t.proc
	if p.arrived > 0 {
		panic(fmt.Sprintf("machine: process %d crashed a thread with %d at barrier %d", p.id, p.arrived, p.barrierAt))
	}
	t.state = Done
	t.crashing = false
	m.counters.Crashes++
	p.done++
	if p.done == len(p.threads) {
		p.finish = m.eng.Now()
		m.doneProcs++
	}
}

// startPhase moves t, which is not Ready, into the phase at its cursor,
// charging boundary overhead and asking the gate for admission when the
// phase is declared.
func (m *Machine) startPhase(t *Thread) {
	prog := t.proc.spec.Program
	if t.at.Slot >= len(prog) {
		t.ph = nil
		t.state = Done
		p := t.proc
		p.done++
		if p.done == len(p.threads) {
			p.finish = m.eng.Now()
			m.doneProcs++
		}
		return
	}
	ph := &prog[t.at.Slot]
	t.ph = ph
	t.remaining = ph.Instr
	if ph.CrashFrac > 0 {
		// Fault injection: the thread dies after this fraction of the
		// phase. Truncate the run; finishPhase turns completion into death.
		t.remaining = ph.Instr * ph.CrashFrac
		t.crashing = true
	}
	if ph.Declared {
		// The pp_begin/pp_end cost is stall, not useful work: charge it
		// as zero-yield penalty so it consumes time without fabricating
		// flops or memory traffic.
		t.penalty += m.cfg.boundaryOverhead(ph.Instr)
		if m.gate != nil && !m.gate.EnterPhase(t, t.at.Index, ph) {
			t.state = Blocked
			m.counters.PPBlocks++
			return
		}
	}
	m.setReady(t)
}

// readyPos returns the index in m.ready of the first thread whose id is
// at least id.
func (m *Machine) readyPos(id int) int {
	i, _ := slices.BinarySearchFunc(m.ready, id, func(t *Thread, id int) int { return cmp.Compare(t.id, id) })
	return i
}

// setReady makes t Ready: it joins the ready set and its (process,
// phase) group in the pressure ledger.
func (m *Machine) setReady(t *Thread) {
	t.state = Ready
	m.ready = slices.Insert(m.ready, m.readyPos(t.id), t)
	p := t.proc
	for i := range p.groups {
		if p.groups[i].phase == t.at.Index {
			p.groups[i].n++
			return
		}
	}
	p.groups = append(p.groups, group{phase: t.at.Index, n: 1})
	// Partitioned phases press on the shared pool only up to their
	// partition (§6 extension: a fenced streaming app cannot evict its
	// neighbours beyond its allotment).
	m.pressure += t.ph.OccupancyBytes()
	m.groups++
}

// unready takes Ready thread t out of the ready set and the ledger; the
// caller gives it its next state or phase.
func (m *Machine) unready(t *Thread) {
	i := m.readyPos(t.id)
	m.ready = slices.Delete(m.ready, i, i+1)
	p := t.proc
	for i := range p.groups {
		g := &p.groups[i]
		if g.phase != t.at.Index {
			continue
		}
		if g.n--; g.n == 0 {
			p.groups[i] = p.groups[len(p.groups)-1]
			p.groups = p.groups[:len(p.groups)-1]
			m.pressure -= t.ph.OccupancyBytes()
			m.groups--
		}
		return
	}
}
