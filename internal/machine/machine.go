package machine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"rdasched/internal/energy"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// ErrHalted is returned by Run/Resume when the simulation was stopped by
// sim.Engine.Halt before every process completed (the crash-restart
// machinery's process-death fault). The machine's state is intact: the
// run can continue via Resume, on the same gate.
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
	ph        *proc.Phase // the current phase, nil before the run starts it and once done
	remaining float64     // instructions left in current phase (incl. overhead)
	penalty   float64     // stall instruction-equivalents (wake refill); drains
	// before remaining and yields no flops or memory traffic — the
	// traffic was already counted when the penalty was charged.
	state State
	// crashing marks a thread whose current phase was truncated by
	// CrashFrac: when the truncated run completes, the thread dies instead
	// of retiring the phase.
	crashing bool
	// wakeEv is the wake-latency timer, made at the thread's first wake
	// and re-armed by every later one.
	wakeEv *sim.Event
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

// CurrentPhase returns the phase the thread is in, or nil before the run
// starts it and once it is done.
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

// TaskPool reports whether the process uses the task-pool programming
// model (proc.Spec.TaskPool), without copying the spec.
func (p *Process) TaskPool() bool { return p.spec.TaskPool }

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
	Name   string
	Finish sim.Duration
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

	// ready is the set of Ready thread ids, one bit each, and nReady its
	// size; pressure sums the ledger of their (process, phase) groups,
	// and present lists the rate classes with Ready threads, in no
	// particular order. They change only where a thread's state or phase
	// does: startPhase, finishPhase, completeBarrier and wake. Walking the
	// bits in id order keeps every float sum over the ready set in the
	// order a scan of all threads would use.
	ready    []uint64
	nReady   int
	pressure pp.Bytes
	present  []*rateClass
	classes  map[rateKey]*rateClass // every rate class seen, by key
	// cls holds each thread's rate class by thread id (nil before the
	// thread starts and once it is done): dense, so the per-thread sums
	// in reschedule read no Thread.
	cls []*rateClass

	// Memos of reschedule's inputs that depend on one integer each:
	// busyOver[n-Cores-1] is the busy-core sum with n > Cores Ready
	// threads (0 until computed), and resid is residency^γ at ledger
	// pressure residAt.
	busyOver []float64
	residAt  pp.Bytes
	resid    float64

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
		cfg:     cfg,
		eng:     sim.NewEngine(0),
		meter:   energy.NewMeter(cfg.Energy),
		gate:    gate,
		classes: make(map[rateKey]*rateClass),
		residAt: -1, // no ledger pressure is negative: the first reschedule computes r^γ
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
		t := &Thread{id: len(m.threads), proc: p}
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
	m.ready = make([]uint64, (len(m.threads)+63)/64)
	m.cls = make([]*rateClass, len(m.threads))
	m.busyOver = make([]float64, max(0, len(m.threads)-m.cfg.Cores))
	for _, t := range m.threads {
		m.startPhase(t)
	}
	m.reschedule()
	return nil
}

// Resume continues a run that Run (or a previous Resume) left with
// ErrHalted, on the same gate. The caller must first clear the engine
// halt (sim.Engine Resume); a revival does so once it has checked the
// gate against the checkpoint.
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
		res.Procs = append(res.Procs, ProcResult{Name: p.spec.Name, Finish: p.finish.DurationSince(0)})
	}
	return res, nil
}

// ThreadByID returns the thread with the given machine-wide id, or nil
// when no such thread exists. IDs are dense slice indexes assigned in
// AddProcess order.
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
	cause := "a progress period was never released — check the gate's policy for starvation"
	if m.gate == nil {
		cause = "no gate is attached, so no thread waits on one — check the workload's phases"
	}
	return fmt.Errorf("machine: stalled at %v with %d/%d processes done (%d blocked, %d at barriers): %s",
		m.eng.Now(), m.doneProcs, len(m.procs), blocked, waiting, cause)
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
	if t.wakeEv == nil {
		t.wakeEv = m.eng.NewTimer(func() { m.wake(t) })
	}
	m.eng.Rearm(t.wakeEv, m.cfg.WakeLatency)
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
	// Locals carry the counters through the loop: the same additions in
	// the same order, without a store and reload per thread.
	var llc, dram float64
	instr, flops := m.counters.Instructions, m.counters.Flops
	for w, word := range m.ready {
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			t, c := m.threads[id], m.cls[id]
			done := c.rate * secs
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
			instr += done
			flops += done * c.flopsPerInstr
			llc += done * c.llcPerInstr
			dram += done * c.dramPerInstr
		}
	}
	m.counters.Instructions, m.counters.Flops = instr, flops
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

// reschedule recomputes the core share, contention, rates, and the next
// completion event.
func (m *Machine) reschedule() {
	n := m.nReady
	if n == 0 {
		m.eng.Cancel(m.completion)
		return // threads are blocked/waking/done; timers or the gate move things along
	}

	// CFS in the fluid limit: every Ready thread gets the same share of
	// the cores, and none more than one core.
	share := 1.0
	if n > m.cfg.Cores {
		share = float64(m.cfg.Cores) / float64(n)
	}
	m.busyCores = m.busy(n, share)
	if m.sampleEvery > 0 && (len(m.timeline) == 0 || m.eng.Now() >= m.lastSample.Add(m.sampleEvery)) {
		m.timeline = append(m.timeline, Sample{At: m.eng.Now(), BusyCores: m.busyCores})
		m.lastSample = m.eng.Now()
	}

	// Unconstrained rates, once per rate class, then a shared-bandwidth
	// roofline over every thread's traffic.
	if m.residAt != m.pressure {
		m.residAt, m.resid = m.pressure, math.Pow(m.residency(), m.cfg.ResidencyExponent)
	}
	for _, c := range m.present {
		if c.share == share && c.resid == m.resid {
			continue // the class's outputs are a function of these two alone
		}
		perf := m.phasePerf(c.ph, m.resid)
		c.share, c.resid = share, m.resid
		c.llcPerInstr = perf.llcPerInstr
		c.dramPerInstr = perf.dramPerInstr
		c.base = share * m.cfg.FreqHz / perf.cpi
		c.traffic = c.base * c.dramPerInstr * float64(m.cfg.LineSize)
	}
	var traffic float64 // bytes/sec of DRAM transfers
	for w, word := range m.ready {
		for ; word != 0; word &= word - 1 {
			traffic += m.cls[w<<6|bits.TrailingZeros64(word)].traffic
		}
	}
	scale := 1.0
	if traffic > m.cfg.MemBandwidth {
		scale = m.cfg.MemBandwidth / traffic
	}
	for _, c := range m.present {
		c.rate = c.base * scale
	}

	// Next completion.
	next := math.Inf(1)
	for w, word := range m.ready {
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			t := m.threads[id]
			if dt := (t.remaining + t.penalty) / m.cls[id].rate; dt < next {
				next = dt
			}
		}
	}
	if math.IsInf(next, 1) {
		m.eng.Cancel(m.completion)
		return
	}
	d := sim.Duration(math.Ceil(next * 1e12))
	if d < 1 {
		d = 1
	}
	m.eng.Rearm(m.completion, d)
}

// busy returns the busy-core count with n Ready threads of the given
// share each: the share added once per thread, clamped to the core
// count because n equal slices can sum an ulp past it. Up to Cores
// threads the share is 1 and the sum is n exactly; past that it depends
// on n alone, so it is computed once per n.
func (m *Machine) busy(n int, share float64) float64 {
	if n <= m.cfg.Cores {
		return float64(n)
	}
	memo := &m.busyOver[n-m.cfg.Cores-1]
	if *memo == 0 {
		var b float64
		for range n {
			b += share
		}
		*memo = min(b, float64(m.cfg.Cores))
	}
	return *memo
}

// onCompletion advances time and retires every phase that has finished,
// visiting Ready threads in id order.
func (m *Machine) onCompletion() {
	m.advance()
	m.inEvent = true
	// Retiring a thread (and the gate calls inside) adds and removes
	// Ready threads: each step resumes after the last id, as a scan of
	// all threads would.
	for id := m.nextReady(0); id >= 0; id = m.nextReady(id + 1) {
		if t := m.threads[id]; t.remaining+t.penalty <= completionEpsilon {
			m.finishPhase(t)
		}
	}
	m.inEvent = false
	m.reschedule()
}

// finishPhase retires t's current phase: gate exit, barrier rendezvous,
// next phase entry. A crashing thread dies instead: no pp_end reaches the
// gate, no barrier is joined, and the rest of its program never runs. t
// stays in the ready set throughout and leaves it only if it does not
// run on: a thread whose next phase is admitted at once keeps its slot.
func (m *Machine) finishPhase(t *Thread) {
	ph, idx, cls := t.ph, t.at.Index, m.cls[t.id]
	if t.crashing {
		m.unready(t, idx, ph, cls)
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
			m.unready(t, idx, ph, cls)
			t.state = BarrierWait
			return
		}
		m.completeBarrier(p)
	}
	t.at.Next(t.proc.spec.Program)
	if m.enterPhase(t) {
		m.moveReady(t, idx, ph, cls)
	} else {
		m.unready(t, idx, ph, cls)
	}
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

// startPhase moves t, which is not Ready, into the phase at its cursor
// and makes it Ready if it runs.
func (m *Machine) startPhase(t *Thread) {
	if m.enterPhase(t) {
		m.setReady(t)
	}
}

// enterPhase moves t into the phase at its cursor, charging boundary
// overhead and asking the gate for admission when the phase is declared.
// It reports whether t runs; otherwise t is Done or Blocked. It leaves
// the ready set and the ledger to its caller.
func (m *Machine) enterPhase(t *Thread) bool {
	prog := t.proc.spec.Program
	if t.at.Slot >= len(prog) {
		t.ph, m.cls[t.id] = nil, nil
		t.state = Done
		p := t.proc
		p.done++
		if p.done == len(p.threads) {
			p.finish = m.eng.Now()
			m.doneProcs++
		}
		return false
	}
	ph := &prog[t.at.Slot]
	if ph != t.ph {
		// A repeated phase keeps its slot, its pointer and its class.
		t.ph, m.cls[t.id] = ph, m.intern(ph)
	}
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
			return false
		}
	}
	return true
}

// nextReady returns the smallest Ready thread id at least id, or -1.
func (m *Machine) nextReady(id int) int {
	w := id >> 6
	if w >= len(m.ready) {
		return -1
	}
	for word := m.ready[w] &^ (1<<(id&63) - 1); ; word = m.ready[w] {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
		if w++; w == len(m.ready) {
			return -1
		}
	}
}

// setReady makes t Ready: it joins the ready set, its rate class and its
// (process, phase) group in the pressure ledger.
func (m *Machine) setReady(t *Thread) {
	t.state = Ready
	m.ready[t.id>>6] |= 1 << (t.id & 63)
	m.nReady++
	m.join(m.cls[t.id])
	m.joinGroup(t.proc, t.at.Index, t.ph)
}

// unready takes t, Ready in phase idx (ph, class cls) until now, out of
// the ready set, its class and the ledger; the caller gives it its next
// state.
func (m *Machine) unready(t *Thread, idx int, ph *proc.Phase, cls *rateClass) {
	m.ready[t.id>>6] &^= 1 << (t.id & 63)
	m.nReady--
	m.leave(cls)
	m.leaveGroup(t.proc, idx, ph)
}

// moveReady keeps t, Ready in phase idx (ph, class cls) until now, in the
// ready set for the phase it has just entered. A thread alone in its
// group while no sibling is in the new phase moves its ledger entry in
// place; the ledger sums integers, so the pressure is the same in any
// order.
func (m *Machine) moveReady(t *Thread, idx int, ph *proc.Phase, cls *rateClass) {
	if c := m.cls[t.id]; c != cls {
		m.leave(cls)
		m.join(c)
	}
	p := t.proc
	for i := range p.groups {
		if p.groups[i].phase == t.at.Index {
			p.groups[i].n++
			m.leaveGroup(p, idx, ph)
			return
		}
	}
	for i := range p.groups {
		if g := &p.groups[i]; g.phase == idx && g.n == 1 {
			g.phase = t.at.Index
			m.pressure += t.ph.OccupancyBytes() - ph.OccupancyBytes()
			return
		}
	}
	m.leaveGroup(p, idx, ph)
	m.joinGroup(p, t.at.Index, t.ph)
}

// joinGroup adds one Ready thread to p's group for phase idx (ph).
func (m *Machine) joinGroup(p *Process, idx int, ph *proc.Phase) {
	for i := range p.groups {
		if p.groups[i].phase == idx {
			p.groups[i].n++
			return
		}
	}
	p.groups = append(p.groups, group{phase: idx, n: 1})
	// Partitioned phases press on the shared pool only up to their
	// partition (§6 extension: a fenced streaming app cannot evict its
	// neighbours beyond its allotment).
	m.pressure += ph.OccupancyBytes()
}

// leaveGroup removes one Ready thread from p's group for phase idx (ph).
func (m *Machine) leaveGroup(p *Process, idx int, ph *proc.Phase) {
	for i := range p.groups {
		g := &p.groups[i]
		if g.phase != idx {
			continue
		}
		if g.n--; g.n == 0 {
			p.groups[i] = p.groups[len(p.groups)-1]
			p.groups = p.groups[:len(p.groups)-1]
			m.pressure -= ph.OccupancyBytes()
		}
		return
	}
}

// join counts one more Ready thread in class c.
func (m *Machine) join(c *rateClass) {
	if c.ready++; c.ready == 1 {
		c.pos = len(m.present)
		m.present = append(m.present, c)
	}
}

// leave counts one Ready thread less in class c.
func (m *Machine) leave(c *rateClass) {
	if c.ready--; c.ready == 0 {
		last := m.present[len(m.present)-1]
		m.present[c.pos], last.pos = last, c.pos
		m.present = m.present[:len(m.present)-1]
	}
}
