// Package qsim is a discrete, quantum-stepped scheduler simulation used
// to validate the fluid processor-sharing approximation in
// internal/machine. Where the fluid model assumes every ready thread
// continuously receives core share min(1, cores/ready), qsim actually
// schedules: a CFS-style fair run queue (internal/sched) picks the
// minimum-vruntime threads each quantum, runs them on discrete cores,
// charges the runtime they used, and pays explicit cache-reload costs
// when a thread returns to a core after its working set was evicted —
// the literal Figure 1 effect.
//
// qsim also carries its own strict-admission implementation of the RDA
// predicate (Algorithm 1), independent of internal/core, so the paper's
// contribution — not just the default-scheduler baseline — is
// cross-validated between two separately written scheduler substrates.
// The cross-validation tests in this package keep the two models within
// tolerance on makespan and DRAM traffic.
package qsim

import (
	"fmt"
	"math"

	"rdasched/internal/energy"
	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sched"
	"rdasched/internal/sim"
)

// Config parameterizes the discrete simulation. Machine supplies the
// hardware constants shared with the fluid model.
type Config struct {
	Machine machine.Config
	// Quantum is the scheduling slice (CFS targeted latency divided by
	// runnable count lands near a few ms; 3 ms is the default here).
	Quantum sim.Duration
	// CtxSwitchCost is the direct cost of one context switch (register
	// state, kernel path) charged per preemption.
	CtxSwitchCost sim.Duration
	// StrictAdmission enables qsim's independent implementation of the
	// RDA strict predicate: declared phases are admitted only while the
	// sum of admitted working sets fits the LLC; denied threads wait off
	// the run queue until a period releases capacity.
	StrictAdmission bool
}

// DefaultConfig returns the Table 1 machine with a 3 ms quantum.
func DefaultConfig() Config {
	return Config{
		Machine:       machine.DefaultConfig(),
		Quantum:       3 * sim.Millisecond,
		CtxSwitchCost: 2 * sim.Microsecond,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.Quantum <= 0 {
		return fmt.Errorf("qsim: non-positive quantum %v", c.Quantum)
	}
	if c.CtxSwitchCost < 0 {
		return fmt.Errorf("qsim: negative context-switch cost")
	}
	return nil
}

// Result summarizes one discrete run with the same quantities the fluid
// model reports.
type Result struct {
	Elapsed        sim.Duration
	Instructions   float64
	Flops          float64
	LLCAccesses    float64
	DRAMAccesses   float64
	SystemJ        float64
	DRAMJ          float64
	ContextSwitch  uint64
	ReloadAccesses float64 // DRAM lines moved by switch-in reloads alone
}

// GFLOPS returns the aggregate floating-point rate.
func (r *Result) GFLOPS() float64 {
	s := r.Elapsed.Seconds()
	if s == 0 {
		return 0
	}
	return r.Flops / s / 1e9
}

type qthread struct {
	id      int
	proc    int
	program proc.Program
	at      proc.Cursor // at.Index keys periods and barriers
	remain  float64
	ent     sched.Entity
	state   tstate
	// lastRun is the quantum index the thread last occupied a core.
	lastRun int64
	// resident says whether the thread's working set is still in the
	// LLC; evictAccum sums the working-set bytes other threads cycled
	// through the cache while this thread was off-core — once that
	// exceeds the cache's spare capacity, the set is gone (LRU).
	resident   bool
	evictAccum pp.Bytes
}

type tstate int

const (
	ready tstate = iota
	barrier
	waiting // denied by strict admission, parked off the run queue
	done
)

// Run executes the workload to completion under discrete CFS and returns
// the measurement. Declared flags are ignored (default scheduling).
func Run(w proc.Workload, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	mc := cfg.Machine
	meter := energy.NewMeter(mc.Energy)

	// Instantiate threads.
	var threads []*qthread
	procThreads := make([][]*qthread, len(w.Procs))
	barriers := make([]map[int]int, len(w.Procs))
	for pi, spec := range w.Procs {
		barriers[pi] = make(map[int]int)
		for i := 0; i < spec.Threads; i++ {
			t := &qthread{
				id: len(threads), proc: pi, program: spec.Program,
				remain: spec.Program[0].Instr,
				// Start warm, matching the fluid model's steady-state
				// accounting (neither model charges cold-start misses).
				resident: true,
			}
			threads = append(threads, t)
			procThreads[pi] = append(procThreads[pi], t)
		}
	}

	var rq sched.RunQueue[*qthread]
	var now sim.Time

	// Strict-admission state: per-(proc, phase) period refcounts and the
	// FIFO of denied threads (qsim's independent Algorithm 1).
	type pkey struct{ p, ph int }
	var admitted map[pkey]int
	var admittedLoad pp.Bytes
	var waitq sched.WaitQueue[*qthread]
	if cfg.StrictAdmission {
		admitted = make(map[pkey]int)
	}
	// tryAdmit applies the strict predicate to t's current phase; it
	// returns false after parking t on the wait queue.
	tryAdmit := func(t *qthread) bool {
		ph := &t.program[t.at.Slot]
		if admitted == nil || !ph.Declared {
			return true
		}
		k := pkey{t.proc, t.at.Index}
		if admitted[k] > 0 {
			admitted[k]++
			return true
		}
		occ := ph.OccupancyBytes()
		if admittedLoad+occ <= mc.LLCCapacity || admittedLoad == 0 {
			admitted[k]++
			admittedLoad += occ
			return true
		}
		t.state = waiting
		waitq.Enqueue(t)
		return false
	}
	// release ends t's participation in its period, freeing capacity and
	// waking FIFO waiters that now fit.
	release := func(t *qthread, phase proc.Cursor) []*qthread {
		if admitted == nil || !t.program[phase.Slot].Declared {
			return nil
		}
		k := pkey{t.proc, phase.Index}
		admitted[k]--
		if admitted[k] > 0 {
			return nil
		}
		delete(admitted, k)
		admittedLoad -= t.program[phase.Slot].OccupancyBytes()
		return waitq.WakeAll(nil, func(w *qthread) bool {
			wph := &w.program[w.at.Slot]
			wk := pkey{w.proc, w.at.Index}
			if admitted[wk] > 0 {
				admitted[wk]++
				return true
			}
			occ := wph.OccupancyBytes()
			if admittedLoad+occ <= mc.LLCCapacity || admittedLoad == 0 {
				admitted[wk]++
				admittedLoad += occ
				return true
			}
			return false
		})
	}

	for _, t := range threads {
		if tryAdmit(t) {
			rq.Enqueue(t, &t.ent)
		}
	}

	res := &Result{}
	remainingThreads := len(threads)
	quantum := cfg.Quantum
	qSecs := quantum.Seconds()
	var qIndex int64

	// advancePhase retires t's finished phase, handling barriers.
	var advancePhase func(t *qthread) []*qthread
	advancePhase = func(t *qthread) []*qthread {
		ph := &t.program[t.at.Slot]
		var released []*qthread
		if ph.BarrierAfter && len(procThreads[t.proc]) > 1 {
			idx := t.at.Index
			barriers[t.proc][idx]++
			if barriers[t.proc][idx] < len(procThreads[t.proc]) {
				t.state = barrier
				return nil
			}
			delete(barriers[t.proc], idx)
			for _, sib := range procThreads[t.proc] {
				if sib != t && sib.state == barrier && sib.at.Index == idx {
					if !sib.at.Next(sib.program) {
						sib.state = done
						remainingThreads--
					} else {
						sib.state = ready
						sib.remain = sib.program[sib.at.Slot].Instr
						released = append(released, sib)
					}
				}
			}
		}
		if !t.at.Next(t.program) {
			t.state = done
			remainingThreads--
			return released
		}
		t.remain = t.program[t.at.Slot].Instr
		return released
	}

	deadline := sim.Time(0).Add(mc.MaxSimTime)
	for remainingThreads > 0 {
		if sim.Time(now) > deadline {
			return nil, fmt.Errorf("qsim: exceeded MaxSimTime at %v with %d threads left", now, remainingThreads)
		}
		// Pick up to cores threads for this quantum.
		var running []*qthread
		for len(running) < mc.Cores {
			t, _, ok := rq.PickNext()
			if !ok {
				break
			}
			running = append(running, t)
		}
		if len(running) == 0 {
			// Only barrier-parked threads remain runnable later — with
			// the whole process at a barrier this cannot happen (the last
			// arrival releases them synchronously), so this is a bug.
			return nil, fmt.Errorf("qsim: no runnable threads with %d unfinished", remainingThreads)
		}
		qIndex++

		// Contention: pressure from this quantum's co-runners, grouped by
		// (process, phase) as in the fluid model.
		type key struct{ p, ph int }
		groups := map[key]pp.Bytes{}
		for _, t := range running {
			k := key{t.proc, t.at.Index}
			if _, ok := groups[k]; !ok {
				groups[k] = t.program[t.at.Slot].WSS
			}
		}
		var pressure pp.Bytes
		for _, wss := range groups {
			pressure += wss
		}
		residency := 1.0
		if pressure > mc.LLCCapacity {
			residency = float64(mc.LLCCapacity) / float64(pressure)
		}
		rEff := math.Pow(residency, mc.ResidencyExponent)

		// Execute the quantum.
		var llcAcc, dramAcc, busy float64
		for _, t := range running {
			ph := &t.program[t.at.Slot]
			h := (1 - ph.StreamFrac) * mc.HMax[ph.Reuse] * rEff
			llcPerInstr := ph.AccessesPerInstr * (1 - ph.PrivateHitFrac)
			exposed := 1 - mc.MLPOverlap
			cpi := mc.BaseCPI +
				ph.AccessesPerInstr*ph.PrivateHitFrac*mc.PrivateHitCycles +
				llcPerInstr*exposed*(h*mc.LLCHitCycles+(1-h)*mc.DRAMCycles)

			avail := qSecs - cfg.CtxSwitchCost.Seconds()
			res.ContextSwitch++

			// Switch-in reload: while the thread was off-core, co-runners
			// cycled enough data through the LLC to evict its set, so it
			// streams back from DRAM — the literal Figure 1 reload.
			if !t.resident {
				lines := float64(ph.WSS) / float64(mc.LineSize)
				stallCycles := lines * exposed * mc.DRAMCycles
				stall := stallCycles / mc.FreqHz
				if stall > avail {
					stall = avail
					lines = stall * mc.FreqHz / (exposed * mc.DRAMCycles)
				}
				avail -= stall
				dramAcc += lines
				llcAcc += lines
				res.ReloadAccesses += lines
			}
			t.resident = true
			t.evictAccum = 0

			rate := mc.FreqHz / cpi
			did := rate * avail
			if did > t.remain {
				avail = t.remain / rate
				did = t.remain
			}
			t.remain -= did
			res.Instructions += did
			res.Flops += did * ph.FlopsPerInstr
			llcAcc += did * llcPerInstr
			dramAcc += did * llcPerInstr * (1 - h)
			busy++
			t.lastRun = qIndex

			rq.Charge(&t.ent, qSecs*1e9)
		}

		// Off-core threads watch the cache churn: once the data cycled by
		// the quanta they sat out exceeds the LLC's spare capacity beyond
		// their own set, LRU has evicted them.
		for _, t := range threads {
			if t.state != ready || t.lastRun == qIndex || !t.resident {
				continue
			}
			t.evictAccum += pressure
			if t.evictAccum+t.program[t.at.Slot].WSS > mc.LLCCapacity {
				t.resident = false
			}
		}

		meter.AdvanceTime(quantum, busy)
		meter.CountLLC(uint64(llcAcc))
		meter.CountDRAM(uint64(dramAcc))
		res.LLCAccesses += llcAcc
		res.DRAMAccesses += dramAcc
		now = now.Add(quantum)

		// Retire phases and requeue.
		for _, t := range running {
			if t.state != ready {
				continue
			}
			if t.remain <= 0.5 {
				finished := t.at
				released := advancePhase(t)
				for _, w := range release(t, finished) {
					w.state = ready
					rq.Enqueue(w, &w.ent)
				}
				for _, r := range released {
					if tryAdmit(r) {
						rq.Enqueue(r, &r.ent)
					}
				}
				if t.state == ready && !tryAdmit(t) {
					continue // parked on the wait queue
				}
			}
			if t.state == ready {
				rq.Enqueue(t, &t.ent)
			}
		}
	}

	res.Elapsed = now.DurationSince(0)
	res.SystemJ = meter.SystemJoules()
	res.DRAMJ = meter.DRAMJoules()
	return res, nil
}
