// Package faults injects deterministic, seeded misbehavior into
// workloads. The paper's Algorithm 1 assumes cooperative applications
// that declare honest demands and always pair pp_begin with pp_end; a
// production admission service gets clients that lie, leak, and crash. A
// Plan perturbs a workload with the five failure modes the chaos
// experiments (E4) sweep:
//
//   - demand misdeclaration: the declared working set is the physical
//     one scaled by a random factor (over- or under-declaration);
//   - unsatisfiable demands: the declared working set exceeds the policy
//     limit, so the period can never be admitted alongside other load;
//   - leaked periods: a declared phase whose pp_end is never called;
//   - crashes: every thread of a process dies partway through a declared
//     phase, inside the progress period;
//   - arrival bursts: processes arrive in staggered waves instead of all
//     at t=0, so admission pressure comes in spikes.
//
// Apply is a pure function of (plan, workload, seed): the same inputs
// produce the same faulted workload on any machine, which keeps chaos
// experiments bit-reproducible under the parallel runner.
package faults

import (
	"math"

	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/runner"
	"rdasched/internal/sim"
)

// Plan describes a fault mix. Rates are per-candidate probabilities in
// [0, 1]; the zero value injects nothing.
type Plan struct {
	// MisdeclareRate is the fraction of declared phases whose declared
	// working set lies: physical WSS scaled by a factor drawn
	// log-uniformly from [1/MisdeclareMax, MisdeclareMax].
	MisdeclareRate float64
	// MisdeclareMax bounds the misdeclaration factor (default 4).
	MisdeclareMax float64
	// LeakRate is the fraction of declared phases that never call
	// pp_end, leaving their demand registered until a lease reclaims it.
	LeakRate float64
	// CrashRate is the per-declared-phase probability that the process
	// dies partway through that phase (at most one crash per process;
	// later phases never run).
	CrashRate float64
	// OversizeRate is the fraction of declared phases that declare an
	// unsatisfiable demand: 2.5–3.5x Capacity, above both the strict
	// limit and the paper's compromise limit (x = 2).
	OversizeRate float64
	// Capacity is the reference capacity for OversizeRate (the machine's
	// LLC size); zero disables oversize injection.
	Capacity pp.Bytes
	// BurstWaves, when > 1, staggers process arrivals into that many
	// waves: process i joins wave i mod BurstWaves and spins through
	// WaveSpacingInstr undeclared instructions per wave index before its
	// real program starts.
	BurstWaves int
	// WaveSpacingInstr is the spin length separating waves.
	WaveSpacingInstr float64

	// DomainFaults are domain-level faults scheduled on the virtual
	// clock (shard capacity loss, crashes, ledger corruption). Unlike
	// the per-process modes above they do not transform the workload —
	// the harness arms them on the run's event engine against the
	// DomainSet (see internal/perf).
	DomainFaults []DomainFault

	// KillAt, when positive, kills the whole scheduler process at that
	// virtual time: the run's event engine halts mid-schedule, exactly as
	// if the host died. It is a run-level fault like DomainFaults — armed
	// by the harness, not a workload transform — and deliberately not
	// part of Enabled(): a kill does not perturb the workload, it
	// truncates the run (the crash-restart experiment, E9, restores and
	// resumes it).
	KillAt sim.Duration
}

// DomainFaultKind classifies a scheduled domain-level fault.
type DomainFaultKind int

const (
	// DomainCapacityLoss removes Frac of the target shard's baseline
	// LLC share at time At.
	DomainCapacityLoss DomainFaultKind = iota
	// DomainCrash takes the target shard fully offline at time At,
	// triggering the configured recovery mode.
	DomainCrash
	// DomainLedgerSkew corrupts the target shard's LLC load table by
	// Skew bytes at time At (repaired by the invariant auditor).
	DomainLedgerSkew
)

// DomainFault is one scheduled domain-level fault.
type DomainFault struct {
	Kind   DomainFaultKind
	Domain int          // target shard index
	At     sim.Duration // virtual time from run start
	Frac   float64      // DomainCapacityLoss: fraction of the baseline share lost
	Skew   pp.Bytes     // DomainLedgerSkew: signed ledger offset
	// Heal, when positive, schedules RecoverDomain at At+Heal for
	// capacity-loss and crash faults (zero = the fault is permanent).
	Heal sim.Duration
}

// DomainPlan returns a seeded schedule of domain faults for a set of n
// domains: one crash of a seed-chosen shard at crashAt (healing after
// heal, if positive) plus one positive ledger skew on a different shard
// at half the crash time. n < 2 returns nothing — there is no shard to
// evacuate to.
func DomainPlan(seed uint64, n int, crashAt, heal sim.Duration, skew pp.Bytes) []DomainFault {
	if n < 2 || crashAt <= 0 {
		return nil
	}
	rng := sim.NewRNG(runner.Seed(seed, 0x0d0f))
	crashed := int(rng.Uint64() % uint64(n))
	skewed := (crashed + 1 + int(rng.Uint64()%uint64(n-1))) % n
	return []DomainFault{
		{Kind: DomainLedgerSkew, Domain: skewed, At: crashAt / 2, Skew: skew},
		{Kind: DomainCrash, Domain: crashed, At: crashAt, Heal: heal},
	}
}

// Uniform returns a plan injecting every failure mode at the same rate
// against the given capacity, with default factor bounds and a two-wave
// arrival burst.
func Uniform(rate float64, capacity pp.Bytes) Plan {
	return Plan{
		MisdeclareRate:   rate,
		MisdeclareMax:    4,
		LeakRate:         rate,
		CrashRate:        rate,
		OversizeRate:     rate / 2,
		Capacity:         capacity,
		BurstWaves:       2,
		WaveSpacingInstr: 5e6,
	}
}

// Enabled reports whether the plan injects anything.
func (p Plan) Enabled() bool {
	return p.MisdeclareRate > 0 || p.LeakRate > 0 || p.CrashRate > 0 ||
		(p.OversizeRate > 0 && p.Capacity > 0) || (p.BurstWaves > 1 && p.WaveSpacingInstr > 0)
}

// Apply returns a fault-injected deep copy of w. Each process draws its
// faults from an RNG derived from (seed, process index) alone, so the
// result is independent of evaluation order and identical across reruns.
func (p Plan) Apply(w proc.Workload, seed uint64) proc.Workload {
	if !p.Enabled() {
		return w
	}
	out := proc.Workload{Name: w.Name, Procs: make([]proc.Spec, 0, len(w.Procs))}
	for i, s := range w.Procs {
		out.Procs = append(out.Procs, p.applyProc(s, i, sim.NewRNG(runner.Seed(seed, uint64(i)))))
	}
	return out
}

func (p Plan) applyProc(s proc.Spec, idx int, rng *sim.RNG) proc.Spec {
	c := s.Clone()
	crashed := false
	for j := range c.Program {
		ph := &c.Program[j]
		if !ph.Declared {
			continue
		}
		if p.OversizeRate > 0 && p.Capacity > 0 && rng.Float64() < p.OversizeRate {
			ph.DeclaredWSS = pp.Bytes((2.5 + rng.Float64()) * float64(p.Capacity))
		} else if p.MisdeclareRate > 0 && rng.Float64() < p.MisdeclareRate {
			ph.DeclaredWSS = misdeclare(ph.OccupancyBytes(), p.misdeclareMax(), rng)
		}
		if p.LeakRate > 0 && rng.Float64() < p.LeakRate {
			ph.LeakEnd = true
		}
		if !crashed && p.CrashRate > 0 && rng.Float64() < p.CrashRate {
			ph.CrashFrac = 0.25 + 0.7*rng.Float64()
			crashed = true
		}
	}
	if wave := p.wave(idx); wave > 0 {
		arrive := proc.Phase{
			Name:  "arrive",
			Instr: float64(wave) * p.WaveSpacingInstr,
			Reuse: pp.ReuseLow,
		}
		c.Program = append(proc.Program{arrive}, c.Program...)
	}
	return c
}

func (p Plan) misdeclareMax() float64 {
	if p.MisdeclareMax > 1 {
		return p.MisdeclareMax
	}
	return 4
}

func (p Plan) wave(procIdx int) int {
	if p.BurstWaves <= 1 || p.WaveSpacingInstr <= 0 {
		return 0
	}
	return procIdx % p.BurstWaves
}

// misdeclare scales ws by a factor drawn log-uniformly from [1/max, max],
// clamped below at one page so the lie stays a valid demand.
func misdeclare(ws pp.Bytes, max float64, rng *sim.RNG) pp.Bytes {
	f := math.Pow(max, 2*rng.Float64()-1)
	lied := pp.Bytes(float64(ws) * f)
	if lied < 4*pp.KiB {
		lied = 4 * pp.KiB
	}
	return lied
}
