package machine

import (
	"math"

	"rdasched/internal/pp"
	"rdasched/internal/proc"
)

// residency is min(1, capacity/pressure): the fraction of each working
// set that stays resident under symmetric LRU sharing. The pressure
// ledger counts one working set per (process, phase) group of Ready
// threads, because threads of a process share their phase's data.
func (m *Machine) residency() float64 {
	if m.pressure > m.cfg.LLCCapacity {
		return float64(m.cfg.LLCCapacity) / float64(m.pressure)
	}
	return 1
}

// phasePerf is the per-instruction performance decomposition of one phase
// under a given contention state.
type perfParams struct {
	cpi          float64
	llcPerInstr  float64 // accesses reaching the shared LLC per instruction
	dramPerInstr float64 // accesses continuing to DRAM per instruction
}

// phasePerf evaluates the CPI model of DESIGN.md §5:
//
//	CPI = base
//	    + api·p_priv·c_priv
//	    + api·(1-p_priv)·(1-MLP)·(h·c_llc + (1-h)·c_dram)
//
// where h = (1-StreamFrac)·HMax(reuse)·resid: streaming accesses never
// hit the LLC; resident-set accesses hit in proportion to how much of the
// working set survives contention, resid = residency^γ, sharpened by the
// LRU over-capacity cliff (γ = Config.ResidencyExponent). The caller
// computes resid once per ledger pressure; it is the same for every phase.
// Besides resid, the result depends only on the fields a rateKey holds.
func (m *Machine) phasePerf(ph *proc.Phase, resid float64) perfParams {
	api := ph.AccessesPerInstr
	llcPerInstr := api * (1 - ph.PrivateHitFrac)
	// A partitioned phase keeps at most partition/WSS of its set
	// resident, however empty the shared pool is.
	if ph.CachePartition > 0 && ph.WSS > 0 {
		if own := float64(ph.OccupancyBytes()) / float64(ph.WSS); own < resid {
			resid = own
		}
	}
	h := (1 - ph.StreamFrac) * m.cfg.HMax[ph.Reuse] * resid
	exposed := 1 - m.cfg.MLPOverlap
	cpi := m.cfg.BaseCPI +
		api*ph.PrivateHitFrac*m.cfg.PrivateHitCycles +
		llcPerInstr*exposed*(h*m.cfg.LLCHitCycles+(1-h)*m.cfg.DRAMCycles)
	return perfParams{
		cpi:          cpi,
		llcPerInstr:  llcPerInstr,
		dramPerInstr: llcPerInstr * (1 - h),
	}
}

// rateKey holds, bit for bit, the phase fields a thread's rate, LLC and
// DRAM accesses per instruction and flops per instruction depend on:
// phasePerf's inputs besides the residency, plus FlopsPerInstr, which
// advance reads. Bits rather than float values make -0 and +0 distinct
// classes and a NaN field equal to itself.
type rateKey struct {
	api, privHit, stream, flops uint64
	reuse                       pp.Reuse
	// partition and wss are zero unless the phase is partitioned, the
	// only case in which phasePerf reads them.
	partition, wss pp.Bytes
}

func keyOf(ph *proc.Phase) rateKey {
	k := rateKey{
		api:     math.Float64bits(ph.AccessesPerInstr),
		privHit: math.Float64bits(ph.PrivateHitFrac),
		stream:  math.Float64bits(ph.StreamFrac),
		flops:   math.Float64bits(ph.FlopsPerInstr),
		reuse:   ph.Reuse,
	}
	if ph.CachePartition > 0 {
		k.partition, k.wss = ph.CachePartition, ph.WSS
	}
	return k
}

// rateClass is the set of phases with one rateKey. Every Ready thread of
// a class runs at the same rate, so reschedule evaluates phasePerf, the
// rate and the DRAM traffic once per class with Ready threads, and every
// thread reads them from here. Classes are interned by value, not by
// phase pointer, because jitter gives every process its own Program.
type rateClass struct {
	key           rateKey
	ph            *proc.Phase // the first phase interned: phasePerf's input
	flopsPerInstr float64
	ready         int // Ready threads in the class
	pos           int // index in Machine.present while ready > 0

	// Model outputs, valid between reschedules while ready > 0. All but
	// rate depend only on the core share and residency^γ they were
	// computed at, so reschedule recomputes them only when one moves.
	share, resid float64
	base         float64 // instructions/second of one thread before the roofline
	traffic      float64 // DRAM bytes/second of one thread at base
	llcPerInstr  float64
	dramPerInstr float64
	rate         float64 // instructions/second of one thread: base scaled by the roofline
}

// intern returns the rate class of ph, creating it on first sight. A
// thread entering a phase usually joins a class that is already running,
// so the classes with Ready threads are tried before the map; reschedule
// walks that list on every event anyway.
func (m *Machine) intern(ph *proc.Phase) *rateClass {
	k := keyOf(ph)
	for _, c := range m.present {
		if c.key == k {
			return c
		}
	}
	c, ok := m.classes[k]
	if !ok {
		c = &rateClass{key: k, ph: ph, flopsPerInstr: ph.FlopsPerInstr}
		m.classes[k] = c
	}
	return c
}
