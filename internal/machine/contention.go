package machine

import "rdasched/internal/proc"

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
// computes resid once per reschedule; it is the same for every phase.
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
