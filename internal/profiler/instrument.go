package profiler

import (
	"fmt"

	"rdasched/internal/proc"
)

// Instrument is the automated API-insertion step the paper leaves to "a
// compiler or a binary translator" (§2.4): given an *uninstrumented*
// program and the progress periods a profiling run detected, it returns a
// copy of the program with pp_begin/pp_end brackets (the Declared flag)
// inserted around every phase whose instruction range lies inside a
// detected period, carrying the *measured* demand rather than the
// phase's nominal one.
//
// Matching is positional: the program's phases are laid out end to end
// in instruction space, exactly as they execute single-threaded, and a
// phase is instrumented when at least minOverlap of it falls inside one
// period. Phases containing barriers are never instrumented (§3.4: no
// blocking synchronization inside a period). A repeated phase (Repeat >
// 1) is rejected: periods may cover only some of its repetitions, which
// one Phase cannot express.
func Instrument(prog proc.Program, periods []Period, minOverlap float64) (proc.Program, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if minOverlap <= 0 || minOverlap > 1 {
		return nil, fmt.Errorf("profiler: overlap threshold %v outside (0,1]", minOverlap)
	}
	for i := range prog {
		if prog[i].Repeats() > 1 {
			return nil, fmt.Errorf("profiler: phase %d (%q) repeats %d times; list the repetitions to instrument them", i, prog[i].Name, prog[i].Repeat)
		}
	}
	out := make(proc.Program, len(prog))
	copy(out, prog)

	var offset float64
	for i := range out {
		ph := &out[i]
		start, end := offset, offset+ph.Instr
		offset = end
		if ph.BarrierAfter {
			continue
		}
		for _, p := range periods {
			ovl := overlap(start, end, float64(p.StartInstr), float64(p.EndInstr))
			if ovl/ph.Instr < minOverlap {
				continue
			}
			d := p.Demand()
			ph.Declared = true
			ph.WSS = d.WorkingSet
			ph.Reuse = d.Reuse
			break
		}
	}
	return out, nil
}

func overlap(a0, a1, b0, b1 float64) float64 {
	lo, hi := a0, a1
	if b0 > lo {
		lo = b0
	}
	if b1 < hi {
		hi = b1
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}
