package memtrace

import (
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// FuncStream adapts a generator function to the Stream interface: next()
// returns the next reference, or ok=false at end of trace. It lets
// multi-gigabyte traces be profiled without materializing them.
type FuncStream struct {
	next func() (Ref, bool)
}

// NewFuncStream wraps next.
func NewFuncStream(next func() (Ref, bool)) *FuncStream {
	return &FuncStream{next: next}
}

// Next implements Stream.
func (f *FuncStream) Next() (Ref, bool) { return f.next() }

// PhaseSpec describes one phase of a lazily generated trace: `Instr`
// instructions during which memory references touch a hot region
// uniformly, a cold region sequentially, and a JMP at `Site` retires
// every JumpEvery instructions.
type PhaseSpec struct {
	Name string
	// Instr is the phase length in instructions.
	Instr uint64
	// RefsPerInstr is the memory-reference density (0..1].
	RefsPerInstr float64
	// HotBytes is the size of the phase's hot working set.
	HotBytes pp.Bytes
	// ColdBytes is a streamed region causing footprint > WSS (0 = none).
	ColdBytes pp.Bytes
	// HotFrac is the fraction of references aimed at the hot set.
	HotFrac float64
	// Site is the static JMP site retired during this phase (loop
	// back-edge); < 0 emits no jumps.
	Site int
	// JumpEvery is the instruction period of JMP retirement (default 8192).
	JumpEvery uint64
	// ColdStride is the byte step of the cold stream (default 512). Keep
	// it at or above the profiler's entry granularity so streamed data
	// reads as footprint, not working set — each cold entry is touched
	// only once per pass.
	ColdStride uint64
}

// PhasedStream lazily generates the concatenation of phases. Each phase
// gets its own base address region so working sets do not alias.
type PhasedStream struct {
	phases []PhaseSpec
	rng    *sim.RNG

	phase    int
	instr    uint64 // global instruction counter
	phInstr  uint64 // instructions into current phase
	coldPos  uint64
	nextJump uint64
	base     uint64
	carry    float64 // fractional references owed
}

// NewPhasedStream builds the stream; the seed fixes the reference
// pattern.
func NewPhasedStream(seed uint64, phases ...PhaseSpec) *PhasedStream {
	return &PhasedStream{phases: phases, rng: sim.NewRNG(seed), base: 1 << 30}
}

// Next implements Stream. It emits one Ref per memory reference or jump;
// pure-compute instructions advance the counters silently.
func (s *PhasedStream) Next() (Ref, bool) {
	for {
		if s.phase >= len(s.phases) {
			return Ref{}, false
		}
		ph := &s.phases[s.phase]
		if s.phInstr >= ph.Instr {
			s.phase++
			s.phInstr = 0
			s.coldPos = 0
			s.nextJump = 0
			s.base += 1 << 30 // fresh address region per phase
			continue
		}
		je := ph.JumpEvery
		if je == 0 {
			je = 8192
		}
		if ph.Site >= 0 && s.phInstr >= s.nextJump {
			s.nextJump += je
			r := Ref{Instr: s.instr, IsJump: true, JumpSite: ph.Site}
			s.instr++
			s.phInstr++
			return r, true
		}
		s.carry += ph.RefsPerInstr
		s.instr++
		s.phInstr++
		if s.carry < 1 {
			continue
		}
		s.carry--
		var addr uint64
		if ph.HotBytes > 0 && (ph.ColdBytes == 0 || s.rng.Float64() < ph.HotFrac) {
			addr = s.base + (s.rng.Uint64n(uint64(ph.HotBytes)) &^ 7)
		} else {
			cold := uint64(ph.ColdBytes)
			if cold == 0 {
				cold = 64
			}
			stride := ph.ColdStride
			if stride == 0 {
				stride = 512
			}
			addr = s.base + uint64(ph.HotBytes) + (s.coldPos % cold)
			s.coldPos += stride
		}
		return Ref{Instr: s.instr - 1, Addr: addr}, true
	}
}
