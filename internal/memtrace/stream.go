package memtrace

import (
	"fmt"

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
	// RefsPerInstr is the memory-reference density, in [0, 1]: at 1
	// every instruction that is not a jump references memory.
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

// Validate rejects a phase the generator cannot honour: a reference
// density or hot fraction that is not a finite number in [0, 1], or a
// negative region size, which would place addresses outside the
// phase's own address region.
func (ph PhaseSpec) Validate() error {
	switch {
	case !(ph.RefsPerInstr >= 0 && ph.RefsPerInstr <= 1):
		return fmt.Errorf("memtrace: phase %q: refs per instruction %v outside [0, 1]", ph.Name, ph.RefsPerInstr)
	case !(ph.HotFrac >= 0 && ph.HotFrac <= 1):
		return fmt.Errorf("memtrace: phase %q: hot fraction %v outside [0, 1]", ph.Name, ph.HotFrac)
	case ph.HotBytes < 0:
		return fmt.Errorf("memtrace: phase %q: negative hot set %d", ph.Name, ph.HotBytes)
	case ph.ColdBytes < 0:
		return fmt.Errorf("memtrace: phase %q: negative cold region %d", ph.Name, ph.ColdBytes)
	}
	return nil
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
// pattern. It panics on a phase that fails PhaseSpec.Validate (phase
// lists are written by the program, so a bad one is a programming
// error).
func NewPhasedStream(seed uint64, phases ...PhaseSpec) *PhasedStream {
	for _, ph := range phases {
		if err := ph.Validate(); err != nil {
			panic(err)
		}
	}
	return &PhasedStream{phases: phases, rng: sim.NewRNG(seed), base: 1 << 30}
}

// Next implements Stream: it is a one-reference Read.
func (s *PhasedStream) Next() (Ref, bool) {
	var buf [1]Ref
	if s.Read(buf[:]) == 0 {
		return Ref{}, false
	}
	return buf[0], true
}

// Read fills buf with the stream's next references and returns how many
// it wrote. It emits one Ref per memory reference or jump; pure-compute
// instructions advance the counters silently. It fills all of buf
// unless the stream ends first, so a count below len(buf) marks the end
// of the stream.
func (s *PhasedStream) Read(buf []Ref) int {
	n := 0
	for n < len(buf) && s.phase < len(s.phases) {
		ph := &s.phases[s.phase]
		if s.phInstr >= ph.Instr {
			s.phase++
			s.phInstr = 0
			s.coldPos = 0
			s.nextJump = 0
			s.base += 1 << 30 // fresh address region per phase
			continue
		}
		// end is the next instruction that is not a plain one: the
		// phase end or the next jump.
		end := ph.Instr
		if ph.Site >= 0 {
			if s.phInstr >= s.nextJump {
				je := ph.JumpEvery
				if je == 0 {
					je = 8192
				}
				s.nextJump += je
				buf[n] = Ref{Instr: s.instr, IsJump: true, JumpSite: ph.Site}
				n++
				s.instr++
				s.phInstr++
				continue
			}
			end = min(end, s.nextJump)
		}
		// Retire plain instructions up to end, emitting a reference
		// whenever a whole one is owed. The carry takes one addition
		// per instruction, not a computed skip: the reference
		// positions depend on its rounding at every step. start is the
		// global index of the phase's first instruction.
		i, carry, start := s.phInstr, s.carry, s.instr-s.phInstr
		for i < end && n < len(buf) {
			carry += ph.RefsPerInstr
			i++
			if carry < 1 {
				continue
			}
			carry--
			// The reference touches a uniformly random word of the hot
			// set or the next step of the cold stream. This stays
			// inline: as a call it cost Read a fifth of its time.
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
			buf[n] = Ref{Instr: start + i - 1, Addr: addr}
			n++
		}
		s.instr, s.phInstr, s.carry = start+i, i, carry
	}
	return n
}
