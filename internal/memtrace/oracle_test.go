package memtrace

import (
	"math"
	"testing"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// oracleStream is the original PhasedStream: Next walks the phases one
// instruction per loop pass, placing a jump or adding the reference
// density to the carry at each. It is kept as the differential oracle
// for the batched Read.
type oracleStream struct {
	phases []PhaseSpec
	rng    *sim.RNG

	phase    int
	instr    uint64
	phInstr  uint64
	coldPos  uint64
	nextJump uint64
	base     uint64
	carry    float64
}

func newOracleStream(seed uint64, phases ...PhaseSpec) *oracleStream {
	return &oracleStream{phases: phases, rng: sim.NewRNG(seed), base: 1 << 30}
}

func (s *oracleStream) Next() (Ref, bool) {
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
			s.base += 1 << 30
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

// randomPhases draws a list of zero to four phases from rng. Each field
// takes its edge values often: densities of 0, the smallest float, 1
// and just below 1; empty hot sets and cold regions; no jump site;
// JumpEvery 0 (the default period), 1 (every instruction a jump) and
// periods longer than the phase; ColdStride 0; and empty phases.
func randomPhases(rng *sim.RNG) []PhaseSpec {
	pick := func(vals ...float64) float64 { return vals[rng.Intn(len(vals))] }
	phases := make([]PhaseSpec, rng.Intn(5))
	for i := range phases {
		ph := PhaseSpec{
			RefsPerInstr: pick(0, math.SmallestNonzeroFloat64, 1e-3, math.Nextafter(1, 0), 1, rng.Float64(), rng.Float64()),
			HotFrac:      pick(0, 1, rng.Float64()),
			Site:         rng.Intn(6) - 2,
		}
		switch rng.Intn(10) {
		case 0: // empty
		case 1:
			ph.Instr = uint64(1 + rng.Intn(40_000))
		default:
			ph.Instr = uint64(1 + rng.Intn(4000))
		}
		if rng.Intn(4) != 0 {
			ph.HotBytes = pp.Bytes(1 + rng.Intn(1<<(4+rng.Intn(16))))
		}
		if rng.Intn(4) != 0 {
			ph.ColdBytes = pp.Bytes(1 + rng.Intn(1<<(4+rng.Intn(20))))
		}
		switch rng.Intn(5) {
		case 0: // the default period
		case 1:
			ph.JumpEvery = 1
		case 2:
			ph.JumpEvery = uint64(2 + rng.Intn(50))
		default: // often longer than the phase
			ph.JumpEvery = uint64(2 + rng.Intn(10_000))
		}
		if rng.Intn(3) != 0 {
			ph.ColdStride = uint64(1 + rng.Intn(1024))
		}
		phases[i] = ph
	}
	return phases
}

// checkStreamAgainstOracle generates the phase list seed draws twice
// through PhasedStream, once by Next and once by Read with batch sizes
// of 1 to 300, and fails on the first reference, or end of stream, that
// differs from the oracle's.
func checkStreamAgainstOracle(t *testing.T, seed uint64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	phases := randomPhases(rng)

	s, o := NewPhasedStream(seed, phases...), newOracleStream(seed, phases...)
	for i := 0; ; i++ {
		got, ok := s.Next()
		want, wantOK := o.Next()
		if got != want || ok != wantOK {
			t.Fatalf("seed %d %+v: Next %d = (%+v, %v), oracle (%+v, %v)",
				seed, phases, i, got, ok, want, wantOK)
		}
		if !ok {
			break
		}
	}

	s, o = NewPhasedStream(seed, phases...), newOracleStream(seed, phases...)
	buf := make([]Ref, 300)
	for i := 0; ; {
		k := 1 + rng.Intn(len(buf))
		n := s.Read(buf[:k])
		if n < 0 || n > k {
			t.Fatalf("seed %d %+v: Read of %d returned %d", seed, phases, k, n)
		}
		for _, got := range buf[:n] {
			want, ok := o.Next()
			if !ok || got != want {
				t.Fatalf("seed %d %+v: Read ref %d = %+v, oracle (%+v, %v)",
					seed, phases, i, got, want, ok)
			}
			i++
		}
		if n < k {
			if want, ok := o.Next(); ok {
				t.Fatalf("seed %d %+v: Read ended after %d refs, oracle has %+v next",
					seed, phases, i, want)
			}
			if n := s.Read(buf[:k]); n != 0 {
				t.Fatalf("seed %d %+v: Read after the end returned %d", seed, phases, n)
			}
			return
		}
	}
}

// FuzzPhasedStreamMatchesOracle compares PhasedStream, drained through
// Next and through Read, with the original per-instruction generator on
// random phase lists.
func FuzzPhasedStreamMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkStreamAgainstOracle(t, seed)
	})
}

// TestPhasedStreamMatchesOracle sweeps fixed seeds through the same
// check as FuzzPhasedStreamMatchesOracle.
func TestPhasedStreamMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 400; seed++ {
		checkStreamAgainstOracle(t, seed)
	}
}
