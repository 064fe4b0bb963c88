// Package memtrace generates and represents load/store address streams.
// It substitutes for Intel PIN in the paper's toolchain: where the authors
// instrumented binaries to dump the virtual address of every memory
// operation, we synthesize streams whose footprint, working-set size, and
// reuse behaviour match the workloads in Table 2. The profiler
// (internal/profiler) consumes these streams exactly as the paper's
// profiler consumed PIN output: in fixed-size instruction windows.
package memtrace

import (
	"fmt"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// Ref is one memory reference: the retiring instruction index (within the
// trace), the virtual address, and whether it is a store. IsJump marks
// retired JMP instructions, which the profiler samples to correlate
// windows with loop structure (the paper uses Dyninst ParseAPI for this).
type Ref struct {
	Instr  uint64
	Addr   uint64
	Store  bool
	IsJump bool
	// JumpSite identifies the static branch location for IsJump refs
	// (meaningless otherwise); the profiler maps sites to loops.
	JumpSite int
}

// Stream produces references one at a time. Next returns false when the
// stream is exhausted.
type Stream interface {
	Next() (Ref, bool)
}

// SliceStream replays a pre-materialized trace.
type SliceStream struct {
	refs []Ref
	pos  int
}

// NewSliceStream wraps refs.
func NewSliceStream(refs []Ref) *SliceStream { return &SliceStream{refs: refs} }

// Next implements Stream.
func (s *SliceStream) Next() (Ref, bool) {
	if s.pos >= len(s.refs) {
		return Ref{}, false
	}
	r := s.refs[s.pos]
	s.pos++
	return r, true
}

// Reset rewinds the stream.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of references.
func (s *SliceStream) Len() int { return len(s.refs) }

// Collect drains a stream into a slice (testing/profiling convenience).
func Collect(s Stream, max int) []Ref {
	var out []Ref
	for {
		r, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, r)
		if max > 0 && len(out) >= max {
			return out
		}
	}
}

// Gen is a synthetic reference generator: a base address region plus an
// access pattern. Generators are deterministic given their RNG seed.
type Gen struct {
	rng *sim.RNG
	// instr counts instructions emitted so far across all patterns,
	// including non-memory filler instructions.
	instr uint64
	out   []Ref
}

// NewGen returns a generator with a seeded RNG.
func NewGen(seed uint64) *Gen {
	return &Gen{rng: sim.NewRNG(seed)}
}

// Instructions returns the number of instructions the generated trace
// represents so far (memory and non-memory).
func (g *Gen) Instructions() uint64 { return g.instr }

// Trace returns the accumulated references as a replayable stream.
func (g *Gen) Trace() *SliceStream { return NewSliceStream(g.out) }

// Refs returns the raw accumulated references.
func (g *Gen) Refs() []Ref { return g.out }

func (g *Gen) emit(addr uint64, store bool) {
	g.out = append(g.out, Ref{Instr: g.instr, Addr: addr, Store: store})
	g.instr++
}

// Compute advances the instruction counter by n without touching memory
// (models register-only arithmetic between references).
func (g *Gen) Compute(n uint64) { g.instr += n }

// Jump emits a retired JMP at the given static site.
func (g *Gen) Jump(site int) {
	g.out = append(g.out, Ref{Instr: g.instr, IsJump: true, JumpSite: site})
	g.instr++
}

// Stream sweeps a region of size bytes once, sequentially, with `stride`
// bytes between references and computeGap filler instructions after each
// reference. This is the BLAS-1 / streaming pattern: footprint == bytes
// touched, reuse ≈ 1.
func (g *Gen) Stream(base uint64, size pp.Bytes, stride int, computeGap uint64) {
	if stride <= 0 {
		stride = 8
	}
	for off := uint64(0); off < uint64(size); off += uint64(stride) {
		g.emit(base+off, false)
		g.Compute(computeGap)
	}
}

// RandomInSet touches count random addresses uniformly inside a region of
// the given size. Repeated passes reuse the same region, so reuse grows
// with count/size. This is the "hot working set" pattern of the paper's
// high-reuse periods.
func (g *Gen) RandomInSet(base uint64, size pp.Bytes, count int, computeGap uint64) {
	if size <= 0 {
		return
	}
	for i := 0; i < count; i++ {
		off := g.rng.Uint64n(uint64(size)) &^ 7 // 8-byte aligned
		g.emit(base+off, false)
		g.Compute(computeGap)
	}
}

// SweepRepeat performs `passes` sequential sweeps over the region: the
// cyclic-reuse pattern (BLAS-2-like: vector reused across matrix rows).
func (g *Gen) SweepRepeat(base uint64, size pp.Bytes, stride, passes int, computeGap uint64) {
	for p := 0; p < passes; p++ {
		g.Stream(base, size, stride, computeGap)
	}
}

// BlockedMatMul emits the access pattern of a blocked n×n×n matrix
// multiply with block size b over three matrices at bases a, bb, c
// (8-byte elements). It is a faithful (if reduced-rate) image of the
// dgemm kernel's locality: within a block triple, the same b×b panels are
// re-touched b times.
//
// To keep traces tractable, `sample` emits only every sample-th innermost
// reference while still advancing the instruction counter for skipped
// ones; footprint and reuse ratios are preserved in expectation.
func (g *Gen) BlockedMatMul(a, bb, c uint64, n, b, sample int) {
	if b <= 0 || n <= 0 {
		return
	}
	if sample <= 0 {
		sample = 1
	}
	elem := uint64(8)
	idx := func(base uint64, row, col int) uint64 {
		return base + (uint64(row)*uint64(n)+uint64(col))*elem
	}
	emitted := 0
	for i0 := 0; i0 < n; i0 += b {
		for j0 := 0; j0 < n; j0 += b {
			for k0 := 0; k0 < n; k0 += b {
				g.Jump(0) // block-loop back-edge
				for i := i0; i < min(i0+b, n); i++ {
					for j := j0; j < min(j0+b, n); j++ {
						for k := k0; k < min(k0+b, n); k++ {
							emitted++
							if emitted%sample == 0 {
								g.emit(idx(a, i, k), false)
								g.emit(idx(bb, k, j), false)
								g.emit(idx(c, i, j), true)
								g.Compute(2) // fused multiply-add + index math
							} else {
								g.instr += 5
							}
						}
					}
				}
			}
		}
	}
}

// PhasedRegion models one progress period of a SPLASH-2-like application:
// `touches` references spread over a region whose *hot* subset has the
// given size; a fraction `hotFrac` of references go to the hot subset and
// the rest stream through a cold region (sampling noise, exactly what
// makes WSS < footprint in the paper's profiler).
func (g *Gen) PhasedRegion(base uint64, hot pp.Bytes, cold pp.Bytes, hotFrac float64, touches int, computeGap uint64) {
	if hot <= 0 {
		hot = 64
	}
	coldPos := uint64(0)
	for i := 0; i < touches; i++ {
		if g.rng.Float64() < hotFrac {
			off := g.rng.Uint64n(uint64(hot)) &^ 7
			g.emit(base+off, false)
		} else if cold > 0 {
			g.emit(base+uint64(hot)+coldPos%uint64(cold), false)
			coldPos += 64
		} else {
			off := g.rng.Uint64n(uint64(hot)) &^ 7
			g.emit(base+off, false)
		}
		g.Compute(computeGap)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Footprint returns the number of distinct 64-byte lines touched by refs —
// the "memory footprint" statistic of the paper's profiler (§2.4).
func Footprint(refs []Ref) int {
	seen := make(map[uint64]struct{})
	for _, r := range refs {
		if r.IsJump {
			continue
		}
		seen[r.Addr>>6] = struct{}{}
	}
	return len(seen)
}

// FootprintBytes returns Footprint scaled to bytes.
func FootprintBytes(refs []Ref) pp.Bytes { return pp.Bytes(Footprint(refs)) * 64 }

// Summary renders a short trace summary: reference, memory-reference
// and jump counts, and the footprint.
func Summary(refs []Ref) string {
	mem := 0
	for _, r := range refs {
		if !r.IsJump {
			mem++
		}
	}
	return fmt.Sprintf("%d refs (%d mem, %d jumps), footprint %s",
		len(refs), mem, len(refs)-mem, FootprintBytes(refs))
}
