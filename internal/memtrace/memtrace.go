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
