// Package memtrace generates and represents load/store address streams.
// It substitutes for Intel PIN in the paper's toolchain: where the authors
// instrumented binaries to dump the virtual address of every memory
// operation, we synthesize streams whose footprint, working-set size, and
// reuse behaviour match the workloads in Table 2. The profiler
// (internal/profiler) consumes these streams exactly as the paper's
// profiler consumed PIN output: in fixed-size instruction windows.
package memtrace

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
