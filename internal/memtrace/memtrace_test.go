package memtrace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rdasched/internal/pp"
)

func TestSliceStream(t *testing.T) {
	refs := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	s := NewSliceStream(refs)
	var got []uint64
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, r.Addr)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream produced a ref")
	}
}

// drain reads s to exhaustion.
func drain(s Stream) []Ref {
	var out []Ref
	for {
		r, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// lines counts the distinct 64-byte lines refs touch, jumps excluded.
func lines(refs []Ref) int {
	seen := make(map[uint64]struct{})
	for _, r := range refs {
		if !r.IsJump {
			seen[r.Addr>>6] = struct{}{}
		}
	}
	return len(seen)
}

// The tests below pin each access pattern of a PhasedStream phase: the
// uniformly random hot set, the sequential cold stream, the JMP sites,
// and the pure-compute instructions between references.

// phaseBase is the first phase's address region.
const phaseBase = 1 << 30

// collectPhase generates one phase with no jumps and returns its refs.
func collectPhase(seed uint64, ph PhaseSpec) []Ref {
	ph.Site = -1
	return drain(NewPhasedStream(seed, ph))
}

func TestStreamFootprintMatchesRegion(t *testing.T) {
	// One pass of a 64-byte-stride cold stream touches every line of its
	// region once.
	refs := collectPhase(1, PhaseSpec{Instr: 1024, RefsPerInstr: 1,
		ColdBytes: 64 * pp.KiB, ColdStride: 64})
	if fp := lines(refs); fp != 1024 {
		t.Fatalf("footprint = %d lines, want 1024 (64KiB)", fp)
	}
	if len(refs) != 1024 {
		t.Fatalf("refs = %d", len(refs))
	}
}

func TestStreamDefaultStride(t *testing.T) {
	// ColdStride 0 falls back to 512 bytes.
	refs := collectPhase(1, PhaseSpec{Instr: 128, RefsPerInstr: 1, ColdBytes: 64 * pp.KiB})
	if len(refs) != 128 {
		t.Fatalf("refs = %d, want 128", len(refs))
	}
	for i := 1; i < len(refs); i++ {
		if d := refs[i].Addr - refs[i-1].Addr; d != 512 {
			t.Fatalf("ref %d: stride %d, want 512", i, d)
		}
	}
}

func TestComputeAdvancesInstructions(t *testing.T) {
	// At one reference per four instructions, three pure-compute
	// instructions retire silently before each reference.
	refs := collectPhase(1, PhaseSpec{Instr: 100, RefsPerInstr: 0.25, HotBytes: pp.KiB, HotFrac: 1})
	if len(refs) != 25 {
		t.Fatalf("refs = %d, want 25", len(refs))
	}
	for i, r := range refs {
		if want := uint64(4*i + 3); r.Instr != want {
			t.Fatalf("ref %d at instruction %d, want %d", i, r.Instr, want)
		}
	}
}

func TestRandomInSetBounded(t *testing.T) {
	f := func(seed uint64) bool {
		const size = 4 * pp.KiB
		refs := collectPhase(seed, PhaseSpec{Instr: 500, RefsPerInstr: 1, HotBytes: size, HotFrac: 1})
		for _, r := range refs {
			if r.Addr < phaseBase || r.Addr >= phaseBase+uint64(size) {
				return false
			}
			if r.Addr%8 != 0 {
				return false
			}
		}
		return len(refs) == 500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInSetReuseGrowsWithCount(t *testing.T) {
	refs := collectPhase(7, PhaseSpec{Instr: 10000, RefsPerInstr: 1, HotBytes: pp.KiB, HotFrac: 1})
	fp := lines(refs)
	// 1 KiB = 16 lines; 10000 touches must revisit heavily.
	if fp > 16 {
		t.Fatalf("footprint %d lines exceeds region", fp)
	}
	reuse := float64(len(refs)) / float64(fp)
	if reuse < 100 {
		t.Fatalf("reuse ratio %v too low for hot-set pattern", reuse)
	}
}

func TestSweepRepeat(t *testing.T) {
	// The cold stream wraps at the end of its region: five passes over
	// 1 KiB repeat the same 16 addresses in order.
	refs := collectPhase(1, PhaseSpec{Instr: 5 * 16, RefsPerInstr: 1,
		ColdBytes: pp.KiB, ColdStride: 64})
	if fp := lines(refs); fp != 16 {
		t.Fatalf("footprint = %d lines, want 16 (1KiB)", fp)
	}
	if got, want := len(refs), 5*16; got != want {
		t.Fatalf("refs = %d, want %d", got, want)
	}
	for i := 16; i < len(refs); i++ {
		if refs[i].Addr != refs[i-16].Addr {
			t.Fatalf("pass %d diverges at ref %d", i/16, i)
		}
	}
}

func TestPhasedRegionHotColdSplit(t *testing.T) {
	hot := 8 * pp.KiB
	refs := collectPhase(3, PhaseSpec{Instr: 20000, RefsPerInstr: 1,
		HotBytes: hot, ColdBytes: pp.MiB, HotFrac: 0.9})
	inHot := 0
	for _, r := range refs {
		if r.Addr < phaseBase+uint64(hot) {
			inHot++
		}
	}
	frac := float64(inHot) / float64(len(refs))
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction = %v, want ~0.9", frac)
	}
}

func TestPhasedRegionZeroCold(t *testing.T) {
	// With no cold region every reference hits the hot set, whatever
	// HotFrac says.
	refs := collectPhase(3, PhaseSpec{Instr: 1000, RefsPerInstr: 1, HotBytes: 4 * pp.KiB, HotFrac: 0.5})
	for _, r := range refs {
		if r.Addr >= phaseBase+uint64(4*pp.KiB) {
			t.Fatal("ref outside hot region with no cold region")
		}
	}
}

func TestJumpSites(t *testing.T) {
	s := NewPhasedStream(1,
		PhaseSpec{Instr: 1000, RefsPerInstr: 0.5, HotBytes: pp.KiB, HotFrac: 1, Site: 42, JumpEvery: 100},
		PhaseSpec{Instr: 1000, RefsPerInstr: 0.5, HotBytes: pp.KiB, HotFrac: 1, Site: -1},
	)
	var jumps []Ref
	for _, r := range drain(s) {
		if r.IsJump {
			jumps = append(jumps, r)
		}
	}
	if len(jumps) != 10 {
		t.Fatalf("jumps = %d, want 10 (one per 100 instructions of the first phase)", len(jumps))
	}
	for i, r := range jumps {
		if r.JumpSite != 42 || r.Instr != uint64(100*i) || r.Addr != 0 {
			t.Fatalf("jump %d = %+v", i, r)
		}
	}
}

// TestPhaseSpecValidate rejects one spec per rule, each of which the
// generator would otherwise have silently bent: a density above 1 or
// NaN still yields one reference per instruction, a negative one an
// empty stream, and a negative hot set addresses below the phase's own
// region. NewPhasedStream panics on each.
func TestPhaseSpecValidate(t *testing.T) {
	valid := PhaseSpec{Name: "p", Instr: 1000, RefsPerInstr: 0.5,
		HotBytes: pp.KiB, ColdBytes: pp.KiB, HotFrac: 0.5}
	for _, edge := range []PhaseSpec{
		valid,
		{Name: "zero"},
		{Name: "one", RefsPerInstr: 1, HotFrac: 1},
	} {
		if err := edge.Validate(); err != nil {
			t.Fatalf("%+v: %v", edge, err)
		}
	}
	for _, tc := range []struct {
		name string
		mut  func(*PhaseSpec)
		want string
	}{
		{"refs-above-one", func(p *PhaseSpec) { p.RefsPerInstr = 2 }, "refs per instruction"},
		{"refs-nan", func(p *PhaseSpec) { p.RefsPerInstr = math.NaN() }, "refs per instruction"},
		{"refs-negative", func(p *PhaseSpec) { p.RefsPerInstr = -0.5 }, "refs per instruction"},
		{"hot-frac-infinite", func(p *PhaseSpec) { p.HotFrac = math.Inf(1) }, "hot fraction"},
		{"hot-frac-nan", func(p *PhaseSpec) { p.HotFrac = math.NaN() }, "hot fraction"},
		{"hot-frac-negative", func(p *PhaseSpec) { p.HotFrac = -0.1 }, "hot fraction"},
		{"hot-negative", func(p *PhaseSpec) { p.HotBytes = -4096 }, "hot set"},
		{"cold-negative", func(p *PhaseSpec) { p.ColdBytes = -1 }, "cold region"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ph := valid
			tc.mut(&ph)
			err := ph.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), `"p"`) {
				t.Fatalf("Validate() = %v, want an error naming phase \"p\" and %q", err, tc.want)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("NewPhasedStream accepted the spec")
				}
			}()
			NewPhasedStream(1, valid, ph)
		})
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	spec := PhaseSpec{Instr: 2000, RefsPerInstr: 0.5, HotBytes: 64 * pp.KiB,
		ColdBytes: 16 * pp.KiB, HotFrac: 0.8, Site: 1, JumpEvery: 100}
	ra := drain(NewPhasedStream(99, spec))
	rb := drain(NewPhasedStream(99, spec))
	if len(ra) != len(rb) {
		t.Fatal("lengths differ")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("ref %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	rc := drain(NewPhasedStream(100, spec))
	same := len(rc) == len(ra)
	for i := 0; same && i < len(ra); i++ {
		same = ra[i] == rc[i]
	}
	if same {
		t.Fatal("seeds 99 and 100 generated the same trace")
	}
}

func TestGenTraceStream(t *testing.T) {
	// Each phase draws from its own 1 GiB region, and an exhausted
	// stream stays exhausted.
	s := NewPhasedStream(1,
		PhaseSpec{Instr: 128, RefsPerInstr: 1, HotBytes: pp.KiB, HotFrac: 1, Site: -1},
		PhaseSpec{Instr: 128, RefsPerInstr: 1, HotBytes: pp.KiB, HotFrac: 1, Site: -1},
	)
	refs := drain(s)
	if len(refs) != 256 {
		t.Fatalf("trace len = %d", len(refs))
	}
	for i, r := range refs {
		region := uint64(1 + i/128)
		if r.Addr>>30 != region {
			t.Fatalf("ref %d at %#x, want region %d", i, r.Addr, region)
		}
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.Next(); ok {
			t.Fatal("exhausted stream produced a ref")
		}
	}
}

func TestFuncStream(t *testing.T) {
	n := 0
	fs := NewFuncStream(func() (Ref, bool) {
		if n >= 3 {
			return Ref{}, false
		}
		n++
		return Ref{Addr: uint64(n)}, true
	})
	got := drain(fs)
	if len(got) != 3 || got[2].Addr != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestPhasedStreamTotalInstr(t *testing.T) {
	// The stream spans exactly its phases' summed instruction count: at
	// one reference per two instructions, the last one retires at
	// instruction 299 of 300.
	s := NewPhasedStream(1,
		PhaseSpec{Name: "a", Instr: 100, RefsPerInstr: 0.5, HotBytes: 1024, HotFrac: 1, Site: -1},
		PhaseSpec{Name: "b", Instr: 200, RefsPerInstr: 0.5, HotBytes: 1024, HotFrac: 1, Site: -1},
	)
	refs := drain(s)
	if len(refs) != 150 {
		t.Fatalf("refs = %d, want 150", len(refs))
	}
	if last := refs[len(refs)-1].Instr; last != 299 {
		t.Fatalf("last ref at instruction %d, want 299", last)
	}
}
