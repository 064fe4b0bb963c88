// Package profiler reimplements the paper's preliminary profiler (§2.4),
// which the authors built on Intel PIN: it consumes a load/store address
// stream in fixed-size instruction windows, computes each window's memory
// footprint, working-set size, and reuse ratio, detects progress periods
// as maximal runs of behaviourally similar windows, and correlates them
// with the program's loop structure through retired-JMP sampling (the
// paper uses Dyninst ParseAPI for that last step; internal/profiler's
// Binary type is the synthetic stand-in).
package profiler

import (
	"fmt"
	"math/bits"

	"rdasched/internal/memtrace"
	"rdasched/internal/pp"
)

// Config controls windowing and detection.
type Config struct {
	// WindowInstr is the sampling window size x: runtime statistics are
	// summarized every WindowInstr instructions.
	WindowInstr uint64
	// MinPeriodInstr is y: a repetition must span at least y instructions
	// (y/x consecutive similar windows) to count as a progress period.
	MinPeriodInstr uint64
	// EntryBytes is the address granularity of the footprint table (the
	// paper's array of unique addresses; 64 tracks cache lines).
	EntryBytes pp.Bytes
	// MinTouches is the pre-configured access count an entry needs to be
	// part of the working set (footprint counts every entry; WSS only
	// those touched at least MinTouches times).
	MinTouches int
	// SimilarityTol is the relative difference in working-set size below
	// which two windows count as "sufficiently similar".
	SimilarityTol float64
	// ReuseTolFactor bounds the ratio between two windows' reuse ratios
	// for similarity (e.g. 3 → within 3x of each other).
	ReuseTolFactor float64
}

// DefaultConfig mirrors the granularity the paper reports using: 1M
// instruction windows, periods of at least 4 windows, line-granular
// entries touched at least 4 times.
func DefaultConfig() Config {
	return Config{
		WindowInstr:    1_000_000,
		MinPeriodInstr: 4_000_000,
		EntryBytes:     64,
		MinTouches:     4,
		SimilarityTol:  0.25,
		ReuseTolFactor: 4,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.WindowInstr == 0:
		return fmt.Errorf("profiler: zero window size")
	case c.MinPeriodInstr < c.WindowInstr:
		return fmt.Errorf("profiler: min period %d below window %d", c.MinPeriodInstr, c.WindowInstr)
	case c.EntryBytes <= 0:
		return fmt.Errorf("profiler: entry granularity %d", c.EntryBytes)
	case c.MinTouches <= 0:
		return fmt.Errorf("profiler: min touches %d", c.MinTouches)
	case c.SimilarityTol <= 0 || c.SimilarityTol >= 1:
		return fmt.Errorf("profiler: similarity tolerance %v outside (0,1)", c.SimilarityTol)
	case c.ReuseTolFactor < 1:
		return fmt.Errorf("profiler: reuse tolerance factor %v below 1", c.ReuseTolFactor)
	}
	return nil
}

// WindowStats summarizes one sampling window.
type WindowStats struct {
	Index      int
	StartInstr uint64
	EndInstr   uint64
	// Footprint is the total bytes touched (every entry).
	Footprint pp.Bytes
	// WSS is the working set: bytes in entries touched ≥ MinTouches times.
	WSS pp.Bytes
	// ReuseRatio is the mean touches per entry.
	ReuseRatio float64
	// Refs is the number of memory references in the window.
	Refs uint64
	// TopSite is the most frequently retired JMP site (-1 if none).
	TopSite int
}

// Windows consumes a trace and returns per-window statistics. The entry
// table is reset at each window boundary, exactly as described in §2.4.
// It takes references in batches: through the stream's own Read method
// when it has one, as memtrace.PhasedStream does, and otherwise through
// Next.
func Windows(s memtrace.Stream, cfg Config) ([]WindowStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var out []WindowStats
	touches := newTouchTable(minTableSlots)
	jumps := make(map[int]uint64)
	var cur WindowStats
	cur.TopSite = -1
	var wssEntries int
	windowEnd := cfg.WindowInstr

	flush := func(end uint64) {
		cur.EndInstr = end
		cur.Footprint = pp.Bytes(touches.used) * cfg.EntryBytes
		cur.WSS = pp.Bytes(wssEntries) * cfg.EntryBytes
		if touches.used > 0 {
			// Every reference touches exactly one entry, so the
			// window's touches sum to its reference count.
			cur.ReuseRatio = float64(cur.Refs) / float64(touches.used)
		}
		top, topCount := -1, uint64(0)
		for site, n := range jumps {
			if n > topCount || (n == topCount && site < top) {
				top, topCount = site, n
			}
		}
		cur.TopSite = top
		out = append(out, cur)

		cur = WindowStats{Index: cur.Index + 1, StartInstr: end, TopSite: -1}
		wssEntries = 0
		touches.reset()
		clear(jumps)
	}

	rd, ok := s.(refReader)
	if !ok {
		rd = nextReader{s}
	}
	buf := make([]memtrace.Ref, batchRefs)
	var lastInstr uint64
	for {
		n := rd.Read(buf)
		for i := range buf[:n] {
			r := &buf[i]
			for r.Instr >= windowEnd {
				flush(windowEnd)
				windowEnd += cfg.WindowInstr
			}
			if r.IsJump {
				jumps[r.JumpSite]++
				continue
			}
			cur.Refs++
			// An entry joins the working set as its count reaches
			// MinTouches; the table counts footprint entries itself.
			if int(touches.touch(r.Addr/uint64(cfg.EntryBytes))) == cfg.MinTouches {
				wssEntries++
			}
		}
		if n > 0 {
			lastInstr = buf[n-1].Instr
		}
		if n < len(buf) {
			break
		}
	}
	if cur.Refs > 0 || len(jumps) > 0 {
		flush(lastInstr + 1)
	}
	return out, nil
}

// batchRefs is how many references Windows takes from its stream at a
// time, an 8 KiB buffer per call. 1024 windowed Fig 12's largest trace
// no faster, beyond the host's noise, and allocates four times as much.
const batchRefs = 256

// refReader is a stream that hands out references in batches, as
// memtrace.PhasedStream does: Read fills all of buf unless the stream
// ends first, so a count below len(buf) marks the end of the stream.
type refReader interface {
	Read(buf []memtrace.Ref) int
}

// nextReader batches a stream that only has Next.
type nextReader struct{ s memtrace.Stream }

func (r nextReader) Read(buf []memtrace.Ref) int {
	for i := range buf {
		ref, ok := r.s.Next()
		if !ok {
			return i
		}
		buf[i] = ref
	}
	return len(buf)
}

// Touch-table geometry. An entry key's 16-entry run (key >> bucketBits)
// hashes to a 16-slot bucket and key & bucketMask picks the slot within
// it, so a dense working set fills whole buckets and stays contiguous in
// memory instead of scattering over the table.
const (
	bucketBits = 4
	bucketMask = 1<<bucketBits - 1
	// minTableSlots is the initial table size, a power of two.
	minTableSlots = 1 << 10
	// maxLoadPct is the occupancy (in percent of slots) past which the
	// table doubles.
	maxLoadPct = 70
)

// touchTable counts touches per entry in one window: an open-addressed
// table with linear probing, where a zero count marks an empty slot. It
// keeps its capacity across windows, as a cleared map does.
type touchTable struct {
	keys   []uint64
	counts []uint32
	used   int  // occupied slots: the window's distinct entries
	shift  uint // 64 - log2(bucket count), for the bucket hash
}

// newTouchTable returns an empty table with the given number of slots,
// a power of two of at least one bucket.
func newTouchTable(slots int) touchTable {
	return touchTable{
		keys:   make([]uint64, slots),
		counts: make([]uint32, slots),
		shift:  64 - uint(bits.TrailingZeros(uint(slots>>bucketBits))),
	}
}

// find returns the slot holding key, or the empty slot where it belongs:
// the first probe is slot key&bucketMask of the bucket its run hashes to
// (Fibonacci hashing onto the bucket count).
func (t *touchTable) find(key uint64) int {
	mask := len(t.keys) - 1
	bucket := (key >> bucketBits) * 0x9e3779b97f4a7c15 >> t.shift
	i := int(bucket<<bucketBits | key&bucketMask)
	for t.counts[i] != 0 && t.keys[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// touch counts one touch of key and returns its new count.
func (t *touchTable) touch(key uint64) uint32 {
	i := t.find(key)
	if t.counts[i] == 0 {
		if (t.used+1)*100 > len(t.keys)*maxLoadPct {
			t.grow()
			i = t.find(key)
		}
		t.keys[i] = key
		t.used++
	}
	t.counts[i]++
	return t.counts[i]
}

// grow doubles the table and reinserts every counted entry.
func (t *touchTable) grow() {
	old := *t
	*t = newTouchTable(2 * len(old.keys))
	for j, n := range old.counts {
		if n != 0 {
			i := t.find(old.keys[j])
			t.keys[i], t.counts[i] = old.keys[j], n
		}
	}
	t.used = old.used
}

// reset empties the table, keeping its capacity.
func (t *touchTable) reset() {
	if t.used > 0 {
		clear(t.counts)
		t.used = 0
	}
}

// similar reports whether two windows exhibit the same resource access
// behaviour under the config's thresholds.
func similar(a, b *WindowStats, cfg Config) bool {
	// Working-set sizes within relative tolerance.
	hi, lo := a.WSS, b.WSS
	if hi < lo {
		hi, lo = lo, hi
	}
	if hi > 0 && float64(hi-lo) > cfg.SimilarityTol*float64(hi) {
		return false
	}
	// Reuse ratios within a multiplicative band.
	ra, rb := a.ReuseRatio, b.ReuseRatio
	if ra < rb {
		ra, rb = rb, ra
	}
	if rb > 0 && ra/rb > cfg.ReuseTolFactor {
		return false
	}
	if rb == 0 && ra > 0 {
		return false
	}
	return true
}

// Period is a detected progress period: a maximal run of similar windows.
type Period struct {
	// FirstWindow and LastWindow are inclusive window indices.
	FirstWindow, LastWindow int
	// StartInstr and EndInstr bound the period in instructions.
	StartInstr, EndInstr uint64
	// WSS and ReuseRatio average the member windows.
	WSS        pp.Bytes
	ReuseRatio float64
	// Reuse is the categorized level (Table 2's low/med/high).
	Reuse pp.Reuse
	// Site is the dominant JMP site; LoopID the outermost containing
	// loop after Annotate (-1 before, or if unknown).
	Site   int
	LoopID int
}

// Instr returns the period length in instructions.
func (p Period) Instr() uint64 { return p.EndInstr - p.StartInstr }

// Demand converts the period's measurements into the pp_begin demand
// triple the application would declare.
func (p Period) Demand() pp.Demand {
	return pp.Demand{Resource: pp.ResourceLLC, WorkingSet: p.WSS, Reuse: p.Reuse}
}

// DetectPeriods implements the paper's repetition-finding scan: starting
// from each candidate window, if the next y/x windows are sufficiently
// similar they begin a period, which is then extended until a window with
// significantly different behaviour appears. Scanning resumes after the
// period (or one window later when no period starts).
func DetectPeriods(wins []WindowStats, cfg Config) ([]Period, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	need := int(cfg.MinPeriodInstr / cfg.WindowInstr)
	if need < 1 {
		need = 1
	}
	var periods []Period
	i := 0
	for i < len(wins) {
		if i+need > len(wins) {
			break
		}
		ok := true
		for j := i + 1; j < i+need; j++ {
			if !similar(&wins[i], &wins[j], cfg) {
				ok = false
				break
			}
		}
		if !ok {
			i++
			continue
		}
		// Extend.
		j := i + need
		for j < len(wins) && similar(&wins[i], &wins[j], cfg) {
			j++
		}
		periods = append(periods, summarize(wins[i:j]))
		i = j
	}
	return periods, nil
}

func summarize(wins []WindowStats) Period {
	p := Period{
		FirstWindow: wins[0].Index,
		LastWindow:  wins[len(wins)-1].Index,
		StartInstr:  wins[0].StartInstr,
		EndInstr:    wins[len(wins)-1].EndInstr,
		Site:        -1,
		LoopID:      -1,
	}
	var wss, reuse float64
	sites := make(map[int]int)
	for i := range wins {
		wss += float64(wins[i].WSS)
		reuse += wins[i].ReuseRatio
		if wins[i].TopSite >= 0 {
			sites[wins[i].TopSite]++
		}
	}
	n := float64(len(wins))
	p.WSS = pp.Bytes(wss / n)
	p.ReuseRatio = reuse / n
	p.Reuse = pp.ClassifyReuse(p.ReuseRatio)
	best := 0
	for site, cnt := range sites {
		if cnt > best || (cnt == best && (p.Site < 0 || site < p.Site)) {
			p.Site, best = site, cnt
		}
	}
	return p
}

// Profile runs the full §2.4 pipeline: window, detect, annotate against
// the binary's loop structure (bin may be nil).
func Profile(s memtrace.Stream, cfg Config, bin *Binary) ([]Period, error) {
	wins, err := Windows(s, cfg)
	if err != nil {
		return nil, err
	}
	periods, err := DetectPeriods(wins, cfg)
	if err != nil {
		return nil, err
	}
	if bin != nil {
		Annotate(periods, bin)
	}
	return periods, nil
}
