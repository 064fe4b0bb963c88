package profiler

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rdasched/internal/memtrace"
	"rdasched/internal/pp"
)

func testCfg() Config {
	return Config{
		WindowInstr:    10_000,
		MinPeriodInstr: 30_000,
		EntryBytes:     64,
		MinTouches:     3,
		SimilarityTol:  0.25,
		ReuseTolFactor: 4,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	muts := []func(*Config){
		func(c *Config) { c.WindowInstr = 0 },
		func(c *Config) { c.MinPeriodInstr = c.WindowInstr - 1 },
		func(c *Config) { c.EntryBytes = 0 },
		func(c *Config) { c.MinTouches = 0 },
		func(c *Config) { c.SimilarityTol = 0 },
		func(c *Config) { c.SimilarityTol = 1 },
		func(c *Config) { c.ReuseTolFactor = 0.5 },
	}
	for i, mu := range muts {
		c := DefaultConfig()
		mu(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// hotPhase builds a PhaseSpec with a dense hot set that the profiler
// should measure as WSS ≈ hot size.
func hotPhase(name string, instr uint64, hot pp.Bytes, site int) memtrace.PhaseSpec {
	return memtrace.PhaseSpec{
		Name: name, Instr: instr, RefsPerInstr: 0.5,
		HotBytes: hot, ColdBytes: 4 * pp.KiB, HotFrac: 0.95,
		Site: site, JumpEvery: 1000,
	}
}

func TestWindowsMeasureWSS(t *testing.T) {
	hot := 32 * pp.KiB
	s := memtrace.NewPhasedStream(1, hotPhase("a", 100_000, hot, 1))
	wins, err := Windows(s, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 10 {
		t.Fatalf("windows = %d, want 10", len(wins))
	}
	for _, w := range wins {
		// 5000 refs over 512 hot lines ≈ 9.3 touches/line: nearly every
		// hot line clears MinTouches=3, so WSS ≈ hot size.
		if w.WSS < hot*3/4 || w.WSS > hot+8*pp.KiB {
			t.Fatalf("window %d WSS = %v, want ≈%v", w.Index, w.WSS, hot)
		}
		if w.Footprint < w.WSS {
			t.Fatalf("footprint %v below WSS %v", w.Footprint, w.WSS)
		}
		if w.ReuseRatio <= 1 {
			t.Fatalf("reuse ratio %v not > 1 for hot set", w.ReuseRatio)
		}
		if w.TopSite != 1 {
			t.Fatalf("top site = %d, want 1", w.TopSite)
		}
	}
}

func TestWindowsStreamingHasLowWSS(t *testing.T) {
	// Pure streaming touches every line once: WSS (≥3 touches) ≈ 0.
	s := memtrace.NewPhasedStream(1, memtrace.PhaseSpec{
		Name: "stream", Instr: 100_000, RefsPerInstr: 0.5,
		HotBytes: 0, ColdBytes: 8 * pp.MiB, HotFrac: 0,
		Site: -1,
	})
	wins, err := Windows(s, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wins {
		if w.WSS > w.Footprint/4 {
			t.Fatalf("streaming window WSS %v not ≪ footprint %v", w.WSS, w.Footprint)
		}
		if w.TopSite != -1 {
			t.Fatal("jump site detected in jump-free phase")
		}
	}
}

func TestDetectSinglePeriod(t *testing.T) {
	s := memtrace.NewPhasedStream(1, hotPhase("pp1", 200_000, 64*pp.KiB, 7))
	periods, err := Profile(s, testCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(periods) != 1 {
		t.Fatalf("periods = %d, want 1", len(periods))
	}
	p := periods[0]
	if p.Site != 7 {
		t.Fatalf("site = %d", p.Site)
	}
	if p.WSS < 48*pp.KiB || p.WSS > 80*pp.KiB {
		t.Fatalf("period WSS = %v, want ≈64KiB", p.WSS)
	}
	if p.Instr() < 150_000 {
		t.Fatalf("period too short: %d instr", p.Instr())
	}
}

func TestDetectTwoPhasesSplit(t *testing.T) {
	// Two behaviourally distinct phases must become two periods, not one.
	// The second phase's hot set must stay dense enough that 5000
	// refs/window still touch each entry ≥ MinTouches times: 64 KiB is
	// 1024 entries → ~4.9 touches each.
	s := memtrace.NewPhasedStream(1,
		hotPhase("pp1", 100_000, 16*pp.KiB, 1),
		hotPhase("pp2", 100_000, 64*pp.KiB, 2),
	)
	periods, err := Profile(s, testCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(periods) != 2 {
		t.Fatalf("periods = %d, want 2", len(periods))
	}
	if periods[0].Site != 1 || periods[1].Site != 2 {
		t.Fatalf("sites = %d, %d", periods[0].Site, periods[1].Site)
	}
	if periods[1].WSS <= periods[0].WSS*2 {
		t.Fatalf("second period WSS %v not ≫ first %v", periods[1].WSS, periods[0].WSS)
	}
}

func TestShortBlipIsNotAPeriod(t *testing.T) {
	// A 2-window blip (20k instr < MinPeriodInstr 30k) between two real
	// periods must not be reported.
	s := memtrace.NewPhasedStream(1,
		hotPhase("pp1", 100_000, 16*pp.KiB, 1),
		hotPhase("blip", 20_000, 512*pp.KiB, 9),
		hotPhase("pp2", 100_000, 16*pp.KiB, 2),
	)
	periods, err := Profile(s, testCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range periods {
		if p.Site == 9 {
			t.Fatalf("blip reported as period: %+v", p)
		}
	}
	if len(periods) != 2 {
		t.Fatalf("periods = %d, want 2 (blip absorbed as boundary)", len(periods))
	}
}

func TestReuseClassification(t *testing.T) {
	// Dense touches on a small set → high reuse; streaming → low.
	dense := memtrace.NewPhasedStream(1, memtrace.PhaseSpec{
		Name: "dense", Instr: 100_000, RefsPerInstr: 0.9,
		HotBytes: 4 * pp.KiB, HotFrac: 1, Site: 1, JumpEvery: 1000,
	})
	periods, err := Profile(dense, testCfg(), nil)
	if err != nil || len(periods) == 0 {
		t.Fatalf("profile: %v, %d periods", err, len(periods))
	}
	if periods[0].Reuse != pp.ReuseHigh {
		t.Fatalf("dense reuse = %v (ratio %.1f), want high", periods[0].Reuse, periods[0].ReuseRatio)
	}
	d := periods[0].Demand()
	if d.Resource != pp.ResourceLLC || d.Reuse != pp.ReuseHigh {
		t.Fatalf("demand = %v", d)
	}
}

func TestBinaryLoopResolution(t *testing.T) {
	bin, err := NewBinary([]Loop{
		{ID: 0, Parent: -1, Name: "outer", Sites: []int{10}},
		{ID: 1, Parent: 0, Name: "middle", Sites: []int{11}},
		{ID: 2, Parent: 1, Name: "inner", Sites: []int{12}},
		{ID: 3, Parent: -1, Name: "other", Sites: []int{20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := bin.LoopOf(12); got != 2 {
		t.Fatalf("LoopOf(12) = %d", got)
	}
	if got := bin.Outermost(2); got != 0 {
		t.Fatalf("Outermost(inner) = %d, want 0", got)
	}
	if got := bin.Outermost(3); got != 3 {
		t.Fatalf("Outermost(other) = %d, want 3", got)
	}
	if bin.LoopOf(99) != -1 || bin.Outermost(99) != -1 {
		t.Fatal("unknown site/loop not -1")
	}
	if bin.Name(0) != "outer" {
		t.Fatal("Name broken")
	}
}

func TestBinaryValidation(t *testing.T) {
	if _, err := NewBinary([]Loop{{ID: 0}, {ID: 0}}); err == nil {
		t.Fatal("duplicate loop id accepted")
	}
	if _, err := NewBinary([]Loop{{ID: 0, Parent: 5}}); err == nil {
		t.Fatal("unknown parent accepted")
	}
	if _, err := NewBinary([]Loop{{ID: 0, Sites: []int{1}}, {ID: 1, Sites: []int{1}}}); err == nil {
		t.Fatal("shared site accepted")
	}
}

func TestAnnotateMapsToOutermostLoop(t *testing.T) {
	bin, err := NewBinary([]Loop{
		{ID: 0, Parent: -1, Name: "slave2", Sites: []int{100}},
		{ID: 1, Parent: 0, Name: "interf", Sites: []int{101}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A period whose dominant JMP is the *inner* loop must map to the
	// outermost containing loop, per §2.4.
	s := memtrace.NewPhasedStream(1, hotPhase("pp", 100_000, 32*pp.KiB, 101))
	periods, err := Profile(s, testCfg(), bin)
	if err != nil || len(periods) != 1 {
		t.Fatalf("profile: %v, %d periods", err, len(periods))
	}
	if periods[0].LoopID != 0 {
		t.Fatalf("LoopID = %d, want outermost 0", periods[0].LoopID)
	}
	if bin.Name(periods[0].LoopID) != "slave2" {
		t.Fatal("period not attributed to slave2")
	}
}

func TestWindowsEmptyTrace(t *testing.T) {
	wins, err := Windows(memtrace.NewSliceStream(nil), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 0 {
		t.Fatalf("windows on empty trace = %d", len(wins))
	}
	periods, err := DetectPeriods(nil, testCfg())
	if err != nil || len(periods) != 0 {
		t.Fatalf("periods on empty input: %v, %d", err, len(periods))
	}
}

// TestWindowsOverReloadedTrace checks the property cmd/ppprof -load
// relies on: profiling a trace dumped with WriteStream and read back
// through FileStream gives exactly the windows of the generating stream.
func TestWindowsOverReloadedTrace(t *testing.T) {
	phases := []memtrace.PhaseSpec{
		hotPhase("pp1", 60_000, 16*pp.KiB, 1),
		{Name: "stream", Instr: 20_000, RefsPerInstr: 0.5, ColdBytes: pp.MiB, Site: -1},
		hotPhase("pp2", 60_000, 64*pp.KiB, 2),
	}
	path := filepath.Join(t.TempDir(), "trace.rdat")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := memtrace.WriteStream(f, memtrace.NewPhasedStream(5, phases...)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	fs, err := memtrace.NewFileStream(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Windows(fs, testCfg())
	if err != nil || fs.Err() != nil {
		t.Fatalf("reloaded trace: %v, %v", err, fs.Err())
	}
	want, err := Windows(memtrace.NewPhasedStream(5, phases...), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 14 || !reflect.DeepEqual(got, want) {
		t.Fatalf("windows over the reloaded trace differ:\n got %+v\nwant %+v", got, want)
	}
}

func TestInvalidConfigPropagates(t *testing.T) {
	bad := testCfg()
	bad.WindowInstr = 0
	if _, err := Windows(memtrace.NewSliceStream(nil), bad); err == nil {
		t.Fatal("Windows accepted bad config")
	}
	if _, err := DetectPeriods(nil, bad); err == nil {
		t.Fatal("DetectPeriods accepted bad config")
	}
}

func BenchmarkWindows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := memtrace.NewPhasedStream(1, hotPhase("pp", 1_000_000, 256*pp.KiB, 1))
		if _, err := Windows(s, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
