package cache

import (
	"runtime"
	"testing"
	"testing/quick"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

func smallCfg() Config {
	return Config{Name: "t", Size: 4 * pp.KiB, LineSize: 64, Assoc: 4, LatencyCyc: 1}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bads := []Config{
		{Name: "zero", Size: 0, LineSize: 64, Assoc: 4},
		{Name: "line", Size: 4096, LineSize: 48, Assoc: 4},
		{Name: "assoc", Size: 4096, LineSize: 64, Assoc: 0},
		{Name: "sets", Size: 4096, LineSize: 64, Assoc: 3}, // 64 lines / 3 not whole
	}
	for _, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("config %q accepted", b.Name)
		}
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad geometry did not panic")
		}
	}()
	New(Config{Name: "bad", Size: 100, LineSize: 64, Assoc: 4})
}

func TestColdMissThenHit(t *testing.T) {
	c := New(smallCfg())
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1010) {
		t.Fatal("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// One set: 256-byte cache, 64-byte lines, 4-way → 1 set.
	c := New(Config{Name: "oneset", Size: 256, LineSize: 64, Assoc: 4})
	// Fill ways with lines 0..3 (same set because only one set exists).
	for i := uint64(0); i < 4; i++ {
		c.Access(i * 64)
	}
	c.Access(0) // make line 0 most recent; line 1 now LRU
	hit, victim, evicted := c.AccessEvict(4 * 64)
	if hit {
		t.Fatal("fifth distinct line hit")
	}
	if !evicted || victim != 64 {
		t.Fatalf("evicted %v %#x, want %#x (LRU line 1)", evicted, victim, 64)
	}
	if !c.Probe(0) || c.Probe(64) {
		t.Fatal("LRU victim selection wrong")
	}
}

// TestEvictAddressZero pins AccessEvict's flag: the line at address 0
// is a real victim, distinct from the "no eviction" of a hit or of a
// fill into an invalid way, although both report victim address 0.
func TestEvictAddressZero(t *testing.T) {
	c := New(Config{Name: "direct", Size: 128, LineSize: 64, Assoc: 1})
	if hit, victim, evicted := c.AccessEvict(0x10); hit || evicted || victim != 0 {
		t.Fatalf("cold fill = (%v, %#x, %v), want a miss with no eviction", hit, victim, evicted)
	}
	if hit, _, evicted := c.AccessEvict(0); !hit || evicted {
		t.Fatalf("re-touch = (hit %v, evicted %v), want a hit with no eviction", hit, evicted)
	}
	// 0x80 maps to set 0 of this 2-set direct-mapped cache.
	hit, victim, evicted := c.AccessEvict(0x80)
	if hit || !evicted || victim != 0 {
		t.Fatalf("conflict fill = (%v, %#x, %v), want the line at address 0 evicted", hit, victim, evicted)
	}
	if c.Probe(0) || !c.Probe(0x80) {
		t.Fatal("line 0 still resident after its eviction")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(addrs []uint32) bool {
		cfg := smallCfg()
		c := New(cfg)
		for _, a := range addrs {
			c.Access(uint64(a))
		}
		return c.Occupancy() <= int(cfg.Size/cfg.LineSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: an access is always a hit if the same line was touched within
// the last (assoc-1) distinct same-set lines under LRU.
func TestLRUReuseWithinAssocAlwaysHits(t *testing.T) {
	c := New(Config{Name: "oneset", Size: 256, LineSize: 64, Assoc: 4})
	c.Access(0)
	// Touch assoc-1 = 3 other lines, then line 0 must still be resident.
	c.Access(64)
	c.Access(128)
	c.Access(192)
	if !c.Access(0) {
		t.Fatal("line evicted within associativity window")
	}
}

func TestStatsConservation(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(smallCfg())
		for _, a := range addrs {
			c.Access(uint64(a))
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses && s.Evictions <= s.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := New(smallCfg())
	c.Access(0)
	before := c.Stats()
	for i := 0; i < 100; i++ {
		c.Probe(0)
		c.Probe(1 << 20)
	}
	if c.Stats() != before {
		t.Fatal("Probe changed statistics")
	}
}

func TestFlush(t *testing.T) {
	c := New(smallCfg())
	for i := uint64(0); i < 32; i++ {
		c.Access(i * 64)
	}
	c.Flush()
	if c.Occupancy() != 0 {
		t.Fatalf("occupancy after flush = %d", c.Occupancy())
	}
	if c.Access(0) {
		t.Fatal("hit after flush")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// Working set equal to capacity, touched twice round-robin: second
	// sweep must be all hits with LRU and a working set == one set's worth
	// per set (sequential lines map to distinct sets evenly).
	c := New(smallCfg()) // 4 KiB, 64 lines
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < 64; i++ {
			c.Access(i * 64)
		}
	}
	s := c.Stats()
	if s.Misses != 64 {
		t.Fatalf("misses = %d, want 64 (cold only)", s.Misses)
	}
}

func TestWorkingSetExceedsCapacityThrashesLRU(t *testing.T) {
	// Cyclic sweep over capacity+1 sets' worth of lines with LRU
	// produces no hits at all (the classic LRU worst case).
	c := New(Config{Name: "oneset", Size: 256, LineSize: 64, Assoc: 4})
	for pass := 0; pass < 4; pass++ {
		for i := uint64(0); i < 5; i++ {
			c.Access(i * 64)
		}
	}
	if got := c.Stats().Hits; got != 0 {
		t.Fatalf("hits = %d, want 0 for cyclic over-capacity sweep", got)
	}
}

func TestHierarchyRouting(t *testing.T) {
	h := NewHierarchy(E5_2420())
	lvl, lat := h.Access(0, 0x10000)
	if lvl != Memory || lat != 180 {
		t.Fatalf("cold access served by %v/%d, want Memory/180", lvl, lat)
	}
	lvl, lat = h.Access(0, 0x10000)
	if lvl != L1 || lat != 4 {
		t.Fatalf("warm access served by %v/%d, want L1/4", lvl, lat)
	}
	// A different core misses privately but hits the shared LLC.
	lvl, lat = h.Access(1, 0x10000)
	if lvl != LLC || lat != 30 {
		t.Fatalf("cross-core access served by %v/%d, want LLC/30", lvl, lat)
	}
}

// TestHierarchyNotInclusive pins that an LLC eviction does not
// back-invalidate the private levels: after other cores' traffic evicts
// core 0's line from the shared LLC, core 0 still hits it in its L1,
// while another core must fetch it from memory.
func TestHierarchyNotInclusive(t *testing.T) {
	cfg := E5_2420()
	h := NewHierarchy(cfg)
	const addr = 0x40
	if lvl, _ := h.Access(0, addr); lvl != Memory {
		t.Fatalf("cold access served by %v", lvl)
	}
	// Stream twice the LLC's capacity through cores 1..11 so every LLC
	// set is refilled many times over.
	llcLines := uint64(cfg.LLC.Size / cfg.LLC.LineSize)
	for i := uint64(1); i <= 2*llcLines; i++ {
		h.Access(1+int(i%11), addr+i*64)
	}
	if h.llc.Probe(addr) {
		t.Fatal("line still in the LLC; the stream did not evict it")
	}
	if lvl, _ := h.Access(0, addr); lvl != L1 {
		t.Fatalf("owner's re-access served by %v, want L1 (no back-invalidation)", lvl)
	}
	if lvl, _ := h.Access(1, addr); lvl != Memory {
		t.Fatalf("other core's access served by %v, want Memory", lvl)
	}
}

func TestHierarchyValidate(t *testing.T) {
	cfg := E5_2420()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Table 1 geometry invalid: %v", err)
	}
	cfg.Cores = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero-core hierarchy accepted")
	}
	cfg = E5_2420()
	cfg.MemLatency = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero memory latency accepted")
	}
}

func TestHierarchyPanicsOnBadCore(t *testing.T) {
	h := NewHierarchy(E5_2420())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range core did not panic")
		}
	}()
	h.Access(99, 0)
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(Config{Name: "llc", Size: 15360 * pp.KiB, LineSize: 64, Assoc: 20})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 64 % (32 << 20))
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(E5_2420())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Access(i%12, uint64(i)*64%(32<<20))
	}
}

// BenchmarkHierarchyReplay replays the cache calibration's most
// over-committed co-run (experiments.RunCalibration): 12 threads with
// 4 MiB working sets each on the E5-2420 hierarchy, interleaved in
// 512-access bursts, with uniform random and cyclic access. One op is
// one round of bursts; ns/access and allocs/access divide by its 12×512
// accesses. The hierarchy is warmed with one full sweep before timing.
func BenchmarkHierarchyReplay(b *testing.B) {
	const (
		threads = 12
		wss     = 4 << 20
		burst   = 512
	)
	for _, pattern := range []string{"random", "cyclic"} {
		b.Run(pattern, func(b *testing.B) {
			h := NewHierarchy(E5_2420())
			rng := sim.NewRNG(0xca11b)
			var pos [threads]uint64
			next := func(i int) uint64 {
				base := uint64(i) << 30
				if pattern == "random" {
					return base + (rng.Uint64n(wss) &^ 63)
				}
				a := base + pos[i]
				pos[i] = (pos[i] + 64) % wss
				return a
			}
			round := func() {
				for i := 0; i < threads; i++ {
					for k := 0; k < burst; k++ {
						h.Access(i, next(i))
					}
				}
			}
			for done := 0; done < wss/64; done += burst {
				round()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				round()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			accesses := float64(b.N * threads * burst)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/accesses, "ns/access")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/accesses, "allocs/access")
		})
	}
}
