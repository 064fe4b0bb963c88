package cache

import (
	"fmt"
	"sort"
	"testing"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// oracleLine and oracleCache are the original per-set LRU implementation
// the ranked Cache replaced: a slice of lines per set, a valid flag,
// tags split from the block number by division, a global tick stamped
// on every touched line, and separate scans for the hit, the first
// invalid way and the oldest (lowest-stamped) way. They are kept as the
// differential oracle for FuzzCacheMatchesOracle.
type oracleLine struct {
	tag   uint64
	valid bool
	stamp uint64
}

type oracleCache struct {
	cfg        Config
	sets       [][]oracleLine
	numSets    uint64
	lineShift  uint
	tick       uint64
	stats      Stats
	population int
}

func newOracleCache(cfg Config) *oracleCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := int64(cfg.Size / cfg.LineSize)
	numSets := lines / int64(cfg.Assoc)
	c := &oracleCache{
		cfg:     cfg,
		sets:    make([][]oracleLine, numSets),
		numSets: uint64(numSets),
	}
	backing := make([]oracleLine, lines)
	for i := range c.sets {
		c.sets[i], backing = backing[:cfg.Assoc:cfg.Assoc], backing[cfg.Assoc:]
	}
	for sz := cfg.LineSize; sz > 1; sz >>= 1 {
		c.lineShift++
	}
	return c
}

func (c *oracleCache) indexTag(addr uint64) (set uint64, tag uint64) {
	blk := addr >> c.lineShift
	return blk % c.numSets, blk / c.numSets
}

func (c *oracleCache) accessEvict(addr uint64) (hit bool, victim uint64, evicted bool) {
	c.tick++
	c.stats.Accesses++
	setIdx, tag := c.indexTag(addr)
	set := c.sets[setIdx]

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			set[i].stamp = c.tick
			return true, 0, false
		}
	}
	c.stats.Misses++

	way := -1
	for i := range set {
		if !set[i].valid {
			way = i
			break
		}
	}
	if way < 0 {
		oldest := uint64(1<<64 - 1)
		for i := range set {
			if set[i].stamp < oldest {
				oldest = set[i].stamp
				way = i
			}
		}
		c.stats.Evictions++
		l := &set[way]
		victim = (l.tag*c.numSets + setIdx) << c.lineShift
		l.tag = tag
		l.stamp = c.tick
		return false, victim, true
	}
	set[way] = oracleLine{tag: tag, valid: true, stamp: c.tick}
	c.population++
	return false, 0, false
}

func (c *oracleCache) probe(addr uint64) bool {
	setIdx, tag := c.indexTag(addr)
	for _, l := range c.sets[setIdx] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *oracleCache) flush() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = oracleLine{}
		}
	}
	c.population = 0
}

// oracleGeometry derives a valid cache geometry from three fuzz bytes:
// line sizes 1 B–128 B, 1–24 ways and 1–80 sets, so single-set and
// non-power-of-two set counts are both common.
func oracleGeometry(shift, assoc, sets uint8) Config {
	cfg := Config{
		Name:     "fuzz",
		LineSize: pp.Bytes(1) << (shift % 8),
		Assoc:    1 + int(assoc%24),
	}
	cfg.Size = cfg.LineSize * pp.Bytes(cfg.Assoc) * pp.Bytes(1+int(sets%80))
	return cfg
}

// checkRanks returns an error unless set's ranks 0..valid-1 hold exactly
// the oracle's valid lines of that set, most recently touched (highest
// stamp) first, each rebuilt as its block number tag*numSets+set.
func checkRanks(c *Cache, o *oracleCache, set int) error {
	var want []oracleLine
	for _, l := range o.sets[set] {
		if l.valid {
			want = append(want, l)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].stamp > want[j].stamp })
	ranks := c.tags[set*c.cfg.Assoc : set*c.cfg.Assoc+c.valid[set]]
	if len(ranks) != len(want) {
		return fmt.Errorf("set %d holds %d valid lines, oracle %d", set, len(ranks), len(want))
	}
	for i, l := range want {
		if blk := l.tag*o.numSets + uint64(set); ranks[i] != blk {
			return fmt.Errorf("set %d rank %d holds block %#x, oracle %#x (ranks %#x)", set, i, ranks[i], blk, ranks)
		}
	}
	return nil
}

// checkAllRanks runs checkRanks on every set and returns an error unless
// the per-set valid counts sum to Occupancy.
func checkAllRanks(c *Cache, o *oracleCache) error {
	total := 0
	for set, n := range c.valid {
		if err := checkRanks(c, o, set); err != nil {
			return err
		}
		total += n
	}
	if total != c.Occupancy() {
		return fmt.Errorf("valid counts sum to %d, occupancy %d", total, c.Occupancy())
	}
	return nil
}

// checkAgainstOracle drives a Cache and the oracle with one address
// stream, flushing both part-way, and fails on the first difference in
// any access's hit, victim and evicted flag, or in Stats, Occupancy and
// Probe. Addresses mix line 0 (address 0 itself included), a region
// about twice the capacity so sets conflict and lines are re-hit, and
// arbitrary 64-bit addresses, whose large block numbers exercise tag
// and victim-address reconstruction.
//
// It also fails when a set's ranks stop holding the oracle's valid lines
// in recency order (checkRanks): after every access it checks the set
// the access maps to, the only one an access changes, and after the
// flush and at the end every set, with the valid counts summed against
// Occupancy. Checking all 12,288 sets of the E5-2420 LLC after every
// access would make the test many times slower.
func checkAgainstOracle(t *testing.T, cfg Config, seed uint64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	c, o := New(cfg), newOracleCache(cfg)
	span := 2 * uint64(cfg.Size)
	addr := func() uint64 {
		switch r := rng.Intn(16); {
		case r == 0:
			return 0
		case r == 1:
			return rng.Uint64n(uint64(cfg.LineSize))
		case r == 2:
			return rng.Uint64()
		default:
			return rng.Uint64n(span)
		}
	}
	const steps = 1500
	flushAt := rng.Intn(steps)
	for i := 0; i < steps; i++ {
		if i == flushAt {
			c.Flush()
			o.flush()
			if c.Occupancy() != 0 || c.Stats() != o.stats {
				t.Fatalf("%+v seed %d: after Flush occupancy %d stats %+v, oracle stats %+v",
					cfg, seed, c.Occupancy(), c.Stats(), o.stats)
			}
			if err := checkAllRanks(c, o); err != nil {
				t.Fatalf("%+v seed %d: after Flush: %v", cfg, seed, err)
			}
		}
		a := addr()
		hit, victim, evicted := c.AccessEvict(a)
		wantHit, wantVictim, wantEvicted := o.accessEvict(a)
		if hit != wantHit || victim != wantVictim || evicted != wantEvicted {
			t.Fatalf("%+v seed %d step %d addr %#x: (hit %v, victim %#x, evicted %v), oracle (%v, %#x, %v)",
				cfg, seed, i, a, hit, victim, evicted, wantHit, wantVictim, wantEvicted)
		}
		if c.Stats() != o.stats || c.Occupancy() != o.population {
			t.Fatalf("%+v seed %d step %d: stats %+v occupancy %d, oracle %+v %d",
				cfg, seed, i, c.Stats(), c.Occupancy(), o.stats, o.population)
		}
		set, _ := o.indexTag(a)
		if err := checkRanks(c, o, int(set)); err != nil {
			t.Fatalf("%+v seed %d step %d addr %#x: %v", cfg, seed, i, a, err)
		}
		for _, p := range []uint64{a, victim, addr()} {
			if c.Probe(p) != o.probe(p) {
				t.Fatalf("%+v seed %d step %d: Probe(%#x) = %v, oracle %v",
					cfg, seed, i, p, c.Probe(p), o.probe(p))
			}
		}
	}
	if err := checkAllRanks(c, o); err != nil {
		t.Fatalf("%+v seed %d: after the stream: %v", cfg, seed, err)
	}
}

// FuzzCacheMatchesOracle compares the ranked Cache with the original
// per-set implementation on random geometry and address streams.
func FuzzCacheMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, shift, assoc, sets uint8) {
		checkAgainstOracle(t, oracleGeometry(shift, assoc, sets), seed)
	})
}

// TestCacheMatchesOracle sweeps fixed seeds through the same check as
// FuzzCacheMatchesOracle, plus the three E5-2420 levels.
func TestCacheMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		rng := sim.NewRNG(seed ^ 0x5eed)
		b := func() uint8 { return uint8(rng.Intn(256)) }
		checkAgainstOracle(t, oracleGeometry(b(), b(), b()), seed)
	}
	hc := E5_2420()
	for i, cfg := range []Config{hc.L1, hc.L2, hc.LLC} {
		checkAgainstOracle(t, cfg, uint64(i))
	}
}
