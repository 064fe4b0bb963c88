// Package cache implements a trace-driven, set-associative LRU cache
// simulator with a configurable multi-level hierarchy (private L1/L2 per
// core plus a shared last-level cache). It substitutes for the real
// E5-2420 cache hierarchy the paper measured. The cache calibration
// (experiments.RunCalibration) replays co-running address streams through
// it to justify the analytic contention model's residency exponent in
// internal/machine; the profiler does not use it, since it counts
// footprint, working set and reuse from the address stream directly.
package cache

import (
	"fmt"

	"rdasched/internal/pp"
)

// Config describes one cache level. Replacement is always LRU (what the
// analytic model assumes and what Intel's LLC approximates).
type Config struct {
	Name       string
	Size       pp.Bytes
	LineSize   pp.Bytes
	Assoc      int // ways per set
	LatencyCyc int // access latency in core cycles (hit cost)
}

// Validate checks geometric consistency: sizes must be powers of two and
// divide evenly into sets.
func (c Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	lines := c.Size / c.LineSize
	if c.Size%c.LineSize != 0 || lines%pp.Bytes(c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d / line %d / assoc %d does not form whole sets",
			c.Name, c.Size, c.LineSize, c.Assoc)
	}
	// Set counts need not be a power of two: the E5-2420's 15360 KiB
	// 20-way LLC has 12288 sets. Indexing uses modulo in that case.
	return nil
}

// Stats counts accesses for one cache level.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Cache is a single set-associative LRU cache level. Its lines live in
// one flat array indexed set*assoc + rank: tags holds each line's block
// number (addr >> lineShift), and within a set the valid lines fill
// ranks 0..valid[set]-1 in recency order, most recently used first.
// Ranks at and past valid[set] are stale and never read.
type Cache struct {
	cfg        Config
	tags       []uint64
	valid      []int // valid lines per set
	numSets    uint64
	setMask    uint64 // numSets-1 when numSets is a power of two
	pow2Sets   bool
	lineShift  uint
	stats      Stats
	population int // valid lines
}

// New builds a cache from cfg. It panics on invalid geometry (construction
// with bad geometry is a programming error, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := int(cfg.Size / cfg.LineSize)
	numSets := uint64(lines / cfg.Assoc)
	c := &Cache{
		cfg:      cfg,
		tags:     make([]uint64, lines),
		valid:    make([]int, numSets),
		numSets:  numSets,
		setMask:  numSets - 1,
		pow2Sets: numSets&(numSets-1) == 0,
	}
	for sz := cfg.LineSize; sz > 1; sz >>= 1 {
		c.lineShift++
	}
	return c
}

// Stats returns a copy of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int { return c.population }

// set returns the index of the set block blk maps to and that set's
// ranks.
func (c *Cache) set(blk uint64) (int, []uint64) {
	var idx uint64
	if c.pow2Sets {
		idx = blk & c.setMask
	} else {
		idx = blk % c.numSets
	}
	base := int(idx) * c.cfg.Assoc
	end := base + c.cfg.Assoc
	return int(idx), c.tags[base:end:end]
}

// Access touches addr, returning true on hit. On a miss the line is filled
// (allocate-on-miss for both loads and stores) and the victim, if any, is
// evicted.
func (c *Cache) Access(addr uint64) bool {
	hit, _, _ := c.AccessEvict(addr)
	return hit
}

// AccessEvict is Access but also reports the eviction a miss caused:
// evicted is true when the fill replaced a valid line, and victim is
// then that line's line-aligned address (which may be 0). On hits and
// on fills into a set with an invalid way, evicted is false and victim
// is 0.
//
// One pass over the valid ranks both searches and moves to front: each
// rank takes the line above it, rank 0 takes blk, and the pass stops at
// the hit, whose line blk replaces. A miss thus shifts every valid line
// down one rank; in a full set the last rank's line, the least recently
// used, falls off as the victim.
func (c *Cache) AccessEvict(addr uint64) (hit bool, victim uint64, evicted bool) {
	c.stats.Accesses++
	blk := addr >> c.lineShift
	set, ranks := c.set(blk)
	n := c.valid[set]

	prev := blk
	for i, t := range ranks[:n] {
		ranks[i] = prev
		if t == blk {
			c.stats.Hits++
			return true, 0, false
		}
		prev = t
	}
	c.stats.Misses++

	if n == len(ranks) {
		c.stats.Evictions++
		return false, prev << c.lineShift, true
	}
	ranks[n] = prev
	c.valid[set]++
	c.population++
	return false, 0, false
}

// Probe reports whether addr is resident without updating replacement
// state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	blk := addr >> c.lineShift
	set, ranks := c.set(blk)
	for _, t := range ranks[:c.valid[set]] {
		if t == blk {
			return true
		}
	}
	return false
}

// Flush invalidates all lines and counts nothing.
func (c *Cache) Flush() {
	clear(c.valid)
	c.population = 0
}
