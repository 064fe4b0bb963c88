// Package cache implements a trace-driven, set-associative cache simulator
// with a configurable multi-level hierarchy (private L1/L2 per core plus a
// shared last-level cache). It substitutes for the real E5-2420 cache
// hierarchy the paper measured. The cache calibration
// (experiments.RunCalibration) replays co-running address streams through
// it to justify the analytic contention model's residency exponent in
// internal/machine; the profiler does not use it, since it counts
// footprint, working set and reuse from the address stream directly.
package cache

import (
	"fmt"

	"rdasched/internal/pp"
)

// ReplacementPolicy selects the victim line within a set.
type ReplacementPolicy int

const (
	// LRU evicts the least recently used line (what the analytic model
	// assumes and what Intel's LLC approximates).
	LRU ReplacementPolicy = iota
	// FIFO evicts the oldest-filled line.
	FIFO
	// Random evicts a pseudo-random line: each cache draws from its own
	// xorshift64 state, seeded with a fixed constant and reduced modulo
	// Assoc, so replays stay reproducible. No generator can be supplied.
	Random
)

func (p ReplacementPolicy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
	}
}

// Config describes one cache level.
type Config struct {
	Name       string
	Size       pp.Bytes
	LineSize   pp.Bytes
	Assoc      int // ways per set
	Policy     ReplacementPolicy
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

// Cache is a single set-associative cache level. Its lines live in two
// flat arrays indexed set*assoc + way: tags holds each way's block number
// (addr >> lineShift) and stamps its LRU touch or FIFO fill tick, with
// stamp 0 marking an invalid way. Ticks start at 1, so a valid line never
// carries stamp 0, and valid stamps within a set are distinct.
//
// The valid ways of every set form a prefix of it: a fill takes the
// first invalid way, an eviction replaces a valid one, and only Flush
// invalidates, all ways at once.
type Cache struct {
	cfg        Config
	tags       []uint64
	stamps     []uint64
	numSets    uint64
	setMask    uint64 // numSets-1 when numSets is a power of two
	pow2Sets   bool
	lineShift  uint
	tick       uint64
	randState  uint64
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
		cfg:       cfg,
		tags:      make([]uint64, lines),
		stamps:    make([]uint64, lines),
		numSets:   numSets,
		setMask:   numSets - 1,
		pow2Sets:  numSets&(numSets-1) == 0,
		randState: 0x2545f4914f6cdd1d,
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

// set returns the ways of the set block blk maps to.
func (c *Cache) set(blk uint64) (tags, stamps []uint64) {
	var idx uint64
	if c.pow2Sets {
		idx = blk & c.setMask
	} else {
		idx = blk % c.numSets
	}
	base := int(idx) * c.cfg.Assoc
	end := base + c.cfg.Assoc
	return c.tags[base:end:end], c.stamps[base:end:end]
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
// on fills into invalid ways, evicted is false and victim is 0.
//
// The victim is the first invalid way of the set, else the oldest line
// (lowest stamp) under LRU and FIFO, or a pseudo-random way under Random.
// Because the valid ways form a prefix of the set, one pass finds the
// hit, the first invalid way and the oldest line: no way past the
// first invalid one can hit.
func (c *Cache) AccessEvict(addr uint64) (hit bool, victim uint64, evicted bool) {
	c.tick++
	c.stats.Accesses++
	blk := addr >> c.lineShift
	tags, stamps := c.set(blk)

	way, oldest := 0, stamps[0]
	for i, s := range stamps {
		if s == 0 {
			way, oldest = i, 0
			break
		}
		if tags[i] == blk {
			c.stats.Hits++
			if c.cfg.Policy == LRU {
				stamps[i] = c.tick
			}
			return true, 0, false
		}
		if s < oldest {
			way, oldest = i, s
		}
	}
	c.stats.Misses++

	if oldest == 0 {
		c.population++
	} else {
		if c.cfg.Policy == Random {
			c.randState ^= c.randState << 13
			c.randState ^= c.randState >> 7
			c.randState ^= c.randState << 17
			way = int(c.randState % uint64(c.cfg.Assoc))
		}
		c.stats.Evictions++
		victim, evicted = tags[way]<<c.lineShift, true
	}
	tags[way] = blk
	stamps[way] = c.tick
	return false, victim, evicted
}

// Probe reports whether addr is resident without updating replacement
// state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	blk := addr >> c.lineShift
	tags, stamps := c.set(blk)
	for i, t := range tags {
		if t == blk && stamps[i] != 0 {
			return true
		}
	}
	return false
}

// Flush invalidates all lines and counts nothing.
func (c *Cache) Flush() {
	clear(c.stamps)
	c.population = 0
}
