package cache

import (
	"fmt"

	"rdasched/internal/pp"
)

// Level identifies a position in the cache hierarchy.
type Level int

const (
	L1 Level = iota
	L2
	LLC
	// Memory is the "miss everywhere" level returned by Hierarchy.Access.
	Memory
)

// HierarchyConfig is the full machine cache geometry: private L1/L2 per
// core and one shared LLC. The defaults mirror Table 1 of the paper.
type HierarchyConfig struct {
	Cores      int
	L1         Config
	L2         Config
	LLC        Config
	MemLatency int // cycles to DRAM on a full miss
}

// E5_2420 returns the Table 1 machine cache geometry: per-core 32 KiB L1D
// and 256 KiB L2, and a 15360 KiB shared L3, 64-byte lines throughout.
func E5_2420() HierarchyConfig {
	return HierarchyConfig{
		Cores:      12,
		L1:         Config{Name: "L1D", Size: 32 * pp.KiB, LineSize: 64, Assoc: 8, LatencyCyc: 4},
		L2:         Config{Name: "L2", Size: 256 * pp.KiB, LineSize: 64, Assoc: 8, LatencyCyc: 12},
		LLC:        Config{Name: "LLC", Size: 15360 * pp.KiB, LineSize: 64, Assoc: 20, LatencyCyc: 30},
		MemLatency: 180,
	}
}

// Validate checks every level.
func (hc HierarchyConfig) Validate() error {
	if hc.Cores <= 0 {
		return fmt.Errorf("cache: hierarchy needs at least one core, got %d", hc.Cores)
	}
	for _, cfg := range []Config{hc.L1, hc.L2, hc.LLC} {
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	if hc.MemLatency <= 0 {
		return fmt.Errorf("cache: non-positive memory latency %d", hc.MemLatency)
	}
	return nil
}

// Hierarchy is a set of per-core private caches in front of a shared LLC.
// Access is allocate-on-miss at every level: a miss fills the line into
// each level it passed. The levels are not kept inclusive: an LLC
// eviction does not back-invalidate L1 or L2, so a line that other cores'
// traffic evicts from the LLC is still served from its owner's private
// levels until they evict it themselves.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  []*Cache
	l2  []*Cache
	llc *Cache
}

// NewHierarchy builds the hierarchy; it panics on invalid geometry.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg, llc: New(cfg.LLC)}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, New(cfg.L1))
		h.l2 = append(h.l2, New(cfg.L2))
	}
	return h
}

// Access sends one reference from core to addr and returns the level that
// served it plus the access latency in cycles.
func (h *Hierarchy) Access(core int, addr uint64) (Level, int) {
	if core < 0 || core >= h.cfg.Cores {
		panic(fmt.Sprintf("cache: access from core %d of %d", core, h.cfg.Cores))
	}
	if h.l1[core].Access(addr) {
		return L1, h.cfg.L1.LatencyCyc
	}
	if h.l2[core].Access(addr) {
		return L2, h.cfg.L2.LatencyCyc
	}
	if h.llc.Access(addr) {
		return LLC, h.cfg.LLC.LatencyCyc
	}
	return Memory, h.cfg.MemLatency
}
