// Package machine implements the analytic performance and energy model of
// the Table 1 test machine: 12 cores behind private L1/L2 caches and one
// shared 15360 KiB last-level cache. It executes proc.Workload phase
// descriptions under a fluid processor-sharing approximation of the Linux
// default scheduler, with an optional Gate through which the demand-aware
// extension (internal/core) pauses and resumes threads at progress-period
// boundaries.
//
// # Contention model
//
// The scheduling effects the paper measures all flow from last-level
// cache capacity contention, so that is what the model resolves. At any
// instant the *active set* is the set of ready threads, grouped by
// (process, phase): each group's working set competes for LLC residency
// once (threads of one process share their data). With total pressure P
// and capacity C, every working set keeps residency fraction
// r = min(1, C/P) — the steady state of LRU sharing among symmetric
// co-runners, and exactly the reload effect of Figure 1: a time-sliced
// co-runner evicts its peers whether or not it is on a core *right now*,
// because the default scheduler rotates all ready threads through the
// cores faster than the LLC turns over.
//
// Per-thread cycles-per-instruction then follows a standard memory-level
// breakdown, and a shared memory-bandwidth roofline caps aggregate miss
// traffic. Energy integrates the internal/energy RAPL model over the run.
package machine

import (
	"fmt"

	"rdasched/internal/energy"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// Config collects every constant of the machine model. The zero value is
// not usable; start from DefaultConfig.
type Config struct {
	// Cores is the number of physical cores (Table 1: 12).
	Cores int
	// FreqHz is the core clock (Table 1: 1.9 GHz).
	FreqHz float64
	// LLCCapacity is the shared cache size (Table 1: 15360 KiB).
	LLCCapacity pp.Bytes
	// MemBandwidth is the sustainable DRAM bandwidth in bytes/second
	// shared by all cores. 3-channel DDR3-1333 peaks at 32 GB/s on paper;
	// a 1.9 GHz E5-2420 sustains far less under random-miss traffic —
	// 14 GB/s reproduces the memory-bound plateau of Figure 13.
	MemBandwidth float64
	// LineSize is the transfer granularity to DRAM.
	LineSize pp.Bytes

	// BaseCPI is cycles/instruction with a perfect memory system.
	BaseCPI float64
	// PrivateHitCycles is the average extra cycles of an access served by
	// the private L1/L2 (mostly pipelined, hence small).
	PrivateHitCycles float64
	// LLCHitCycles / DRAMCycles are access latencies in core cycles.
	LLCHitCycles float64
	DRAMCycles   float64
	// MLPOverlap is the fraction of miss latency hidden by memory-level
	// parallelism and out-of-order execution; only (1-MLPOverlap) of the
	// latency is exposed as CPI.
	MLPOverlap float64
	// HMax is the maximum LLC hit rate of resident-set accesses, indexed
	// by pp.Reuse level: how often a fully resident working set is
	// re-referenced before eviction would matter.
	HMax [3]float64
	// ResidencyExponent sharpens the over-capacity cliff: the effective
	// hit scaling is residency^exponent. Linear sharing (exponent 1)
	// underestimates how brutally LRU fails once co-runners cycle through
	// more data than the cache holds — in the cyclic worst case the hit
	// rate collapses toward zero rather than degrading proportionally.
	// The default of 2 reproduces the measured collapse in the paper's
	// Figure 13 without making partial oversubscription (compromise
	// policy) hopeless.
	ResidencyExponent float64

	// OverheadAPIInstr is the instruction cost of one pp_begin or pp_end
	// call (user→kernel communication).
	OverheadAPIInstr float64
	// OverheadKernelInstr bounds the kernel-side arbitration cost of a
	// period boundary (predicate evaluation, wait-queue traffic, context
	// switch); short periods hit a fast path, modeled by charging
	// min(OverheadKernelInstr, OverheadKernelFrac·periodInstr).
	OverheadKernelInstr float64
	OverheadKernelFrac  float64
	// WakeLatency is the delay between a progress period releasing
	// resources and a waitlisted thread actually running again (wake IPI
	// + scheduling delay).
	WakeLatency sim.Duration
	// WakeRefillFactor scales the cold-cache refill a thread pays when it
	// resumes after being paused: while it waited, co-runners evicted its
	// working set, so on wake it re-fetches WSS/LineSize lines from DRAM.
	// 1 charges the full refill, 0 disables it. This is the flip side of
	// the benefit RDA trades for — pausing is not free, which is exactly
	// why the paper's low-reuse workloads end up slightly worse under RDA
	// than under the default policy.
	WakeRefillFactor float64

	// Energy holds the RAPL-style power/energy constants.
	Energy energy.Model

	// MaxSimTime aborts runs that exceed this much virtual time; it is a
	// guard against accidental livelock in experiments, not a scheduler
	// feature.
	MaxSimTime sim.Duration

	// Seed drives nothing: the machine model draws no random numbers
	// (jitter and faults are applied to the workload before a run). It
	// remains only because perfbench still sets it.
	Seed uint64
}

// DefaultConfig returns the Table 1 machine with calibrated model
// constants (see DESIGN.md §5 for the calibration notes).
func DefaultConfig() Config {
	return Config{
		Cores:        12,
		FreqHz:       1.9e9,
		LLCCapacity:  15360 * pp.KiB,
		MemBandwidth: 14e9,
		LineSize:     64,

		BaseCPI:           1.0,
		PrivateHitCycles:  0.5,
		LLCHitCycles:      30,
		DRAMCycles:        180,
		MLPOverlap:        0.6,
		HMax:              [3]float64{0.15, 0.75, 0.95},
		ResidencyExponent: 2.0,

		OverheadAPIInstr:    2400,
		OverheadKernelInstr: 245_000,
		OverheadKernelFrac:  0.25,
		WakeLatency:         30 * sim.Microsecond,
		WakeRefillFactor:    1.0,

		Energy: energy.Default(),

		MaxSimTime: 4 * 3600 * sim.Second,
	}
}

// Validate rejects unusable configurations. Every float bound is written
// so that NaN fails it.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("machine: %d cores", c.Cores)
	case !(c.FreqHz > 0):
		return fmt.Errorf("machine: frequency %v", c.FreqHz)
	case c.LLCCapacity <= 0:
		return fmt.Errorf("machine: LLC capacity %v", c.LLCCapacity)
	case !(c.MemBandwidth > 0):
		return fmt.Errorf("machine: bandwidth %v", c.MemBandwidth)
	case c.LineSize <= 0:
		return fmt.Errorf("machine: line size %v", c.LineSize)
	case !(c.BaseCPI > 0):
		return fmt.Errorf("machine: base CPI %v", c.BaseCPI)
	case !(c.PrivateHitCycles >= 0), !(c.LLCHitCycles >= 0), !(c.DRAMCycles >= 0):
		return fmt.Errorf("machine: access latencies %v/%v/%v cycles, want each ≥ 0",
			c.PrivateHitCycles, c.LLCHitCycles, c.DRAMCycles)
	case !(c.MLPOverlap >= 0 && c.MLPOverlap < 1):
		return fmt.Errorf("machine: MLP overlap %v outside [0,1)", c.MLPOverlap)
	case c.MaxSimTime <= 0:
		return fmt.Errorf("machine: max sim time %v", c.MaxSimTime)
	}
	for i, h := range c.HMax {
		if !(h >= 0 && h <= 1) {
			return fmt.Errorf("machine: HMax[%d] = %v outside [0,1]", i, h)
		}
	}
	if !(c.ResidencyExponent >= 1) {
		return fmt.Errorf("machine: residency exponent %v below 1", c.ResidencyExponent)
	}
	if !(c.OverheadKernelFrac >= 0) || !(c.OverheadAPIInstr >= 0) || !(c.OverheadKernelInstr >= 0) {
		return fmt.Errorf("machine: overhead constants %v/%v/%v, want each ≥ 0",
			c.OverheadAPIInstr, c.OverheadKernelInstr, c.OverheadKernelFrac)
	}
	if c.WakeLatency < 0 {
		return fmt.Errorf("machine: negative wake latency")
	}
	if !(c.WakeRefillFactor >= 0 && c.WakeRefillFactor <= 1) {
		return fmt.Errorf("machine: wake refill factor %v outside [0,1]", c.WakeRefillFactor)
	}
	return c.Energy.Validate()
}

// boundaryOverhead returns the extra instructions charged to a declared
// phase of the given length for its begin/end API calls plus kernel
// arbitration (see DESIGN.md §5; reproduces the Figure 11 curve).
// It takes a pointer so that the hot path does not copy the Config.
func (c *Config) boundaryOverhead(phaseInstr float64) float64 {
	kernel := c.OverheadKernelInstr
	if cap := c.OverheadKernelFrac * phaseInstr; cap < kernel {
		kernel = cap
	}
	return c.OverheadAPIInstr + kernel
}
