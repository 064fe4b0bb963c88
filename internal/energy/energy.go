// Package energy models system power and accumulates energy the way
// Intel's RAPL (Running Average Power Limit) interface meters it: as two
// domains, package (cores + caches) and DRAM. The paper reads RAPL via
// perf; we integrate the same physical terms over simulated time:
//
//	package = static power + per-active-core dynamic power
//	          + per-LLC-access energy
//	DRAM    = background power + per-DRAM-access energy
//
// "System" energy in the paper's Figure 7 is package + DRAM; Figure 8 is
// the DRAM domain alone. Constants are calibrated to an E5-2420-class
// part (95 W TDP Sandy Bridge-EN with DDR3) — absolute Joules are
// model-dependent, but the *relative* effects the paper measures (fewer
// DRAM accesses and shorter runtimes → less energy) follow directly from
// this structure.
package energy

import (
	"fmt"

	"rdasched/internal/sim"
)

// Model holds the power/energy constants.
type Model struct {
	// StaticPkgWatts is package power drawn regardless of activity
	// (uncore, clocks, leakage).
	StaticPkgWatts float64
	// ActiveCoreWatts is the additional power of one busy core.
	ActiveCoreWatts float64
	// LLCAccessJoules is the energy of one LLC lookup (hit or miss).
	LLCAccessJoules float64
	// DRAMAccessJoules is the energy of one 64-byte DRAM transfer.
	DRAMAccessJoules float64
	// DRAMBackgroundWatts is refresh/standby power of the DIMMs.
	DRAMBackgroundWatts float64
}

// Default returns constants for the Table 1 machine. Sources for the
// orders of magnitude: Sandy Bridge EP uncore ≈ 25–30 W; one active core
// ≈ 4–6 W at 1.9 GHz; LLC access ≈ 1–2 nJ; a 64 B DDR3 transfer ≈ 15–25
// nJ end to end; 4 DDR3 DIMMs ≈ 8 W background.
func Default() Model {
	return Model{
		StaticPkgWatts:      28.0,
		ActiveCoreWatts:     4.5,
		LLCAccessJoules:     1.5e-9,
		DRAMAccessJoules:    20e-9,
		DRAMBackgroundWatts: 8.0,
	}
}

// Validate rejects non-physical constants.
func (m Model) Validate() error {
	for name, v := range map[string]float64{
		"StaticPkgWatts":      m.StaticPkgWatts,
		"ActiveCoreWatts":     m.ActiveCoreWatts,
		"LLCAccessJoules":     m.LLCAccessJoules,
		"DRAMAccessJoules":    m.DRAMAccessJoules,
		"DRAMBackgroundWatts": m.DRAMBackgroundWatts,
	} {
		if v < 0 {
			return fmt.Errorf("energy: negative %s (%v)", name, v)
		}
	}
	return nil
}

// Meter accumulates Joules over a run, RAPL style. Time-proportional terms
// are integrated by AdvanceTime (with the number of busy cores during the
// interval); event-proportional terms are added by CountLLC/CountDRAM.
type Meter struct {
	model Model

	pkgJoules  float64
	dramJoules float64

	busyCoreSecs float64 // ∫ busy-cores dt, for reporting average power
	elapsed      sim.Duration
}

// NewMeter returns a meter over the given model; it panics on invalid
// constants (construction-time programming error).
func NewMeter(m Model) *Meter {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return &Meter{model: m}
}

// AdvanceTime integrates the time-proportional power terms over an
// interval during which busyCores cores were executing (may be fractional
// under processor sharing).
func (mt *Meter) AdvanceTime(d sim.Duration, busyCores float64) {
	if d < 0 {
		panic("energy: negative interval")
	}
	if busyCores < 0 {
		busyCores = 0
	}
	secs := d.Seconds()
	mt.pkgJoules += (mt.model.StaticPkgWatts + mt.model.ActiveCoreWatts*busyCores) * secs
	mt.dramJoules += mt.model.DRAMBackgroundWatts * secs
	mt.busyCoreSecs += busyCores * secs
	mt.elapsed += d
}

// CountLLC adds n LLC accesses.
func (mt *Meter) CountLLC(n uint64) {
	mt.pkgJoules += float64(n) * mt.model.LLCAccessJoules
}

// CountDRAM adds n DRAM accesses (LLC misses).
func (mt *Meter) CountDRAM(n uint64) {
	mt.dramJoules += float64(n) * mt.model.DRAMAccessJoules
}

// PackageJoules returns energy in the package domain so far.
func (mt *Meter) PackageJoules() float64 { return mt.pkgJoules }

// DRAMJoules returns energy in the DRAM domain so far.
func (mt *Meter) DRAMJoules() float64 { return mt.dramJoules }

// SystemJoules returns package + DRAM (the paper's "CPU + cache + DRAM").
func (mt *Meter) SystemJoules() float64 { return mt.pkgJoules + mt.dramJoules }

// AvgSystemWatts returns mean system power over the elapsed interval
// (0 for an empty interval).
func (mt *Meter) AvgSystemWatts() float64 {
	secs := mt.elapsed.Seconds()
	if secs == 0 {
		return 0
	}
	return mt.SystemJoules() / secs
}

// AvgBusyCores returns the time-averaged number of busy cores.
func (mt *Meter) AvgBusyCores() float64 {
	secs := mt.elapsed.Seconds()
	if secs == 0 {
		return 0
	}
	return mt.busyCoreSecs / secs
}

func (mt *Meter) String() string {
	return fmt.Sprintf("pkg %.1fJ + dram %.1fJ = %.1fJ over %v (%.1f W avg)",
		mt.pkgJoules, mt.dramJoules, mt.SystemJoules(), mt.elapsed.Seconds(), mt.AvgSystemWatts())
}
