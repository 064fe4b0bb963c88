package energy

import (
	"math"
	"testing"
	"testing/quick"

	"rdasched/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestValidateRejectsNegative(t *testing.T) {
	m := Default()
	m.DRAMAccessJoules = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative constant accepted")
	}
}

func TestNewMeterPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid model")
		}
	}()
	m := Default()
	m.StaticPkgWatts = -5
	NewMeter(m)
}

func TestTimeIntegration(t *testing.T) {
	m := Model{StaticPkgWatts: 10, ActiveCoreWatts: 2, DRAMBackgroundWatts: 4}
	mt := NewMeter(m)
	mt.AdvanceTime(2*sim.Second, 3) // 2s with 3 busy cores
	wantPkg := (10.0 + 2.0*3) * 2
	if math.Abs(mt.PackageJoules()-wantPkg) > 1e-9 {
		t.Fatalf("pkg = %v, want %v", mt.PackageJoules(), wantPkg)
	}
	if math.Abs(mt.DRAMJoules()-8) > 1e-9 {
		t.Fatalf("dram = %v, want 8", mt.DRAMJoules())
	}
	if got, want := mt.AvgSystemWatts(), (wantPkg+8)/2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("avg watts = %v, want %v over 2 s", got, want)
	}
	if got := mt.AvgBusyCores(); math.Abs(got-3) > 1e-9 {
		t.Fatalf("avg busy cores = %v, want 3", got)
	}
}

func TestEventCounting(t *testing.T) {
	mt := NewMeter(Model{LLCAccessJoules: 2e-9, DRAMAccessJoules: 10e-9})
	mt.CountLLC(1e6)
	mt.CountDRAM(1e5)
	if math.Abs(mt.PackageJoules()-2e-3) > 1e-12 {
		t.Fatalf("pkg = %v, want 2e-3", mt.PackageJoules())
	}
	if math.Abs(mt.DRAMJoules()-1e-3) > 1e-12 {
		t.Fatalf("dram = %v, want 1e-3", mt.DRAMJoules())
	}
}

func TestSystemIsSumOfDomains(t *testing.T) {
	f := func(llc, dram uint32, ms uint16, cores uint8) bool {
		mt := NewMeter(Default())
		mt.AdvanceTime(sim.Duration(ms)*sim.Millisecond, float64(cores%13))
		mt.CountLLC(uint64(llc))
		mt.CountDRAM(uint64(dram))
		return math.Abs(mt.SystemJoules()-(mt.PackageJoules()+mt.DRAMJoules())) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyMonotone(t *testing.T) {
	// Property: energy never decreases as time/events accumulate.
	mt := NewMeter(Default())
	prev := 0.0
	for i := 0; i < 100; i++ {
		mt.AdvanceTime(sim.Millisecond, float64(i%12))
		mt.CountLLC(uint64(i * 100))
		mt.CountDRAM(uint64(i * 10))
		if mt.SystemJoules() < prev {
			t.Fatal("energy decreased")
		}
		prev = mt.SystemJoules()
	}
}

func TestAvgWatts(t *testing.T) {
	mt := NewMeter(Model{StaticPkgWatts: 50, DRAMBackgroundWatts: 10})
	if mt.AvgSystemWatts() != 0 {
		t.Fatal("avg watts nonzero before any time")
	}
	mt.AdvanceTime(4*sim.Second, 0)
	if math.Abs(mt.AvgSystemWatts()-60) > 1e-9 {
		t.Fatalf("avg = %v, want 60", mt.AvgSystemWatts())
	}
}

func TestNegativeIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative interval")
		}
	}()
	NewMeter(Default()).AdvanceTime(-1, 1)
}

func TestNegativeBusyCoresClamped(t *testing.T) {
	mt := NewMeter(Model{StaticPkgWatts: 10, ActiveCoreWatts: 100})
	mt.AdvanceTime(sim.Second, -5)
	if math.Abs(mt.PackageJoules()-10) > 1e-9 {
		t.Fatalf("pkg = %v, want 10 (busy cores clamped to 0)", mt.PackageJoules())
	}
}

func TestMeterString(t *testing.T) {
	mt := NewMeter(Default())
	mt.AdvanceTime(sim.Second, 6)
	if mt.String() == "" {
		t.Fatal("empty string")
	}
}

func TestDRAMDominanceUnderThrashing(t *testing.T) {
	// Sanity link to the paper's mechanism: for a fixed runtime, a run
	// with 10x the DRAM accesses must show strictly more DRAM energy.
	calm := NewMeter(Default())
	thrash := NewMeter(Default())
	calm.AdvanceTime(sim.Second, 12)
	thrash.AdvanceTime(sim.Second, 12)
	calm.CountDRAM(1e7)
	thrash.CountDRAM(1e8)
	if thrash.DRAMJoules() <= calm.DRAMJoules() {
		t.Fatal("more DRAM traffic did not cost more DRAM energy")
	}
}
