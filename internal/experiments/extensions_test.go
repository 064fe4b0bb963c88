package experiments

import (
	"testing"

	"rdasched/internal/perf"
)

func TestPartitioningExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunPartitioning(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base, part := res.Rows[0].Mean, res.Rows[1].Mean
	// The §6 claim: fencing over-LLC streamers into a small partition
	// lets the mix run concurrently instead of serializing behind
	// safeguard-admitted 24 MB demands.
	if part.GFLOPS < 2*base.GFLOPS {
		t.Errorf("partitioning speedup %.2fx, want ≥2x (%.3f vs %.3f GFLOPS)",
			part.GFLOPS/base.GFLOPS, part.GFLOPS, base.GFLOPS)
	}
	if part.SystemJ >= base.SystemJ {
		t.Errorf("partitioning did not save energy: %.1f vs %.1f J", part.SystemJ, base.SystemJ)
	}
	if part.AvgBusyCores <= base.AvgBusyCores {
		t.Error("partitioning did not raise concurrency")
	}
	if res.Table().Rows() != 2 {
		t.Error("table wrong")
	}
}

func TestReserveExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunReserve(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base, rsv := res.Rows[0].Mean, res.Rows[1].Mean
	// The reservation mechanically reduces admitted concurrency...
	if rsv.AvgBusyCores >= base.AvgBusyCores {
		t.Errorf("reserve did not reduce concurrency: %.1f vs %.1f busy",
			rsv.AvgBusyCores, base.AvgBusyCores)
	}
	// ...in exchange for at most a modest efficiency change either way —
	// the honest finding E2 records (reservation alone is not the fix;
	// partitioning the unmanaged load is).
	ratio := rsv.GFLOPSPerWatt / base.GFLOPSPerWatt
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("reserve efficiency ratio %.2f implausible", ratio)
	}
	if res.Table().Rows() != 2 {
		t.Error("table wrong")
	}
}

func TestCalibrationBracketsModel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunCalibration(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Residency >= 1 {
			// Fitting sets: both patterns hit nearly always.
			if p.HitRate < 0.95 {
				t.Errorf("%d×%v %s: hit %.3f for fitting sets", p.Threads, p.WSS, p.Pattern, p.HitRate)
			}
			continue
		}
		switch p.Pattern {
		case "random":
			// The linear bracket: measured ≈ r, and above the γ=2 model.
			if p.HitRate < p.ModelHit*0.9 {
				t.Errorf("%d×%v random: hit %.3f below model %.3f — γ too small", p.Threads, p.WSS, p.HitRate, p.ModelHit)
			}
			if p.HitRate > p.Residency*1.2 {
				t.Errorf("%d×%v random: hit %.3f above linear r %.3f", p.Threads, p.WSS, p.HitRate, p.Residency)
			}
		case "cyclic":
			// The collapse bracket: measured far below the model.
			if p.HitRate > p.ModelHit {
				t.Errorf("%d×%v cyclic: hit %.3f above model %.3f — γ too large", p.Threads, p.WSS, p.HitRate, p.ModelHit)
			}
		}
	}
	checkGolden(t, "calibration", res.Table())
}

func TestFactorSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFactorSweep(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2*len(FactorSweepValues) {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Monotone trade: raising the factor must not decrease concurrency's
	// share of the machine (GFLOPS non-decreasing from x=1 to the best
	// throughput factor would be too strong; instead assert the two
	// endpoints behave as strict-like and default-like).
	get := func(w string, x float64) perf.Metrics {
		for _, p := range res.Points {
			if p.Workload == w && p.Factor == x {
				return p.Mean
			}
		}
		t.Fatalf("missing point %s/%v", w, x)
		return perf.Metrics{}
	}
	for _, w := range []string{"BLAS-3", "water_nsq"} {
		tight, loose := get(w, 1.0), get(w, 4.0)
		if loose.DRAMAccesses <= tight.DRAMAccesses {
			t.Errorf("%s: higher factor did not increase DRAM traffic", w)
		}
	}
	if res.Table().Rows() != 10 {
		t.Error("table wrong")
	}
}

func TestBandwidthExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunBandwidth(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	llcOnly, withBW := res.Rows[0].Mean, res.Rows[1].Mean
	// Declaring bandwidth demands trades concurrency the roofline cannot
	// serve for core power: fewer busy cores, less system energy, higher
	// efficiency, at a bounded throughput cost.
	if withBW.AvgBusyCores >= llcOnly.AvgBusyCores {
		t.Errorf("BW admission did not reduce concurrency: %.1f vs %.1f",
			withBW.AvgBusyCores, llcOnly.AvgBusyCores)
	}
	if withBW.SystemJ >= llcOnly.SystemJ {
		t.Errorf("BW admission did not save energy: %.1f vs %.1f J",
			withBW.SystemJ, llcOnly.SystemJ)
	}
	if withBW.GFLOPSPerWatt <= llcOnly.GFLOPSPerWatt {
		t.Errorf("BW admission did not raise efficiency: %.4f vs %.4f",
			withBW.GFLOPSPerWatt, llcOnly.GFLOPSPerWatt)
	}
	if r := withBW.GFLOPS / llcOnly.GFLOPS; r < 0.7 || r > 1.05 {
		t.Errorf("BW admission throughput ratio %.2f outside the expected trade band", r)
	}
}
