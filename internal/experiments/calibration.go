package experiments

import (
	"fmt"
	"math"

	"rdasched/internal/cache"
	"rdasched/internal/pp"
	"rdasched/internal/report"
	"rdasched/internal/runner"
	"rdasched/internal/sim"
)

// Calibration: the contention model's residency exponent γ is justified
// empirically by replaying co-running working sets through the real
// set-associative LRU hierarchy (internal/cache) and measuring the
// shared-cache hit rate as a function of pressure. Uniform random access
// degrades linearly (γ = 1); cyclic sweeps collapse (γ → ∞); the model's
// γ = 2 sits between. RunCalibration produces that curve as a table.

// CalibrationPoint is one measured (pressure, pattern) cell.
type CalibrationPoint struct {
	Threads   int
	WSS       pp.Bytes
	Residency float64 // r = C / ΣW (1 if it fits)
	Pattern   string
	HitRate   float64
	ModelHit  float64 // r^γ with the default exponent
}

// CalibrationResult is the measured curve.
type CalibrationResult struct {
	Gamma  float64
	Points []CalibrationPoint
}

// RunCalibration replays random and cyclic co-run patterns at several
// pressure levels through the Table 1 cache hierarchy. Each (pressure,
// pattern) replay builds a private hierarchy and RNG, so the replays
// run concurrently on opt.Jobs workers. Scale means a sweep count here:
// any Scale below 1 replays 3 sweeps per pattern instead of 5. Machine
// supplies only the model's residency exponent, and the harness
// ignores Repetitions, JitterFrac, TraceDir, ObsDir, Obsrv and Pace.
func RunCalibration(opt Options) (*CalibrationResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	gamma := opt.Machine.ResidencyExponent
	res := &CalibrationResult{Gamma: gamma}
	hc := cache.E5_2420()
	capacity := hc.LLC.Size

	sweeps := 5
	if opt.Scale < 1 {
		sweeps = 3
	}

	var points []CalibrationPoint
	for _, tc := range []struct {
		threads int
		wss     pp.Bytes
	}{
		{4, pp.MB(2)},  // 8 MB: fits
		{8, pp.MB(2)},  // 16 MB: marginal
		{12, pp.MB(2)}, // 24 MB: 1.6x over
		{12, pp.MB(4)}, // 48 MB: 3.2x over
	} {
		r := 1.0
		total := pp.Bytes(tc.threads) * tc.wss
		if total > capacity {
			r = float64(capacity) / float64(total)
		}
		for _, pattern := range []string{"random", "cyclic"} {
			points = append(points, CalibrationPoint{
				Threads: tc.threads, WSS: tc.wss, Residency: r,
				Pattern: pattern, ModelHit: math.Pow(r, gamma),
			})
		}
	}
	hits, err := runner.Map(opt.Jobs, len(points), func(i int) (float64, error) {
		p := points[i]
		return replayPattern(hc, p.Threads, p.WSS, p.Pattern, sweeps, opt.Seed)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	for i := range points {
		points[i].HitRate = hits[i]
	}
	res.Points = points
	return res, nil
}

// replayPattern interleaves per-thread access streams (one private
// L1/L2 each, shared LLC) in round-robin bursts and returns the measured
// steady-state LLC hit rate.
func replayPattern(hc cache.HierarchyConfig, threads int, wss pp.Bytes, pattern string, sweeps int, seed uint64) (float64, error) {
	if threads > hc.Cores {
		return 0, fmt.Errorf("experiments: calibration with %d threads exceeds %d cores", threads, hc.Cores)
	}
	h := cache.NewHierarchy(hc)
	rng := sim.NewRNG(seed + 0xca11b)
	pos := make([]uint64, threads)
	next := func(i int) uint64 {
		base := uint64(i) << 30
		if pattern == "random" {
			return base + (rng.Uint64n(uint64(wss)) &^ 63)
		}
		a := base + pos[i]
		pos[i] = (pos[i] + 64) % uint64(wss)
		return a
	}
	perThread := sweeps * int(wss/64)
	const burst = 512
	run := func(count bool) (hits, total uint64) {
		for done := 0; done < perThread; done += burst {
			for i := 0; i < threads; i++ {
				for k := 0; k < burst; k++ {
					lvl, _ := h.Access(i, next(i))
					if !count {
						continue
					}
					if lvl == cache.LLC {
						hits++
						total++
					} else if lvl == cache.Memory {
						total++
					}
				}
			}
		}
		return
	}
	run(false) // warm
	hits, total := run(true)
	if total == 0 {
		return 0, fmt.Errorf("experiments: calibration measured no LLC traffic")
	}
	return float64(hits) / float64(total), nil
}

// Table renders the calibration curve.
func (r *CalibrationResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Calibration: measured LLC hit rate vs residency (model: r^%.1f)", r.Gamma),
		"threads × wss", "residency r", "pattern", "measured hit", "model r^γ")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%d × %s", p.Threads, p.WSS),
			fmt.Sprintf("%.3f", p.Residency),
			p.Pattern,
			fmt.Sprintf("%.3f", p.HitRate),
			fmt.Sprintf("%.3f", p.ModelHit))
	}
	return t
}
