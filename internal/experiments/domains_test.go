package experiments

import (
	"bytes"
	"testing"
)

// e6Opts is the pinned E6 configuration shared by the golden and the
// makespan assertion: one repetition, no jitter, a tenth scale — fully
// deterministic, like the E4 golden.
func e6Opts() Options {
	opt := Defaults()
	opt.Repetitions = 1
	opt.JitterFrac = 0
	opt.Scale = 0.1
	return opt
}

// TestGoldenE6 pins the domain table at a fixed seed: placement and
// steal decisions ride the virtual clock, so the full sweep is
// reproducible byte for byte.
func TestGoldenE6(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt, dir := withExports(t, e6Opts())
	res, err := RunDomains(opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e6", res.Table())
	checkObservedGolden(t, "e6", dir)
}

// TestDomainsSkewedSpeedup asserts the experiment's headline claim
// directly, independent of table formatting: on the skewed workload,
// every multi-domain configuration beats the single global domain on
// makespan, and the uniform control stays within a modest band of it
// (sharding must not wreck the no-skew case).
func TestDomainsSkewedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunDomains(e6Opts())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := map[string]map[int]float64{}
	for _, row := range res.Rows {
		if elapsed[row.Workload] == nil {
			elapsed[row.Workload] = map[int]float64{}
		}
		elapsed[row.Workload][row.Domains] = row.Mean.ElapsedSec
		if row.Domains == 1 {
			if row.Mean.DomainPlacements != 0 || row.Mean.DomainSteals != 0 {
				t.Errorf("%s at 1 domain: placements %.0f steals %.0f, want 0/0 (single-domain sets make no decisions)",
					row.Workload, row.Mean.DomainPlacements, row.Mean.DomainSteals)
			}
		}
	}
	skew := elapsed["domain-skewed"]
	for _, n := range DomainCounts[1:] {
		if skew[n] >= skew[1] {
			t.Errorf("skewed workload at %d domains: elapsed %.4fs, want < single-domain %.4fs",
				n, skew[n], skew[1])
		}
	}
	uni := elapsed["domain-uniform"]
	for _, n := range DomainCounts[1:] {
		if uni[n] > uni[1]*1.5 {
			t.Errorf("uniform workload at %d domains: elapsed %.4fs, want <= 1.5x single-domain %.4fs",
				n, uni[n], uni[1])
		}
	}
}

// TestDeterminismDomains covers the E6 harness: placement, steals, and
// the per-domain metric family must be byte-identical for every worker
// count.
func TestDeterminismDomains(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertIdenticalAcrossJobs(t, "domains", func(opt Options) ([]string, error) {
		res, err := RunDomains(opt)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := res.Telemetry.WritePrometheus(&b); err != nil {
			return nil, err
		}
		return []string{res.Table().String(), b.String()}, nil
	})
}
