package experiments

import (
	"fmt"

	"rdasched/internal/core"
	"rdasched/internal/perf"
	"rdasched/internal/report"
	"rdasched/internal/workloads"
)

// GranularityPoint is one bar of Figure 11: dgemm split into a number of
// progress periods (0 = uninstrumented baseline).
type GranularityPoint struct {
	Periods  int
	Label    string
	GFLOPS   float64
	Overhead float64 // fractional slowdown vs the uninstrumented run
}

// GranularityResult is the Figure 11 dataset.
type GranularityResult struct {
	Points []GranularityPoint
}

// Fig11Granularities are the paper's decompositions of the 512³ dgemm:
// no tracking, the whole kernel (outer loop), one period per middle-loop
// iteration (512), and one per innermost iteration (512² = 262144).
var Fig11Granularities = []struct {
	Periods int
	Label   string
}{
	{0, "none"},
	{1, "outer"},
	{512, "middle"},
	{512 * 512, "inner"},
}

// RunGranularity reproduces Figure 11: a single dgemm instance is run
// alone under the strict policy at each progress-tracking granularity,
// and the attained GFLOPS are compared against the untracked run. The
// four granularities run concurrently on opt.Jobs workers. Each runs
// one unjittered repetition, so Repetitions and JitterFrac are ignored,
// and Scale shrinks only the middle and inner period counts.
func RunGranularity(opt Options) (*GranularityResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	var cells []cell
	for _, g := range Fig11Granularities {
		periods := g.Periods
		if opt.Scale < 1 && periods > 1 {
			periods = int(float64(periods) * opt.Scale)
			if periods < 1 {
				periods = 1
			}
		}
		w, err := workloads.DgemmGranularity(periods)
		if err != nil {
			return nil, err
		}
		// Single repetition without jitter: the figure compares the same
		// kernel against itself, so run-to-run noise would only blur the
		// overhead measurement.
		cells = append(cells, cell{
			label: fmt.Sprintf("granularity %d", g.Periods),
			w:     w,
			rc: perf.RunConfig{
				Machine: opt.Machine,
				Policy:  core.StrictPolicy{},
			},
		})
	}
	ms, err := measure(cells, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res := &GranularityResult{}
	var baseline float64
	for i, g := range Fig11Granularities {
		p := GranularityPoint{Periods: g.Periods, Label: g.Label, GFLOPS: ms[i].Mean.GFLOPS}
		if g.Periods == 0 {
			baseline = p.GFLOPS
		}
		if baseline > 0 {
			p.Overhead = 1 - p.GFLOPS/baseline
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Table renders the Figure 11 dataset.
func (r *GranularityResult) Table() *report.Table {
	t := report.NewTable("Figure 11: dgemm progress-tracking overhead by granularity",
		"granularity", "periods", "GFLOPS", "overhead")
	for _, p := range r.Points {
		t.AddRow(p.Label, fmt.Sprintf("%d", p.Periods),
			fmt.Sprintf("%.3f", p.GFLOPS), fmt.Sprintf("%.1f%%", p.Overhead*100))
	}
	return t
}
