package main

import (
	"fmt"
	"os"
	"path/filepath"

	"rdasched/internal/experiments"
	"rdasched/internal/proc"
	"rdasched/internal/report"
	"rdasched/internal/workloads"
)

// call is one harness call of an iteration: it returns the tables the
// harness renders, which are the call's checked output.
type call struct {
	name string
	run  func() ([]*report.Table, error)
}

// inputs is what set-up builds for a workload: the harness calls of one
// iteration, plus the directory an observed iteration writes into.
type inputs struct {
	calls []call
	// obsDir receives the observed sweep's traces and HTML reports; it is
	// emptied after every iteration. Empty for unobserved workloads.
	obsDir string
	// reference, when set, returns the same calls with every observer
	// detached; their tables must equal the observed ones.
	reference func() []call
}

// workload is one benchmark workload. setup derives every input the
// harness calls consume from the seed, and points observed calls at dir,
// an empty directory the benchmark creates before timing set-up; the
// harness calls see nothing else.
type workload struct {
	name  string
	setup func(seed uint64, dir string) (*inputs, error)
}

var benchWorkloads = []workload{
	{name: "paper-figs", setup: setupPaperFigs},
	{name: "observed-sweep", setup: setupObservedSweep},
	{name: "trace-profile", setup: setupTraceProfile},
}

func workloadByName(name string) (workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have paper-figs, observed-sweep, trace-profile)", name)
}

// benchOptions is the paper's measurement setup (Table 1 machine, four
// repetitions, 2% jitter) at full scale, on one worker: results are the
// same for any Jobs value, and one process with one worker is the load a
// two-core shared host can measure without its own noise.
func benchOptions(seed uint64) experiments.Options {
	opt := experiments.Defaults()
	opt.Seed = seed
	opt.Jobs = 1
	return opt
}

// setupPaperFigs builds Figs 7–11: the eight Table 2 workloads under the
// three policies (Figs 7–10), then the dgemm granularity sweep (Fig 11).
func setupPaperFigs(seed uint64, _ string) (*inputs, error) {
	opt := benchOptions(seed)
	ws := workloads.Table2()
	return &inputs{calls: paperFigCalls(ws, opt)}, nil
}

func paperFigCalls(ws []proc.Workload, opt experiments.Options) []call {
	return []call{
		{"RunPolicyComparison", func() ([]*report.Table, error) {
			rows, err := experiments.RunPolicyComparison(ws, opt)
			if err != nil {
				return nil, err
			}
			var out []*report.Table
			for _, fig := range []int{7, 8, 9, 10} {
				t, err := experiments.FigureTable(fig, rows)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
			return out, nil
		}},
		{"RunGranularity", func() ([]*report.Table, error) {
			res, err := experiments.RunGranularity(opt)
			if err != nil {
				return nil, err
			}
			return []*report.Table{res.Table()}, nil
		}},
	}
}

// setupObservedSweep builds E4–E9 with every observer attached, writing
// traces and HTML reports into dir. The harnesses build their own
// workload specs, so set-up is the options alone.
func setupObservedSweep(seed uint64, dir string) (*inputs, error) {
	opt := benchOptions(seed)
	obs := opt
	obs.ObsDir, obs.TraceDir = dir, dir
	return &inputs{
		calls:     eSeriesCalls(obs),
		obsDir:    dir,
		reference: func() []call { return eSeriesCalls(opt) },
	}, nil
}

// tabler is what every E-series result renders through.
type tabler interface{ Table() *report.Table }

func one[R tabler](run func(experiments.Options) (R, error), opt experiments.Options) func() ([]*report.Table, error) {
	return func() ([]*report.Table, error) {
		res, err := run(opt)
		if err != nil {
			return nil, err
		}
		return []*report.Table{res.Table()}, nil
	}
}

func eSeriesCalls(opt experiments.Options) []call {
	return []call{
		{"RunChaos", one(experiments.RunChaos, opt)},
		{"RunOverload", one(experiments.RunOverload, opt)},
		{"RunDomains", one(experiments.RunDomains, opt)},
		{"RunHeal", one(experiments.RunHeal, opt)},
		{"RunObserve", one(experiments.RunObserve, opt)},
		{"RunRevive", one(experiments.RunRevive, opt)},
	}
}

// traceProfileScale sizes the trace-profile iteration: any Scale below 1
// cuts RunCalibration from 5 to 3 sweeps per replay. RunWSSPrediction
// ignores Scale and always profiles all eight (application, input) traces
// at full length.
const traceProfileScale = 0.5

// setupTraceProfile builds Fig 12 and the cache calibration. Both
// harnesses generate their own trace streams, loop binaries and address
// sequences inside the call, so set-up is the options alone.
func setupTraceProfile(seed uint64, _ string) (*inputs, error) {
	opt := benchOptions(seed)
	opt.Scale = traceProfileScale
	return &inputs{calls: []call{
		{"RunWSSPrediction", one(experiments.RunWSSPrediction, opt)},
		{"RunCalibration", one(experiments.RunCalibration, opt)},
	}}, nil
}

// emptyDir removes everything inside dir, keeping dir itself.
func emptyDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}
