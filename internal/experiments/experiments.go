// Package experiments contains one harness per table and figure of the
// paper's evaluation (§4), built on the workload definitions, the
// machine model, the RDA scheduler, the profiler, and the regression
// toolkit. cmd/experiments and the repository benchmarks are thin
// wrappers around this package; EXPERIMENTS.md records the outputs next
// to the paper's numbers.
package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"rdasched/internal/core"
	"rdasched/internal/machine"
	"rdasched/internal/obsrv"
	"rdasched/internal/perf"
	"rdasched/internal/proc"
	"rdasched/internal/report"
	"rdasched/internal/runner"
	"rdasched/internal/telemetry/blame"
	"rdasched/internal/telemetry/trace"
)

// Options configures an experiment run. Validate refuses out-of-range
// values; every Run* harness calls it first and then fills zero values
// with their defaults. Each harness's doc comment names the inputs it
// ignores.
type Options struct {
	// Machine is the hardware model; zero value selects Table 1.
	Machine machine.Config
	// Repetitions per measurement (the paper uses 4); 0 selects 1.
	Repetitions int
	// JitterFrac is the run-to-run variation (the paper observes ~2%),
	// in [0, 1).
	JitterFrac float64
	// Seed fixes all randomness.
	Seed uint64
	// Scale shrinks workloads for quick runs: phase lengths are
	// multiplied by Scale, in (0, 1]; 0 selects full size. Scaled runs
	// preserve shapes, not magnitudes; the committed EXPERIMENTS.md uses
	// full size.
	Scale float64
	// Jobs bounds how many replications run concurrently; 0 selects
	// runtime.GOMAXPROCS(0). Results are bit-identical for every value of
	// Jobs, including 1: each replication derives its randomness from
	// Seed and its stable job index (runner.Seed), never from execution
	// order, and results are collected by index.
	Jobs int
	// TraceDir, when non-empty, writes one Chrome trace-event JSON file
	// per scheduled cell (named after the cell label) into the directory,
	// loadable in Perfetto or chrome://tracing. Cells running the Linux
	// default policy have no scheduler and no spans, so they get no file.
	// Files are written in cell order with virtual-clock timestamps only,
	// so a trace is bit-identical for every Jobs value. With ObsDir also
	// set, traces additionally carry the SLO burn-rate counter tracks.
	TraceDir string
	// ObsDir, when non-empty, subscribes the causal wait-attribution
	// collector and the default admission-latency SLO monitor
	// (blame.DefaultSLOConfig) to every scheduled replication and writes
	// one self-contained HTML observability report per cell
	// (interference heatmap, wait-blame top-K table, burn-rate timeline)
	// into the directory. Like TraceDir, the reports ride the virtual
	// clock only and are bit-identical for every Jobs value.
	ObsDir string
	// Obsrv, when non-nil, attaches the live introspection server to
	// every replication: scrape /metrics and /state while a sweep runs.
	// Purely observational — results are bit-identical with or without
	// it. See perf.RunConfig.Obsrv.
	Obsrv *obsrv.Server
	// Pace throttles virtual time to Pace virtual seconds per wall
	// second in every replication (0 = unthrottled). Mostly useful with
	// Obsrv and Jobs=1 to watch a sweep live.
	Pace float64
}

// ErrInvalidOptions marks Options that Validate refuses.
var ErrInvalidOptions = errors.New("experiments: invalid options")

// Validate refuses a Scale outside [0, 1], a negative Repetitions or
// Jobs, and a JitterFrac outside [0, 1); each violation wraps
// ErrInvalidOptions. Zero values are valid and select defaults.
func (o Options) Validate() error {
	switch {
	case !(o.Scale >= 0 && o.Scale <= 1):
		return fmt.Errorf("%w: Scale %g outside [0, 1]", ErrInvalidOptions, o.Scale)
	case o.Repetitions < 0:
		return fmt.Errorf("%w: negative Repetitions %d", ErrInvalidOptions, o.Repetitions)
	case o.Jobs < 0:
		return fmt.Errorf("%w: negative Jobs %d", ErrInvalidOptions, o.Jobs)
	case !(o.JitterFrac >= 0 && o.JitterFrac < 1):
		return fmt.Errorf("%w: JitterFrac %g outside [0, 1)", ErrInvalidOptions, o.JitterFrac)
	}
	return nil
}

// Defaults returns the paper's measurement setup: Table 1 machine, four
// repetitions, 2% jitter.
func Defaults() Options {
	return Options{
		Machine:     machine.DefaultConfig(),
		Repetitions: 4,
		JitterFrac:  0.02,
		Seed:        1,
	}
}

// normalized fills o's zero values with their defaults; o must have
// passed Validate.
func (o Options) normalized() Options {
	if o.Machine.Cores == 0 {
		o.Machine = machine.DefaultConfig()
	}
	if o.Repetitions == 0 {
		o.Repetitions = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Jobs == 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	return o
}

// cell is one measured configuration (a sweep point under a policy) in
// a harness's fixed enumeration order. The rc.Seed field is left zero:
// measure derives each replication's seed from the experiment seed and
// the replication's global job index.
type cell struct {
	label string
	w     proc.Workload
	rc    perf.RunConfig
}

// measured is a cell's aggregate over its repetitions.
type measured struct {
	Mean, StdDev perf.Metrics
}

// measure fans every repetition of every cell out across opt.Jobs
// workers and returns per-cell aggregates in cell order. Replications
// are flattened to a stable global job index (cells in order,
// repetitions within a cell), and job i runs with the derived seed
// runner.Seed(opt.Seed, i): the measurement each job produces is a pure
// function of its coordinates, so the worker count can never change the
// result — only how long it takes. A replication that panics surfaces
// as a labeled error; its siblings still complete.
func measure(cells []cell, opt Options) ([]measured, error) {
	var jobCell, jobRep []int
	for ci := range cells {
		for r := 0; r < cells[ci].rc.Reps(); r++ {
			jobCell = append(jobCell, ci)
			jobRep = append(jobRep, r)
		}
	}
	samples, err := runner.Map(opt.Jobs, len(jobCell), func(i int) (perf.Metrics, error) {
		c := cells[jobCell[i]]
		rc := c.rc
		rc.Seed = runner.Seed(opt.Seed, uint64(i))
		rc.Telemetry = rc.Telemetry || (rc.Policy != nil && (opt.TraceDir != "" || opt.ObsDir != ""))
		rc.Trace = rc.Trace || (rc.Policy != nil && opt.TraceDir != "")
		if opt.ObsDir != "" && rc.Policy != nil {
			rc.Blame = true
			if rc.SLO == nil {
				rc.SLO = defaultSLO()
			}
		}
		rc.Obsrv, rc.Pace = opt.Obsrv, opt.Pace
		m, err := perf.Sample(c.w, rc, 0)
		if err != nil {
			return perf.Metrics{}, fmt.Errorf("%s (rep %d): %w", c.label, jobRep[i], err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]measured, len(cells))
	idx := 0
	for ci := range cells {
		n := cells[ci].rc.Reps()
		mean, sd, err := perf.Aggregate(samples[idx : idx+n])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cells[ci].label, err)
		}
		out[ci] = measured{Mean: mean, StdDev: sd}
		idx += n
	}
	if opt.TraceDir != "" {
		if err := writeTraces(cells, out, opt.TraceDir); err != nil {
			return nil, err
		}
	}
	if opt.ObsDir != "" {
		if err := writeObsReports(cells, out, opt.ObsDir); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// defaultSLO returns a fresh copy of the admission-latency objective
// E8 and ObsDir reports evaluate.
func defaultSLO() *blame.SLOConfig {
	cfg := blame.DefaultSLOConfig()
	return &cfg
}

// traceFileName derives a cell's trace file name from its label:
// lowercased, with every non-alphanumeric run collapsed to one dash.
func traceFileName(label string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(label) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.':
			if dash && b.Len() > 0 {
				b.WriteByte('-')
			}
			dash = false
			b.WriteRune(r)
		default:
			dash = true
		}
	}
	return b.String() + ".json"
}

// writeTraces exports one Chrome trace file per scheduled cell, in cell
// order; default-policy cells are skipped, as measure skips their Trace.
// Cells that also carry an SLO evaluation (ObsDir runs) get the
// burn-rate counter tracks alongside the spans; without one the file
// is byte-identical to the historical WriteChrome output.
func writeTraces(cells []cell, ms []measured, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	for ci := range cells {
		if cells[ci].rc.Policy == nil {
			continue
		}
		path := filepath.Join(dir, traceFileName(cells[ci].label))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		if slo := ms[ci].Mean.SLO; slo != nil {
			err = trace.WriteChromeWithCounters(f, ms[ci].Mean.Spans, slo.TraceCounters())
		} else {
			err = trace.WriteChrome(f, ms[ci].Mean.Spans)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("experiments: trace %s: %w", path, err)
		}
	}
	return nil
}

// obsMeta labels a cell's HTML report: the policy from the run config
// (nil is the Linux default, which has no scheduler and an empty
// report) and process names from the workload, in workload order —
// the decision stream's Proc is the workload process index.
func obsMeta(c cell) blame.ReportMeta {
	pol := "default"
	if c.rc.Policy != nil {
		pol = c.rc.Policy.Name()
	}
	meta := blame.ReportMeta{Workload: c.w.Name, Policy: pol}
	for _, s := range c.w.Procs {
		meta.Procs = append(meta.Procs, s.Name)
	}
	return meta
}

// writeObsReports exports one self-contained HTML observability report
// per cell, in cell order, named after the cell label.
func writeObsReports(cells []cell, ms []measured, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	for ci := range cells {
		rpt := ms[ci].Mean.Blame
		if rpt == nil {
			rpt = &blame.Report{}
		}
		name := strings.TrimSuffix(traceFileName(cells[ci].label), ".json") + ".html"
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		err = blame.WriteHTML(f, obsMeta(cells[ci]), rpt, ms[ci].Mean.SLO)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("experiments: report %s: %w", path, err)
		}
	}
	return nil
}

// scaleWorkload shrinks a workload's per-phase instruction counts. The
// process count, thread counts, working sets, and phase structure are
// preserved — those define the contention the experiments measure;
// shorter phases only shorten virtual time.
func scaleWorkload(w proc.Workload, scale float64) proc.Workload {
	if scale >= 1 {
		return w
	}
	return proc.ScaleInstr(w, scale)
}

// NamedPolicy is a scheduling configuration and its table label.
type NamedPolicy struct {
	Name   string
	Policy core.Policy
}

// Policies returns the three compared scheduling configurations in
// figure order: the Linux default, RDA:Strict, RDA:Compromise.
func Policies() []NamedPolicy {
	return []NamedPolicy{
		{"default", nil},
		{"strict", core.StrictPolicy{}},
		{"compromise", core.NewCompromise()},
	}
}

// PolicyRow is one (workload, policy) measurement.
type PolicyRow struct {
	Workload string
	Policy   string
	Mean     perf.Metrics
	StdDev   perf.Metrics
}

// RunPolicyComparison measures the given workloads under all three
// policies — the data behind Figures 7, 8, 9, and 10. The (workload,
// policy, repetition) replications run concurrently on opt.Jobs
// workers.
func RunPolicyComparison(ws []proc.Workload, opt Options) ([]PolicyRow, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	var cells []cell
	for _, w := range ws {
		sw := scaleWorkload(w, opt.Scale)
		for _, p := range Policies() {
			cells = append(cells, cell{
				label: fmt.Sprintf("%s under %s", w.Name, p.Name),
				w:     sw,
				rc: perf.RunConfig{
					Machine:     opt.Machine,
					Policy:      p.Policy,
					Repetitions: opt.Repetitions,
					JitterFrac:  opt.JitterFrac,
				},
			})
		}
	}
	ms, err := measure(cells, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	rows := make([]PolicyRow, 0, len(cells))
	i := 0
	for _, w := range ws {
		for _, p := range Policies() {
			rows = append(rows, PolicyRow{Workload: w.Name, Policy: p.Name,
				Mean: ms[i].Mean, StdDev: ms[i].StdDev})
			i++
		}
	}
	return rows, nil
}

// figureSpec ties each policy-comparison figure to its metric.
var figureSpec = map[int]struct {
	Metric func(perf.Metrics) float64
	Title  string
}{
	7:  {func(m perf.Metrics) float64 { return m.SystemJ }, "Figure 7: system energy (J) — CPU + cache + DRAM"},
	8:  {func(m perf.Metrics) float64 { return m.DRAMJ }, "Figure 8: DRAM-only energy (J)"},
	9:  {func(m perf.Metrics) float64 { return m.GFLOPS }, "Figure 9: performance (GFLOPS)"},
	10: {func(m perf.Metrics) float64 { return m.GFLOPSPerWatt }, "Figure 10: system energy efficiency (GFLOPS/Watt)"},
}

// FigureTable renders one of Figures 7–10 from comparison rows.
func FigureTable(fig int, rows []PolicyRow) (*report.Table, error) {
	spec, ok := figureSpec[fig]
	if !ok {
		return nil, fmt.Errorf("experiments: figure %d is not a policy-comparison figure", fig)
	}
	t := report.NewTable(spec.Title, "workload", "default", "strict", "compromise",
		"strict/default", "compromise/default")
	byWorkload := map[string]map[string]float64{}
	var order []string
	for _, r := range rows {
		if byWorkload[r.Workload] == nil {
			byWorkload[r.Workload] = map[string]float64{}
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload][r.Policy] = spec.Metric(r.Mean)
	}
	for _, w := range order {
		m := byWorkload[w]
		ratio := func(p string) string {
			if m["default"] == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fx", m[p]/m["default"])
		}
		t.AddRow(w,
			fmt.Sprintf("%.4g", m["default"]),
			fmt.Sprintf("%.4g", m["strict"]),
			fmt.Sprintf("%.4g", m["compromise"]),
			ratio("strict"), ratio("compromise"))
	}
	return t, nil
}
