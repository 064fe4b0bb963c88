// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated machine.
//
// Usage:
//
//	experiments -all               # everything (takes a few minutes)
//	experiments -table 2           # workload inventory
//	experiments -fig 7             # system energy comparison
//	experiments -fig 13 -scale 0.2 # quick, shape-preserving run
//	experiments -all -markdown     # output for EXPERIMENTS.md
//	experiments -all -jobs 8       # 8 concurrent replications (same output)
//
// Replications fan out across -jobs workers (default: all cores); the
// tables are bit-identical for every worker count because each
// replication's seed derives from -seed and its job index alone.
//
// One table, harnesses, lists every table, figure and experiment with
// the outputs it produces. It drives selection and the flag help, and
// an output flag that no selected harness honours exits 2 before
// anything runs, as does any flag given with -version, which reads
// none.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"rdasched/internal/experiments"
	"rdasched/internal/obsrv"
	"rdasched/internal/profutil"
	"rdasched/internal/report"
	"rdasched/internal/telemetry"
	"rdasched/internal/version"
	"rdasched/internal/workloads"
)

// output is a set of the optional outputs a harness produces.
type output uint8

const (
	traces   output = 1 << iota // per-cell Chrome traces (-trace-dir)
	reports                     // per-cell HTML reports (-obs-dir)
	live                        // replications -listen and -pace can watch
	registry                    // a telemetry registry (-metrics)

	measured = traces | reports | live // what a harness with scheduled cells produces
)

// outputFlags ties each output flag to the output it needs, in the
// order refusals are checked.
var outputFlags = []struct {
	flag string
	out  output
	lack string // what a harness without out does not do
}{
	{"-trace-dir", traces, "writes no traces"},
	{"-obs-dir", reports, "writes no HTML reports"},
	{"-listen", live, "runs no replications to watch"},
	{"-pace", live, "runs no replications to pace"},
	{"-metrics", registry, "collects no telemetry registry"},
}

// runFunc runs a harness and returns its tables and, if it collects
// one, its telemetry registry. pick is the flag value that selected it,
// or "" under -all.
type runFunc func(opt experiments.Options, pick string) ([]*report.Table, *telemetry.Registry, error)

// harness is one table, figure or experiment.
type harness struct {
	mode    string   // the flag that selects it: table, fig, ext or experiment
	names   []string // values of that flag that select it
	about   string   // flag help, including every input it ignores
	outputs output
	run     runFunc
}

// harnesses is every harness in -all order.
var harnesses = []harness{
	{"table", []string{"1"}, "machine configuration", 0, static(experiments.Table1)},
	{"table", []string{"2"}, "workload inventory", 0, static(experiments.Table2Report)},
	{"fig", []string{"7", "8", "9", "10"}, "system energy, DRAM energy, GFLOPS, GFLOPS/W (one sweep; -all prints all four)",
		measured, policyFigures},
	{"fig", []string{"11"}, "tracking overhead by granularity (one unjittered repetition, so ignores -reps and -jitter; -scale shrinks only the period counts)",
		measured, tabled(experiments.RunGranularity, nil)},
	{"fig", []string{"12"}, "working-set prediction (ignores -scale, -reps and -jitter)",
		0, tabled(experiments.RunWSSPrediction, nil)},
	{"fig", []string{"13"}, "LLC interference under the default policy (-scale floored at 0.05)",
		reports | live, tabled(experiments.RunInterference, nil)},
	{"ext", []string{"partitioning"}, "E1 cache partitioning", measured, tabled(experiments.RunPartitioning, nil)},
	{"ext", []string{"reserve"}, "E2 LLC reservation", measured, tabled(experiments.RunReserve, nil)},
	{"ext", []string{"bandwidth"}, "E3 bandwidth-aware admission", measured, tabled(experiments.RunBandwidth, nil)},
	{"ext", []string{"calibration"}, "residency-exponent calibration (3 sweeps per replay instead of 5 at any -scale below 1; ignores -reps and -jitter)",
		0, tabled(experiments.RunCalibration, nil)},
	{"ext", []string{"factor"}, "oversubscription-factor sweep", measured, tabled(experiments.RunFactorSweep, nil)},
	{"ext", []string{"waits"}, "admission wait profile", measured | registry,
		tabled(experiments.RunWaitProfile, func(r *experiments.WaitProfileResult) *telemetry.Registry { return r.Merged })},
	{"experiment", []string{"e4", "chaos"}, "fault-injected admission", measured | registry,
		tabled(experiments.RunChaos, func(r *experiments.ChaosResult) *telemetry.Registry { return r.Telemetry })},
	{"experiment", []string{"e5", "overload"}, "governor vs static policies", measured | registry,
		tabled(experiments.RunOverload, func(r *experiments.OverloadResult) *telemetry.Registry { return r.Telemetry })},
	{"experiment", []string{"e6", "domains"}, "multi-domain placement", measured | registry,
		tabled(experiments.RunDomains, func(r *experiments.DomainResult) *telemetry.Registry { return r.Telemetry })},
	{"experiment", []string{"e7", "heal"}, "shard failure recovery", measured | registry,
		tabled(experiments.RunHeal, func(r *experiments.HealResult) *telemetry.Registry { return r.Telemetry })},
	{"experiment", []string{"e8", "observe"}, "causal wait attribution", measured | registry,
		tabled(experiments.RunObserve, func(r *experiments.ObserveResult) *telemetry.Registry { return r.Telemetry })},
	{"experiment", []string{"e9", "revive"}, "crash-restart checkpoint/restore (forces one repetition, so ignores -reps)", registry, revive},
}

// modes are the flags that select harnesses.
var modes = []string{"table", "fig", "ext", "experiment"}

// static adapts a table that needs no run.
func static(table func() *report.Table) runFunc {
	return func(experiments.Options, string) ([]*report.Table, *telemetry.Registry, error) {
		return []*report.Table{table()}, nil, nil
	}
}

// tabled adapts a harness whose result renders as one table; reg, when
// non-nil, picks the result's telemetry registry.
func tabled[R interface{ Table() *report.Table }](run func(experiments.Options) (R, error), reg func(R) *telemetry.Registry) runFunc {
	return func(opt experiments.Options, _ string) ([]*report.Table, *telemetry.Registry, error) {
		res, err := run(opt)
		if err != nil {
			return nil, nil, err
		}
		var r *telemetry.Registry
		if reg != nil {
			r = reg(res)
		}
		return []*report.Table{res.Table()}, r, nil
	}
}

// policyFigures renders Figures 7–10 from one policy-comparison sweep:
// the picked figure, or all four under -all.
func policyFigures(opt experiments.Options, pick string) ([]*report.Table, *telemetry.Registry, error) {
	rows, err := experiments.RunPolicyComparison(workloads.Table2(), opt)
	if err != nil {
		return nil, nil, err
	}
	var out []*report.Table
	for _, f := range []int{7, 8, 9, 10} {
		if pick != "" && pick != strconv.Itoa(f) {
			continue
		}
		t, err := experiments.FigureTable(f, rows)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, t)
	}
	return out, nil, nil
}

// revive runs E9, whose table follows the build identity it was made by.
func revive(opt experiments.Options, _ string) ([]*report.Table, *telemetry.Registry, error) {
	res, err := experiments.RunRevive(opt)
	if err != nil {
		return nil, nil, err
	}
	fmt.Println(version.String())
	return []*report.Table{res.Table()}, res.Telemetry, nil
}

// task is one selected harness and the flag value that picked it ("" under -all).
type task struct {
	h    *harness
	pick string
}

func (t task) String() string {
	if t.pick == "" {
		return "-" + t.h.mode + " " + strings.Join(t.h.names, "/")
	}
	return "-" + t.h.mode + " " + t.pick
}

// selectTasks resolves the mode flags to the harnesses to run: none
// under -version, which reads no other flag; every harness under -all;
// else the one that the single set mode flag names. set maps the name
// of every flag given on the command line to its value.
func selectTasks(all bool, set map[string]string) ([]task, error) {
	if set["version"] == "true" {
		var others []string
		for n := range set {
			if n != "version" {
				others = append(others, n)
			}
		}
		if len(others) > 0 {
			return nil, fmt.Errorf("-%s: -version reads no other flag", slices.Min(others))
		}
		return nil, nil
	}
	var given []string
	for _, m := range modes {
		if set[m] != "" {
			given = append(given, "-"+m)
		}
	}
	switch {
	case all:
		if len(given) > 0 {
			return nil, fmt.Errorf("-all and %s are exclusive", given[0])
		}
		tasks := make([]task, len(harnesses))
		for i := range harnesses {
			tasks[i] = task{h: &harnesses[i]}
		}
		return tasks, nil
	case len(given) == 0:
		return nil, errors.New("pass -all, -fig N, -table N, -ext NAME, or -experiment NAME")
	case len(given) > 1:
		return nil, fmt.Errorf("%s and %s are exclusive", given[0], given[1])
	}
	mode := given[0][1:]
	var have []string
	for i, h := range harnesses {
		if h.mode != mode {
			continue
		}
		if slices.Contains(h.names, set[mode]) {
			return []task{{&harnesses[i], set[mode]}}, nil
		}
		have = append(have, h.names...)
	}
	return nil, fmt.Errorf("unknown -%s %q (have %s)", mode, set[mode], strings.Join(have, ", "))
}

// refuse reports the first output flag in given that none of tasks
// honours. given maps an output flag's name to whether it was set.
func refuse(tasks []task, given map[string]bool) error {
	var have output
	names := make([]string, len(tasks))
	for i, t := range tasks {
		have |= t.h.outputs
		names[i] = t.String()
	}
	for _, f := range outputFlags {
		if given[f.flag] && have&f.out == 0 {
			return fmt.Errorf("%s: %s %s", f.flag, strings.Join(names, ", "), f.lack)
		}
	}
	return nil
}

// modeUsage is a mode flag's help: lead, then one line per harness.
func modeUsage(mode, lead string) string {
	var b strings.Builder
	b.WriteString(lead)
	for _, h := range harnesses {
		if h.mode == mode {
			fmt.Fprintf(&b, "\n%s: %s", strings.Join(h.names, ", "), h.about)
		}
	}
	return b.String()
}

// honouredBy lists, for an output flag's help, the harnesses producing out.
func honouredBy(out output) string {
	var names []string
	for i := range harnesses {
		if harnesses[i].outputs&out != 0 {
			names = append(names, task{h: &harnesses[i]}.String())
		}
	}
	return "\nhonoured by " + strings.Join(names, ", ")
}

// validateFlags rejects out-of-range numeric flags with a clear error
// instead of silently clamping or misbehaving downstream.
func validateFlags(scale, jitter float64, reps, jobs int, listen, pace string) error {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("-scale %g out of range (need 0 < scale <= 1)", scale)
	}
	if !(jitter >= 0 && jitter < 1) {
		return fmt.Errorf("-jitter %g out of range (need 0 <= jitter < 1)", jitter)
	}
	if reps < 1 {
		return fmt.Errorf("-reps %d, need at least 1", reps)
	}
	if jobs < 1 {
		return fmt.Errorf("-jobs %d, need at least 1", jobs)
	}
	if listen != "" {
		if _, _, err := net.SplitHostPort(listen); err != nil {
			return fmt.Errorf("-listen %q is not a host:port address: %v", listen, err)
		}
	}
	if _, err := obsrv.ParsePace(pace); err != nil {
		return fmt.Errorf("-pace: %v", err)
	}
	return nil
}

func main() {
	var (
		// selectTasks reads the mode flags from the set of given flags.
		_        = flag.String("table", "", modeUsage("table", "table to regenerate:"))
		_        = flag.String("fig", "", modeUsage("fig", "figure to regenerate:"))
		_        = flag.String("ext", "", modeUsage("ext", "extension experiment:"))
		_        = flag.String("experiment", "", modeUsage("experiment", "named experiment:"))
		all      = flag.Bool("all", false, "regenerate everything")
		scale    = flag.Float64("scale", 1, "shrink phase lengths (0 < scale ≤ 1) for quick runs")
		reps     = flag.Int("reps", 4, "repetitions per measurement")
		jitter   = flag.Float64("jitter", 0.02, "run-to-run variation (0 ≤ jitter < 1)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent replications (output is identical for any value)")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavored markdown tables")
		traceDir = flag.String("trace-dir", "", "write one Chrome/Perfetto trace-event JSON file per scheduled (non-default-policy) cell into this directory"+honouredBy(traces))
		obsDir   = flag.String("obs-dir", "", "write one self-contained HTML observability report (blame matrix, critical path, SLO burn rate) per measured cell into this directory"+honouredBy(reports))
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of this process to the file")
		memProf  = flag.String("memprofile", "", "write a heap profile of this process to the file on exit")
		metrics  = flag.Bool("metrics", false, "print the telemetry registry (Prometheus text exposition) after each harness that collects one"+honouredBy(registry))
		listen   = flag.String("listen", "", "serve live introspection endpoints (/metrics, /events, /state, /debug/pprof) on this address while the sweep runs, e.g. :8080"+honouredBy(live))
		pace     = flag.String("pace", "max", `wall-clock pacing of virtual time: "max" (unthrottled) or a ratio like "1x" (real time) or "10x"`+honouredBy(live))
		showVer  = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()

	if err := validateFlags(*scale, *jitter, *reps, *jobs, *listen, *pace); err != nil {
		usage(err)
	}
	ratio, _ := obsrv.ParsePace(*pace) // validated above
	set := map[string]string{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = f.Value.String() })
	tasks, err := selectTasks(*all, set)
	if err == nil {
		err = refuse(tasks, map[string]bool{
			"-trace-dir": *traceDir != "",
			"-obs-dir":   *obsDir != "",
			"-listen":    *listen != "",
			"-pace":      ratio != 0,
			"-metrics":   *metrics,
		})
	}
	if err != nil {
		usage(err)
	}
	if *showVer {
		fmt.Println(version.String())
		return
	}

	opt := experiments.Defaults()
	opt.Scale = *scale
	opt.Repetitions = *reps
	opt.JitterFrac = *jitter
	opt.Seed = *seed
	opt.Jobs = *jobs
	opt.TraceDir = *traceDir
	opt.ObsDir = *obsDir
	opt.Pace = ratio
	if *listen != "" {
		srv, err := obsrv.Serve(obsrv.Config{Addr: *listen})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "experiments: introspection server on %s\n", srv.URL())
		opt.Obsrv = srv
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			if err := srv.Close(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: introspection shutdown:", err)
			}
		}()
	}
	stopProf, err := profutil.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}

	for _, t := range tasks {
		tables, reg, err := t.h.run(opt, t.pick)
		if err == nil {
			for _, tbl := range tables {
				if *markdown {
					fmt.Println(tbl.Markdown())
				} else {
					fmt.Println(tbl.String())
				}
			}
			if *metrics && reg != nil {
				err = reg.WritePrometheus(os.Stdout)
			}
		}
		if err != nil {
			stopProf() // best effort: flush the CPU profile before exiting
			fatal(err)
		}
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// usage reports a flag error and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
