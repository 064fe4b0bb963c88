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
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"rdasched/internal/core"
	"rdasched/internal/experiments"
	"rdasched/internal/obsrv"
	"rdasched/internal/profutil"
	"rdasched/internal/report"
	"rdasched/internal/version"
	"rdasched/internal/workloads"
)

// validateFlags rejects out-of-range numeric flags with a clear error
// instead of silently clamping or misbehaving downstream.
func validateFlags(scale, jitter float64, reps, jobs int, listen, pace string) error {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("-scale %g out of range (need 0 < scale <= 1)", scale)
	}
	if jitter < 0 {
		return fmt.Errorf("-jitter %g is negative", jitter)
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
		fig      = flag.Int("fig", 0, "figure to regenerate: 7, 8, 9, 10, 11, 12, or 13")
		table    = flag.Int("table", 0, "table to regenerate: 1 or 2")
		ext      = flag.String("ext", "", "extension experiment: partitioning, reserve, bandwidth, calibration, factor, or waits")
		exp      = flag.String("experiment", "", "named experiment: e4 (chaos: fault-injected admission), e5 (overload: governor vs static policies), e6 (multi-domain placement), e7 (heal: shard failure recovery), e8 (observe: causal wait attribution), or e9 (revive: crash-restart checkpoint/restore)")
		all      = flag.Bool("all", false, "regenerate everything")
		scale    = flag.Float64("scale", 1, "shrink phase lengths (0 < scale ≤ 1) for quick runs")
		reps     = flag.Int("reps", 4, "repetitions per measurement")
		jitter   = flag.Float64("jitter", 0.02, "run-to-run variation")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent replications (output is identical for any value)")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavored markdown tables")
		traceDir = flag.String("trace-dir", "", "write one Chrome/Perfetto trace-event JSON file per scheduled (non-default-policy) cell into this directory")
		obsDir   = flag.String("obs-dir", "", "write one self-contained HTML observability report (blame matrix, critical path, SLO burn rate) per measured cell into this directory")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of this process to the file")
		memProf  = flag.String("memprofile", "", "write a heap profile of this process to the file on exit")
		metrics  = flag.Bool("metrics", false, "print the telemetry registry (Prometheus text exposition) after harnesses that collect one (e4, e5, waits)")
		governor = flag.Bool("governor", false, "attach the adaptive admission governor to every scheduled cell (e5 configures its own)")
		listen   = flag.String("listen", "", "serve live introspection endpoints (/metrics, /events, /state, /debug/pprof) on this address while the sweep runs, e.g. :8080")
		pace     = flag.String("pace", "max", `wall-clock pacing of virtual time: "max" (unthrottled) or a ratio like "1x" (real time) or "10x"`)
		showVer  = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Println(version.String())
		return
	}
	if err := validateFlags(*scale, *jitter, *reps, *jobs, *listen, *pace); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	opt := experiments.Defaults()
	opt.Scale = *scale
	opt.Repetitions = *reps
	opt.JitterFrac = *jitter
	opt.Seed = *seed
	opt.Jobs = *jobs
	opt.TraceDir = *traceDir
	opt.ObsDir = *obsDir
	opt.Pace, _ = obsrv.ParsePace(*pace) // validated above
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
	if *governor {
		cfg := core.DefaultGovernorConfig()
		opt.Governor = &cfg
	}

	emit := func(t *report.Table) {
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
	}

	var tasks []func() error
	addTable := func(n int) {
		switch n {
		case 1:
			tasks = append(tasks, func() error { emit(experiments.Table1()); return nil })
		case 2:
			tasks = append(tasks, func() error { emit(experiments.Table2Report()); return nil })
		default:
			fatal(fmt.Errorf("unknown table %d (have 1, 2)", n))
		}
	}
	addFig := func(n int) {
		switch n {
		case 7, 8, 9, 10:
			tasks = append(tasks, func() error {
				rows, err := experiments.RunPolicyComparison(workloads.Table2(), opt)
				if err != nil {
					return err
				}
				for _, f := range []int{7, 8, 9, 10} {
					if f != n && !*all {
						continue
					}
					t, err := experiments.FigureTable(f, rows)
					if err != nil {
						return err
					}
					emit(t)
				}
				return nil
			})
		case 11:
			tasks = append(tasks, func() error {
				res, err := experiments.RunGranularity(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				return nil
			})
		case 12:
			tasks = append(tasks, func() error {
				res, err := experiments.RunWSSPrediction(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				return nil
			})
		case 13:
			tasks = append(tasks, func() error {
				res, err := experiments.RunInterference(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				return nil
			})
		default:
			fatal(fmt.Errorf("unknown figure %d (have 7-13)", n))
		}
	}

	addExt := func(name string) {
		switch name {
		case "partitioning", "reserve":
			run := experiments.RunPartitioning
			if name == "reserve" {
				run = experiments.RunReserve
			}
			tasks = append(tasks, func() error {
				res, err := run(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				return nil
			})
		case "calibration":
			tasks = append(tasks, func() error {
				res, err := experiments.RunCalibration(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				return nil
			})
		case "bandwidth":
			tasks = append(tasks, func() error {
				res, err := experiments.RunBandwidth(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				return nil
			})
		case "factor":
			tasks = append(tasks, func() error {
				res, err := experiments.RunFactorSweep(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				return nil
			})
		case "waits":
			tasks = append(tasks, func() error {
				res, err := experiments.RunWaitProfile(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				if *metrics {
					return res.Merged.WritePrometheus(os.Stdout)
				}
				return nil
			})
		default:
			fatal(fmt.Errorf("unknown extension %q (have partitioning, reserve, bandwidth, calibration, factor, waits)", name))
		}
	}

	addExperiment := func(name string) {
		switch name {
		case "e4", "chaos":
			tasks = append(tasks, func() error {
				res, err := experiments.RunChaos(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				if *metrics {
					return res.Telemetry.WritePrometheus(os.Stdout)
				}
				return nil
			})
		case "e5", "overload":
			tasks = append(tasks, func() error {
				res, err := experiments.RunOverload(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				if *metrics {
					return res.Telemetry.WritePrometheus(os.Stdout)
				}
				return nil
			})
		case "e6", "domains":
			tasks = append(tasks, func() error {
				res, err := experiments.RunDomains(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				if *metrics {
					return res.Telemetry.WritePrometheus(os.Stdout)
				}
				return nil
			})
		case "e7", "heal":
			tasks = append(tasks, func() error {
				res, err := experiments.RunHeal(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				if *metrics {
					return res.Telemetry.WritePrometheus(os.Stdout)
				}
				return nil
			})
		case "e8", "observe":
			tasks = append(tasks, func() error {
				res, err := experiments.RunObserve(opt)
				if err != nil {
					return err
				}
				emit(res.Table())
				if *metrics {
					return res.Telemetry.WritePrometheus(os.Stdout)
				}
				return nil
			})
		case "e9", "revive":
			tasks = append(tasks, func() error {
				res, err := experiments.RunRevive(opt)
				if err != nil {
					return err
				}
				fmt.Println(version.String())
				emit(res.Table())
				if *metrics {
					return res.Telemetry.WritePrometheus(os.Stdout)
				}
				return nil
			})
		default:
			fatal(fmt.Errorf("unknown experiment %q (have e4, e5, e6, e7, e8, e9)", name))
		}
	}

	switch {
	case *all:
		addTable(1)
		addTable(2)
		addFig(7) // emits 7-10 together from one sweep
		addFig(11)
		addFig(12)
		addFig(13)
		addExt("partitioning")
		addExt("reserve")
		addExt("bandwidth")
		addExt("calibration")
		addExt("factor")
		addExt("waits")
		addExperiment("e4")
		addExperiment("e5")
		addExperiment("e6")
		addExperiment("e7")
		addExperiment("e8")
		addExperiment("e9")
	case *table != 0:
		addTable(*table)
	case *fig != 0:
		addFig(*fig)
	case *ext != "":
		addExt(*ext)
	case *exp != "":
		addExperiment(*exp)
	default:
		fmt.Fprintln(os.Stderr, "experiments: pass -all, -fig N, -table N, -ext NAME, or -experiment NAME")
		os.Exit(2)
	}

	for _, task := range tasks {
		if err := task(); err != nil {
			stopProf() // best effort: flush the CPU profile before exiting
			fatal(err)
		}
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
