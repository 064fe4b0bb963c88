// Command rdasched runs one of the paper's Table 2 workloads on the
// simulated Table 1 machine under a chosen scheduling configuration and
// prints the perf/RAPL-style measurement report.
//
// Usage:
//
//	rdasched -workload water_nsq -policy strict
//	rdasched -workload BLAS-3 -policy compromise -reps 4 -jitter 0.02
//	rdasched -workload water_nsq -policy strict -trace out.json -metrics
//	rdasched -workload water_nsq -policy strict -domains 2 -domain-faults 0.5
//	rdasched -workload water_nsq -policy strict -listen :8080 -pace 10x
//	rdasched -list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"rdasched/internal/core"
	"rdasched/internal/experiments"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/obsrv"
	"rdasched/internal/perf"
	"rdasched/internal/persist"
	"rdasched/internal/proc"
	"rdasched/internal/profutil"
	"rdasched/internal/report"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry/blame"
	"rdasched/internal/telemetry/trace"
	"rdasched/internal/version"
	"rdasched/internal/workloads"
)

// validateFlags rejects out-of-range numeric flags with a clear error.
// The old behaviour silently ignored an out-of-range -scale, which made
// `-scale 10` look like a slow full run instead of a typo. Each float
// bound is written so that NaN fails it too. A time flag must also fit
// the virtual clock's int64 picoseconds; past that the conversion wraps
// negative (a -kill-at would arm no kill).
func validateFlags(scale, jitter float64, reps, jobs int, domFaults, sloMS, ckptEvery, killAt float64, listen, pace string) error {
	if !(scale > 0 && scale <= 1) {
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
	for _, f := range []struct {
		name string
		v    float64
		unit sim.Duration // virtual time per unit of the flag
	}{
		{"domain-faults", domFaults, 2 * sim.Second}, // the domain heals at twice the crash time
		{"slo-ms", sloMS, sim.Millisecond},
		{"checkpoint-every", ckptEvery, sim.Second},
		{"kill-at", killAt, sim.Second},
	} {
		// 1<<63 picoseconds is the first time an int64 cannot hold.
		if !(f.v >= 0 && f.v*float64(f.unit) < 1<<63) {
			return fmt.Errorf("-%s %g out of range (need 0 <= %s < %g)", f.name, f.v, f.name, (1<<63)/float64(f.unit))
		}
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

// modes lists, in precedence order, each mode flag and the other flags
// its run reads. A run without a mode flag reads every flag but these
// four.
var modes = []struct {
	name  string
	reads []string
}{
	{"version", nil},
	{"list", []string{"cpuprofile", "memprofile"}},
	{"all", []string{"reps", "jitter", "seed", "scale", "cpuprofile", "memprofile"}},
	{"timeline", []string{"workload", "policy", "scale", "cpuprofile", "memprofile"}},
}

// refuse names the first flag the run would ignore: one the selected
// mode does not read, -slo-ms without -obs-dir, -checkpoint-every or
// -kill-at without -checkpoint-dir (a kill with nothing preserved
// leaves nothing to restore), or a -reps other than 1 with -restore (a
// checkpoint holds one repetition). set maps the name of every flag
// given on the command line to its value.
func refuse(set map[string]string) error {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, m := range modes {
		if set[m.name] != "true" {
			continue
		}
		for _, n := range names {
			if n == m.name || slices.Contains(m.reads, n) {
				continue
			}
			if len(m.reads) == 0 {
				return fmt.Errorf("-%s: -%s reads no other flag", n, m.name)
			}
			return fmt.Errorf("-%s: -%s reads only -%s", n, m.name, strings.Join(m.reads, ", -"))
		}
		return nil
	}
	_, slo := set["slo-ms"]
	_, every := set["checkpoint-every"]
	_, kill := set["kill-at"]
	reps, repsSet := set["reps"]
	switch {
	case slo && set["obs-dir"] == "":
		return errors.New("-slo-ms: needs -obs-dir")
	case every && set["checkpoint-dir"] == "":
		return errors.New("-checkpoint-every: needs -checkpoint-dir")
	case kill && set["checkpoint-dir"] == "":
		return errors.New("-kill-at: needs -checkpoint-dir")
	case repsSet && reps != "1" && set["restore"] != "":
		return fmt.Errorf("-reps %s: -restore resumes one repetition", reps)
	}
	return nil
}

func main() {
	var (
		workload  = flag.String("workload", "", "Table 2 workload name (see -list)")
		policy    = flag.String("policy", "default", "scheduling policy: default, strict, or compromise")
		reps      = flag.Int("reps", 4, "measurement repetitions to average (the paper uses 4)")
		jitter    = flag.Float64("jitter", 0.02, "run-to-run phase-length variation (fraction)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		scale     = flag.Float64("scale", 1, "shrink phase lengths for quick runs (0 < scale ≤ 1)")
		list      = flag.Bool("list", false, "list workloads and exit")
		all       = flag.Bool("all", false, "run every workload under every policy")
		asJSON    = flag.Bool("json", false, "emit the measurement as JSON instead of a table")
		timeline  = flag.Bool("timeline", false, "render a core-utilization timeline and the scheduler's last decisions")
		tracePath = flag.String("trace", "", "write the run's decision spans as Chrome/Perfetto trace-event JSON to this file")
		metrics   = flag.Bool("metrics", false, "print the telemetry registry (Prometheus text exposition) after the report")
		jobs      = flag.Int("jobs", 1, "concurrent repetitions (output is identical for any value)")
		governor  = flag.Bool("governor", false, "attach the adaptive admission governor (policy degradation, misdeclaration quarantine, waitlist aging)")
		domains   = flag.Int("domains", 0, "shard the LLC into N admission domains with demand-aware placement and cross-domain steal (0 and 1 both run one domain)")
		domFaults = flag.Float64("domain-faults", 0, "crash admission domain 0 at this many virtual seconds (healing at 2x) and evacuate its periods; needs -domains >= 2")
		obsDir    = flag.String("obs-dir", "", "write a self-contained HTML observability report (blame matrix, critical path, SLO burn rate) into this directory; needs -policy strict or compromise")
		sloMS     = flag.Float64("slo-ms", 0, "admission-latency SLO objective in virtual milliseconds for the -obs-dir report (0 = default 50ms)")
		ckptDir   = flag.String("checkpoint-dir", "", "append an admission journal and periodic state snapshots into this directory while running (repetition i > 0 writes into its rep<i> subdirectory); needs -policy strict or compromise")
		ckptEvery = flag.Float64("checkpoint-every", 0, "virtual seconds between periodic snapshots under -checkpoint-dir (0 = journal-only after the attach snapshot)")
		restore   = flag.String("restore", "", "re-execute the killed run whose checkpoint is in this directory, check its gate against the checkpoint at the kill, and resume it to completion")
		killAt    = flag.Float64("kill-at", 0, "kill the process at this virtual second (crash injection); needs -checkpoint-dir, then resume with -restore")
		listen    = flag.String("listen", "", "serve live introspection endpoints (/metrics, /events, /state, /blame, /debug/pprof) on this address while the run executes, e.g. :8080")
		pace      = flag.String("pace", "max", `wall-clock pacing of virtual time: "max" (unthrottled) or a ratio like "1x" (real time) or "10x"`)
		showVer   = flag.Bool("version", false, "print the build identity and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of this process to the file")
		memProf   = flag.String("memprofile", "", "write a heap profile of this process to the file on exit")
	)
	flag.Parse()

	if err := validateFlags(*scale, *jitter, *reps, *jobs, *domFaults, *sloMS, *ckptEvery, *killAt, *listen, *pace); err != nil {
		usage(err)
	}
	set := map[string]string{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = f.Value.String() })
	if err := refuse(set); err != nil {
		usage(err)
	}
	if *showVer {
		fmt.Println(version.String())
		return
	}

	stopProf, err := profutil.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "rdasched:", err)
		}
	}()

	if *list {
		fmt.Println("Table 2 workloads:")
		for _, n := range workloads.Names() {
			fmt.Println("  ", n)
		}
		return
	}

	if *all {
		if err := runAll(*reps, *jitter, *seed, *scale); err != nil {
			fatal(err)
		}
		return
	}

	if *workload == "" {
		usage(errors.New("-workload required (or -list / -all); e.g. -workload water_nsq"))
	}
	w, err := workloads.ByName(*workload)
	if err != nil {
		fatal(err)
	}
	if *scale < 1 { // validated above: 0 < scale <= 1
		w = proc.ScaleInstr(w, *scale)
	}
	var pol core.Policy
	if *policy != "default" {
		pol, err = core.PolicyByName(*policy)
		if err != nil {
			fatal(err)
		}
	}
	if *timeline {
		if err := runTimeline(os.Stdout, w, pol); err != nil {
			fatal(err)
		}
		return
	}
	rc := perf.RunConfig{
		Machine:     machine.DefaultConfig(),
		Policy:      pol,
		Repetitions: *reps,
		JitterFrac:  *jitter,
		Seed:        *seed,
		Telemetry:   *metrics || *tracePath != "" || (*listen != "" && pol != nil),
		Trace:       *tracePath != "",
		Jobs:        *jobs,
		Domains:     *domains,
	}
	rc.Pace, _ = obsrv.ParsePace(*pace) // validated above
	if *obsDir != "" {
		rc.Blame = true
		slo := blame.DefaultSLOConfig()
		if *sloMS > 0 {
			slo.Objective = sim.Duration(*sloMS * float64(sim.Millisecond))
		}
		rc.SLO = &slo
	}
	if *domFaults > 0 {
		at := sim.FromSeconds(*domFaults)
		rc.Faults = &faults.Plan{DomainFaults: []faults.DomainFault{
			{Kind: faults.DomainCrash, Domain: 0, At: at, Heal: at},
		}}
	}
	if *governor {
		cfg := core.DefaultGovernorConfig()
		rc.Governor = &cfg
	}
	if *ckptDir != "" {
		rc.Checkpoint = &persist.Config{Dir: *ckptDir, Every: sim.FromSeconds(*ckptEvery)}
	}
	if *killAt > 0 {
		if rc.Faults == nil {
			rc.Faults = &faults.Plan{}
		}
		rc.Faults.KillAt = sim.FromSeconds(*killAt)
	}
	if *restore != "" {
		res, err := persist.Restore(*restore)
		if err != nil {
			fatal(err)
		}
		rc.Restore = res
		rc.Repetitions = 1 // a checkpoint belongs to a single repetition
		fmt.Fprintf(os.Stderr, "rdasched: restored seq %d (snapshot %d + %d replayed), resuming from %.3fs virtual\n",
			res.Seq, res.SnapshotSeq, res.Replayed, res.KillAt.Seconds())
	}
	// Refuse flag combinations the run could not honor (say -metrics
	// under the default policy, which has no scheduler to observe)
	// before binding the -listen address.
	if err := rc.Validate(); err != nil {
		usage(err)
	}
	if *listen != "" {
		srv, err := obsrv.Serve(obsrv.Config{Addr: *listen})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rdasched: introspection server on %s\n", srv.URL())
		rc.Obsrv = srv
		// SIGINT/SIGTERM stop the run at the next event boundary instead
		// of killing the process: perf surfaces ErrStopped and the CLI
		// exits cleanly (the CI smoke job relies on this).
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			sig := <-sigc
			fmt.Fprintf(os.Stderr, "rdasched: received %v, stopping run\n", sig)
			srv.RequestStop()
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			if err := srv.Close(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "rdasched: introspection shutdown:", err)
			}
		}()
	}
	mean, sd, err := perf.Run(w, rc)
	if err != nil {
		// A signal-requested stop is a clean, intentional end of the
		// run: report it and exit 0 (partial measurements are discarded,
		// the run never completed).
		if errors.Is(err, perf.ErrStopped) {
			fmt.Fprintln(os.Stderr, "rdasched:", err)
			return
		}
		// An armed -kill-at halting the run is the injected crash doing
		// its job, not a failure: report where the checkpoint landed.
		if errors.Is(err, machine.ErrHalted) && *ckptDir != "" {
			fmt.Fprintln(os.Stderr, "rdasched:", err)
			fmt.Fprintf(os.Stderr, "rdasched: checkpoint preserved; resume with -restore %s\n", *ckptDir)
			return
		}
		fatal(err)
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, mean.Spans); err != nil {
			fatal(err)
		}
	}
	if *obsDir != "" {
		if err := writeObsReport(*obsDir, w, *policy, mean); err != nil {
			fatal(err)
		}
	}
	if *asJSON {
		out := struct {
			Workload string       `json:"workload"`
			Policy   string       `json:"policy"`
			Mean     perf.Metrics `json:"mean"`
			StdDev   perf.Metrics `json:"stddev"`
		}{*workload, *policy, mean, sd}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		if *metrics && mean.Telemetry != nil {
			if err := mean.Telemetry.WriteJSON(os.Stdout); err != nil {
				fatal(err)
			}
		}
		return
	}
	printMetrics(*workload, *policy, mean, sd)
	if *metrics && mean.Telemetry != nil {
		fmt.Println()
		if err := mean.Telemetry.WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// writeObsReport renders the run's blame/SLO measurement as one
// self-contained HTML file under dir, named after workload and policy.
func writeObsReport(dir string, w proc.Workload, policy string, m perf.Metrics) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := blame.ReportMeta{Workload: w.Name, Policy: policy}
	for _, s := range w.Procs {
		meta.Procs = append(meta.Procs, s.Name)
	}
	rpt := m.Blame
	if rpt == nil {
		rpt = &blame.Report{}
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_%s.html", w.Name, policy))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = blame.WriteHTML(f, meta, rpt, m.SLO)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintln(os.Stderr, "rdasched: wrote", path)
	}
	return err
}

// writeTrace exports the spans of a measured run as a Chrome trace-event
// JSON file, loadable in Perfetto or chrome://tracing.
func writeTrace(path string, spans []trace.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.WriteChrome(f, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func runAll(reps int, jitter float64, seed uint64, scale float64) error {
	opt := experiments.Defaults()
	opt.Repetitions = reps
	opt.JitterFrac = jitter
	opt.Seed = seed
	opt.Scale = scale
	rows, err := experiments.RunPolicyComparison(workloads.Table2(), opt)
	if err != nil {
		return err
	}
	t := report.NewTable("All workloads under all policies",
		"workload", "policy", "system J", "DRAM J", "GFLOPS", "GFLOPS/W", "seconds")
	for _, r := range rows {
		t.AddRow(r.Workload, r.Policy,
			fmt.Sprintf("%.1f", r.Mean.SystemJ),
			fmt.Sprintf("%.1f", r.Mean.DRAMJ),
			fmt.Sprintf("%.3f", r.Mean.GFLOPS),
			fmt.Sprintf("%.4f", r.Mean.GFLOPSPerWatt),
			fmt.Sprintf("%.2f", r.Mean.ElapsedSec))
	}
	fmt.Print(t.String())
	return nil
}

func printMetrics(workload, policy string, m, sd perf.Metrics) {
	fmt.Printf("workload %s under %s policy\n\n", workload, policy)
	t := report.NewTable("", "metric", "mean", "stddev")
	t.AddRow("system energy (J)", fmt.Sprintf("%.1f", m.SystemJ), fmt.Sprintf("%.2f", sd.SystemJ))
	t.AddRow("DRAM energy (J)", fmt.Sprintf("%.1f", m.DRAMJ), fmt.Sprintf("%.2f", sd.DRAMJ))
	t.AddRow("package energy (J)", fmt.Sprintf("%.1f", m.PackageJ), fmt.Sprintf("%.2f", sd.PackageJ))
	t.AddRow("GFLOPS", fmt.Sprintf("%.3f", m.GFLOPS), fmt.Sprintf("%.4f", sd.GFLOPS))
	t.AddRow("GFLOPS/Watt", fmt.Sprintf("%.4f", m.GFLOPSPerWatt), fmt.Sprintf("%.5f", sd.GFLOPSPerWatt))
	t.AddRow("elapsed (s)", fmt.Sprintf("%.3f", m.ElapsedSec), fmt.Sprintf("%.4f", sd.ElapsedSec))
	t.AddRow("DRAM accesses", fmt.Sprintf("%.3g", m.DRAMAccesses), "")
	t.AddRow("avg busy cores", fmt.Sprintf("%.1f", m.AvgBusyCores), "")
	t.AddRow("pauses / wakeups", fmt.Sprintf("%d / %d", m.Blocks, m.Wakeups), "")
	if gov := m.GovernorDegradations + m.GovernorRecoveries + m.GovernorQuarantines +
		m.GovernorRestores + m.GovernorReservations; gov > 0 {
		t.AddRow("governor degrade/recover", fmt.Sprintf("%.1f / %.1f", m.GovernorDegradations, m.GovernorRecoveries), "")
		t.AddRow("governor quarantine/restore", fmt.Sprintf("%.1f / %.1f", m.GovernorQuarantines, m.GovernorRestores), "")
		t.AddRow("governor reservations", fmt.Sprintf("%.1f", m.GovernorReservations), "")
	}
	if m.DomainPlacements > 0 || m.DomainSteals > 0 {
		t.AddRow("domain placements/steals", fmt.Sprintf("%.1f / %.1f", m.DomainPlacements, m.DomainSteals), "")
	}
	if m.DomainFailures > 0 {
		t.AddRow("domain failures/recoveries", fmt.Sprintf("%.1f / %.1f", m.DomainFailures, m.DomainRecoveries), "")
		t.AddRow("evacuations (retries)", fmt.Sprintf("%.1f (%.1f)", m.Evacuations, m.EvacRetries), "")
		t.AddRow("audit repairs / dropped", fmt.Sprintf("%.1f / %.1f", m.AuditRepairs, m.DroppedPeriods), "")
	}
	fmt.Print(t.String())
}

func usage(err error) {
	fmt.Fprintln(os.Stderr, "rdasched:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rdasched:", err)
	os.Exit(1)
}

// runTimeline executes one un-jittered run with utilization sampling and
// a ring of the scheduler's last decisions, and renders both to out.
func runTimeline(out io.Writer, w proc.Workload, pol core.Policy) error {
	cfg := machine.DefaultConfig()
	if pol == nil {
		w = perf.Undeclare(w)
	}
	m, schd, err := perf.NewMachine(perf.RunConfig{Machine: cfg, Policy: pol})
	if err != nil {
		return err
	}
	var ring *core.EventRing
	if schd != nil {
		ring = core.NewEventRing(64)
		schd.AddSink(ring)
	}
	m.EnableTimeline(0) // default interval
	if err := m.AddWorkload(w); err != nil {
		return err
	}
	res, err := m.Run()
	if err != nil {
		return err
	}

	// Downsample the timeline to at most 40 bars.
	samples := res.Timeline
	step := 1
	if len(samples) > 40 {
		step = len(samples) / 40
	}
	var labels []string
	var busy []float64
	for i := 0; i < len(samples); i += step {
		labels = append(labels, fmt.Sprintf("%6.2fs", samples[i].At.Seconds()))
		busy = append(busy, samples[i].BusyCores)
	}
	fmt.Fprint(out, report.Bars(fmt.Sprintf("busy cores over time (of %d)", cfg.Cores), labels, busy, 48))

	if ring != nil {
		events := ring.Events()
		fmt.Fprintf(out, "\nlast %d scheduler decisions (%d earlier dropped):\n", len(events), ring.Drops())
		for _, e := range events {
			fmt.Fprintln(out, "  ", e)
		}
	}
	_, err = fmt.Fprintf(out, "\n%.2f s, %.1f J system, %.3f GFLOPS\n",
		res.Elapsed.Seconds(), res.SystemJ, res.GFLOPS())
	return err
}
