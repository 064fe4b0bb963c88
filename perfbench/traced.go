package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"time"

	"rdasched/internal/perf"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry/blame"
	"rdasched/internal/telemetry/trace"
)

// uncoveredCeiling bounds experiments.self_s, the part of the timing
// pass no layer decorator covers, as a share of the pass's wall time.
// Self times add up to the pass by construction, so this is the check
// that the decorators cover the layers: work that escapes them (a layer
// called outside its interface, or a new layer with no decorator) lands
// in experiments and fails it. At the seed commit the share is about
// 2.5% on paper-figs and below 1% on the other workloads.
const uncoveredCeiling = 0.10

// step is one unit of the traced run: ref runs it untraced through the
// public harness path and keeps what the traced assembly must reproduce;
// traced runs it under the tracer and returns a check that compares the
// two, run after the pass's clock has stopped.
type step struct {
	name   string
	ref    func() error
	traced func(tr *tracer, c *counts) (check func() error, err error)
}

// tracedPlan is a workload's traced run: its steps, plus the
// measurements taken outside the passes.
type tracedPlan struct {
	steps []step
	// post runs after the three passes with the timing pass's counts.
	post func(c *counts, m map[string]float64) error
}

// tracedPlanFor returns the traced plan of the named workload.
func tracedPlanFor(name string, seed uint64, scratch string) (tracedPlan, error) {
	switch name {
	case "paper-figs":
		return paperFigsPlan(seed), nil
	case "observed-sweep":
		return observedPlan(seed, scratch), nil
	case "trace-profile":
		return traceProfilePlan(seed), nil
	}
	return tracedPlan{}, fmt.Errorf("unknown workload %q", name)
}

// runTraced runs a traced plan: an untraced reference pass, a timing
// pass and an allocation pass. It returns the per-layer metrics and the
// number of checks attempted and failed; every failure is printed to
// stderr.
func runTraced(plan tracedPlan, spansPath string) (m map[string]float64, attempted, failed int, err error) {
	fail := func(err error) {
		attempted++
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: traced:", err)
		}
	}

	// The reference pass runs twice and the second is timed, so neither
	// side of trace.overhead pays for a cold start.
	var refWall float64
	var gc0, gc1 gcStats
	for range 2 {
		gc0 = readGC()
		t0 := time.Now()
		for _, s := range plan.steps {
			if err := s.ref(); err != nil {
				return nil, 0, 0, fmt.Errorf("%s reference: %w", s.name, err)
			}
		}
		refWall = time.Since(t0).Seconds()
		gc1 = readGC()
	}

	tt := newTimeTracer()
	tc := &counts{recordTimes: true}
	timedWall, checks, err := tracedPass(plan.steps, tt, tc)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, chk := range checks {
		fail(chk())
	}
	at := newAllocTracer()
	ac := &counts{}
	if _, checks, err = tracedPass(plan.steps, at, ac); err != nil {
		return nil, 0, 0, err
	}
	for _, chk := range checks {
		fail(chk())
	}

	m = layerMetrics(tt, tc, at)
	m["runtime.gc_cycles"] = gc1.cycles - gc0.cycles
	m["runtime.gc_cpu_s"] = gc1.cpu - gc0.cpu
	m["trace.overhead"] = timedWall / refWall
	m["sim.step_ns"] = replayEvents(tc.runs(), tc.queuePeak)
	if plan.post != nil {
		fail(plan.post(tc, m))
	}
	// The memtrace share of profiler spans moves to memtrace, so the sum
	// of self times is unchanged by the split.
	memtraceS := m["memtrace.ns_per_ref"] * m["memtrace.refs"] / 1e9
	m["profiler.self_s"] -= memtraceS
	if m["profiler.self_s"] < 0 {
		fail(fmt.Errorf("profiler self time %.6f s is negative after removing memtrace's %.6f s", m["profiler.self_s"], memtraceS))
	}
	if m["memtrace.refs"] > 0 {
		m["profiler.ns_per_ref"] = m["profiler.self_s"] * 1e9 / m["memtrace.refs"]
	}
	var uncoveredErr error
	if share := m["experiments.self_s"] / timedWall; share > uncoveredCeiling {
		uncoveredErr = fmt.Errorf("%.6f s of the %.6f s traced pass (%.1f%%) is in no layer's decorator, ceiling %.0f%%",
			m["experiments.self_s"], timedWall, share*100, uncoveredCeiling*100)
	}
	fail(uncoveredErr)
	if spansPath != "" {
		if err := tt.writeSpans(spansPath); err != nil {
			return nil, 0, 0, err
		}
	}
	return m, attempted, failed, nil
}

// tracedPass runs every step under tr, each inside one experiments
// span, and returns the pass's wall seconds and the deferred checks.
func tracedPass(steps []step, tr *tracer, c *counts) (float64, []func() error, error) {
	var checks []func() error
	t0 := time.Now()
	for _, s := range steps {
		tr.begin(layerExperiments)
		chk, err := s.traced(tr, c)
		tr.end()
		if err != nil {
			return 0, nil, fmt.Errorf("%s traced: %w", s.name, err)
		}
		checks = append(checks, chk)
	}
	return time.Since(t0).Seconds(), checks, nil
}

// layerMetrics turns the passes' self totals and counts into the
// per-layer metrics.
func layerMetrics(tt *tracer, c *counts, at *tracer) map[string]float64 {
	sec := func(l layer) float64 { return float64(tt.self[l]) / 1e9 }
	mb := func(l layer) float64 { return float64(at.self[l]) / 1e6 }
	per := func(ns float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return ns / float64(n)
	}
	decisions := c.enters + c.exits
	denyFrac := 0.0
	if c.enters > 0 {
		denyFrac = float64(c.denies) / float64(c.enters)
	}
	return map[string]float64{
		"sim.events":     float64(c.events),
		"sim.queue_peak": float64(c.queuePeak),

		"machine.runs":         float64(c.machineRuns),
		"machine.self_s":       sec(layerMachine),
		"machine.ns_per_event": per(float64(tt.self[layerMachine]), c.events),
		"machine.alloc_mb":     mb(layerMachine),

		"core.decisions":       float64(decisions),
		"core.deny_frac":       denyFrac,
		"core.wakes":           float64(c.wakes),
		"core.timer_fires":     float64(c.timerFires),
		"core.self_s":          sec(layerCore) + sec(layerUpkeep),
		"core.ns_per_decision": per(float64(tt.self[layerCore]), decisions),
		"core.upkeep_s":        sec(layerUpkeep),
		"core.alloc_mb":        mb(layerCore) + mb(layerUpkeep),

		"sinks.records":       float64(c.records),
		"sinks.self_s":        sec(layerSinks),
		"sinks.ns_per_record": per(float64(tt.self[layerSinks]), c.records),
		"sinks.alloc_mb":      mb(layerSinks),

		"report.self_s":     sec(layerReport),
		"report.mb_written": float64(c.reportBytes) / 1e6,

		"persist.records":    float64(c.replays),
		"persist.append_ns":  per(float64(c.replayClock), c.replays),
		"persist.mb_written": float64(c.persistBytes) / 1e6,
		// restore_s and revive_ratio are set by the plan that revives.
		"persist.restore_s":    0,
		"persist.revive_ratio": 0,

		// memtrace.ns_per_ref is set by the plan that profiles.
		"memtrace.refs":       float64(c.refs),
		"memtrace.ns_per_ref": 0,
		"profiler.self_s":     sec(layerProfiler),
		"profiler.ns_per_ref": 0,
		"profiler.alloc_mb":   mb(layerProfiler),

		"cache.accesses":      float64(c.accesses),
		"cache.ns_per_access": per(float64(tt.self[layerCache]), c.accesses),

		"experiments.self_s": sec(layerExperiments),
	}
}

type gcStats struct{ cycles, cpu float64 }

func readGC() gcStats {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return gcStats{cycles: float64(s[0].Value.Uint64()), cpu: s[1].Value.Float64()}
}

// replayEvents re-fires every recorded machine run's event times through
// a bare engine with no-op events, keeping at most depth events queued
// as the run did, and returns the host nanoseconds per event: the cost
// of dispatch alone (schedule plus fire).
func replayEvents(runs [][]sim.Time, depth int) float64 {
	depth = max(depth, 1)
	var n int
	var d time.Duration
	for _, times := range runs {
		eng := sim.NewEngine(0)
		next := 0
		var fire func()
		fire = func() {
			if next < len(times) {
				eng.At(times[next], fire)
				next++
			}
		}
		t0 := time.Now()
		for next < min(depth, len(times)) {
			fire()
		}
		eng.Run()
		d += time.Since(t0)
		n += len(times)
	}
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// cell is one replication the traced run reassembles, with the seed in
// rc as the harness derives it: the reference is perf.Sample(w, rc, 0),
// as the harness calls it, the traced run is tracedSample, and the check
// is equality of their metrics.
type cell struct {
	label string
	w     proc.Workload
	rc    perf.RunConfig
	// export, when set, is a directory the cell's decision spans (as a
	// Chrome trace with the SLO counters) and blame report (as HTML) are
	// written under, as the observed sweep writes them: ref/ from the
	// reference, traced/ from the traced run, which must match byte for
	// byte.
	export string
	// onRef, when set, receives the reference metrics.
	onRef func(perf.Metrics)
}

func (cl cell) step() step {
	var want perf.Metrics
	return step{
		name: cl.label,
		ref: func() error {
			var err error
			if want, err = perf.Sample(cl.w, cl.rc, 0); err != nil {
				return err
			}
			if cl.onRef != nil {
				cl.onRef(want)
			}
			if cl.export != "" {
				var n int64
				return cl.writeReports(want, "ref", &n)
			}
			return nil
		},
		traced: func(tr *tracer, c *counts) (func() error, error) {
			got, err := tracedSample(cl.w, cl.rc, tr, c)
			if err != nil {
				return nil, err
			}
			if cl.export != "" {
				tr.begin(layerReport)
				err = cl.writeReports(got, "traced", &c.reportBytes)
				tr.end()
				if err != nil {
					return nil, err
				}
			}
			return func() error { return cl.check(got, want) }, nil
		},
	}
}

func (cl cell) check(got, want perf.Metrics) error {
	if err := sameMetrics(got, want); err != nil {
		return fmt.Errorf("%s: traced metrics differ from perf.Sample: %w", cl.label, err)
	}
	if got.Blame != nil {
		if err := got.Blame.Check(); err != nil {
			return fmt.Errorf("%s: %w", cl.label, err)
		}
	}
	if cl.export == "" {
		return nil
	}
	for _, name := range []string{"trace.json", "report.html"} {
		a, err := os.ReadFile(filepath.Join(cl.export, "ref", name))
		if err != nil {
			return err
		}
		b, err := os.ReadFile(filepath.Join(cl.export, "traced", name))
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s: traced %s differs from the reference", cl.label, name)
		}
		if name == "trace.json" && !json.Valid(b) {
			return fmt.Errorf("%s: %s is not valid JSON", cl.label, name)
		}
	}
	return nil
}

// writeReports exports m through the report layer into a fresh
// export/sub, counting the bytes written into n. Every pass creates its
// files anew, so no pass pays for truncating an earlier one's.
func (cl cell) writeReports(m perf.Metrics, sub string, n *int64) error {
	dir := filepath.Join(cl.export, sub)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := blame.ReportMeta{Workload: cl.w.Name, Policy: cl.rc.Policy.Name()}
	for _, p := range cl.w.Procs {
		meta.Procs = append(meta.Procs, p.Name)
	}
	write := func(name string, fn func(w countedWriter) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		err = fn(countedWriter{f, n})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if err := write("trace.json", func(w countedWriter) error {
		return trace.WriteChromeWithCounters(w, m.Spans, m.SLO.TraceCounters())
	}); err != nil {
		return err
	}
	return write("report.html", func(w countedWriter) error {
		return blame.WriteHTML(w, meta, m.Blame, m.SLO)
	})
}

// sameMetrics reports whether two runs produced identical metrics:
// every number, the decision spans, the blame and SLO reports and the
// telemetry registry's exposition.
func sameMetrics(a, b perf.Metrics) error {
	ja, err := json.Marshal(a)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("numbers %s vs %s", ja, jb)
	}
	if !reflect.DeepEqual(a.Spans, b.Spans) {
		return fmt.Errorf("decision spans differ (%d vs %d)", len(a.Spans), len(b.Spans))
	}
	if !reflect.DeepEqual(a.Blame, b.Blame) {
		return fmt.Errorf("blame reports differ")
	}
	if !reflect.DeepEqual(a.SLO, b.SLO) {
		return fmt.Errorf("SLO results differ")
	}
	if (a.Telemetry == nil) != (b.Telemetry == nil) {
		return fmt.Errorf("telemetry registry present on one side only")
	}
	if a.Telemetry != nil {
		var pa, pb bytes.Buffer
		if err := a.Telemetry.WritePrometheus(&pa); err != nil {
			return err
		}
		if err := b.Telemetry.WritePrometheus(&pb); err != nil {
			return err
		}
		if !bytes.Equal(pa.Bytes(), pb.Bytes()) {
			return fmt.Errorf("telemetry expositions differ")
		}
	}
	return nil
}
