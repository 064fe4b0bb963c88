package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"rdasched/internal/cache"
	"rdasched/internal/core"
	"rdasched/internal/experiments"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/memtrace"
	"rdasched/internal/perf"
	"rdasched/internal/persist"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/profiler"
	"rdasched/internal/runner"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry/blame"
	"rdasched/internal/workloads"
)

// paperFigsPlan reassembles every replication paper-figs runs:
// RunPolicyComparison's 8 workloads × 3 policies × 4 repetitions, then
// RunGranularity's 4 cells. Like the harnesses, it samples each
// replication as repetition 0 under the seed of its job index. After the
// passes it checks that the reference replications, aggregated per cell,
// reproduce the harnesses' own results, so the plan runs the very cells
// the iteration does.
func paperFigsPlan(seed uint64) tracedPlan {
	opt := benchOptions(seed)
	ws := workloads.Table2()
	var steps []step
	var samples [][]perf.Metrics // per policy-comparison cell, per repetition
	job := uint64(0)
	for _, w := range ws {
		for _, p := range experiments.Policies() {
			rc := perf.RunConfig{Machine: opt.Machine, Policy: p.Policy,
				Repetitions: opt.Repetitions, JitterFrac: opt.JitterFrac}
			ci := len(samples)
			samples = append(samples, make([]perf.Metrics, rc.Reps()))
			for r := 0; r < rc.Reps(); r++ {
				rc.Seed = runner.Seed(opt.Seed, job)
				job++
				steps = append(steps, cell{label: fmt.Sprintf("%s under %s rep %d", w.Name, p.Name, r), w: w, rc: rc,
					onRef: func(m perf.Metrics) { samples[ci][r] = m }}.step())
			}
		}
	}
	gflops := make([]float64, len(experiments.Fig11Granularities))
	for i, g := range experiments.Fig11Granularities {
		w, err := workloads.DgemmGranularity(g.Periods)
		if err != nil {
			panic(err) // fixed table of valid granularities
		}
		rc := perf.RunConfig{Machine: opt.Machine, Policy: core.StrictPolicy{}, Seed: runner.Seed(opt.Seed, uint64(i))}
		steps = append(steps, cell{label: fmt.Sprintf("granularity %d", g.Periods), w: w, rc: rc,
			onRef: func(m perf.Metrics) { gflops[i] = m.GFLOPS }}.step())
	}
	return tracedPlan{steps: steps, post: func(*counts, map[string]float64) error {
		rows, err := experiments.RunPolicyComparison(ws, opt)
		if err != nil {
			return err
		}
		if len(rows) != len(samples) {
			return fmt.Errorf("RunPolicyComparison has %d rows, the plan %d cells", len(rows), len(samples))
		}
		for i, row := range rows {
			mean, sd, err := perf.Aggregate(samples[i])
			if err != nil {
				return err
			}
			if err := sameMetrics(mean, row.Mean); err != nil {
				return fmt.Errorf("%s under %s: the plan's mean differs from RunPolicyComparison's: %w", row.Workload, row.Policy, err)
			}
			if err := sameMetrics(sd, row.StdDev); err != nil {
				return fmt.Errorf("%s under %s: the plan's deviation differs from RunPolicyComparison's: %w", row.Workload, row.Policy, err)
			}
		}
		gr, err := experiments.RunGranularity(opt)
		if err != nil {
			return err
		}
		for i, p := range gr.Points {
			if p.GFLOPS != gflops[i] {
				return fmt.Errorf("granularity %d: the plan's GFLOPS %v, RunGranularity's %v", p.Periods, gflops[i], p.GFLOPS)
			}
		}
		return nil
	}}
}

// timeouts mirrors the E-series lease and admission deadline: the
// longest declared phase at 1 IPC on the Table 1 clock, times the
// harness's headroom factors.
func timeouts(w proc.Workload) (lease, deadline, stealAge sim.Duration) {
	var maxInstr float64
	for _, s := range w.Procs {
		for _, ph := range s.Program {
			if ph.Declared && ph.Instr > maxInstr {
				maxInstr = ph.Instr
			}
		}
	}
	ideal := maxInstr / 1.9e9
	return sim.FromSeconds(ideal * 96), sim.FromSeconds(ideal * 64), sim.FromSeconds(ideal / 16)
}

// observedPlan reassembles one representative cell per E-series
// harness, each with every observer the observed sweep attaches, and
// exports each observed cell's trace and HTML report. The E9 cell runs
// the kill and restore protocol.
func observedPlan(seed uint64, scratch string) tracedPlan {
	opt := benchOptions(seed)
	llc := opt.Machine.LLCCapacity
	slo := blame.DefaultSLOConfig()
	observed := func(rc perf.RunConfig) perf.RunConfig {
		rc.Machine, rc.JitterFrac = opt.Machine, opt.JitterFrac
		rc.Telemetry, rc.Trace, rc.Blame, rc.SLO = true, true, true, &slo
		return rc
	}
	gov := core.DefaultGovernorConfig()
	blas := workloads.BLAS3()
	lease, deadline, _ := timeouts(blas)
	chaosPlan := faults.Uniform(0.15, llc)
	burstPlan := faults.Uniform(0.3, llc)
	burstPlan.BurstWaves = 3

	skewed := experiments.DomainSkewed()
	_, _, skewAge := timeouts(skewed)

	heal := experiments.HealWorkload()
	hLease, hDeadline, hAge := timeouts(heal)
	crashAt := healCrashAt(heal, llc, 2)
	healPlan := faults.Plan{DomainFaults: faults.DomainPlan(seed, 2, crashAt, 2*crashAt, pp.MB(2))}
	rcfg := core.DefaultRecoveryConfig()
	rcfg.Mode = core.RecoverEvacuate

	type oc struct {
		label string
		w     proc.Workload
		rc    perf.RunConfig
	}
	cells := []oc{
		{"chaos governor rate 0.15", blas, observed(perf.RunConfig{Policy: core.StrictPolicy{},
			Lease: lease, AdmitDeadline: deadline, Governor: &gov, Faults: &chaosPlan})},
		{"overload compromise rate 0.30 bursts 3", blas, observed(perf.RunConfig{Policy: core.NewCompromise(),
			Lease: lease, AdmitDeadline: deadline, Faults: &burstPlan})},
		{"domains skewed n 4", skewed, observed(perf.RunConfig{Policy: core.StrictPolicy{},
			Domains: 4, StealAge: skewAge})},
		{"heal evacuate n 2", heal, observed(perf.RunConfig{Policy: core.StrictPolicy{},
			Lease: hLease, AdmitDeadline: hDeadline, Governor: &gov, Domains: 2, StealAge: hAge,
			Recovery: &rcfg, Faults: &healPlan})},
		{"observe strict", experiments.ObserveSkewed(), observed(perf.RunConfig{Policy: core.StrictPolicy{}})},
	}
	// Replications take the seeds of consecutive job indices, as the
	// harnesses derive them.
	var steps []step
	job := uint64(0)
	for i, c := range cells {
		for r := 0; r < opt.Repetitions; r++ {
			rc := c.rc
			rc.Seed = runner.Seed(seed, job)
			job++
			steps = append(steps, cell{label: fmt.Sprintf("%s rep %d", c.label, r), w: c.w, rc: rc,
				export: filepath.Join(scratch, fmt.Sprintf("cell%d-rep%d", i, r))}.step())
		}
	}
	rv := &revival{w: experiments.ReviveWorkload(), dir: filepath.Join(scratch, "revive")}
	rLease, rDeadline, rAge := timeouts(rv.w)
	rv.rc = perf.RunConfig{Machine: opt.Machine, Policy: core.NewCompromise(), Repetitions: 1,
		JitterFrac: opt.JitterFrac, Seed: runner.Seed(seed, job), Lease: rLease, AdmitDeadline: rDeadline,
		Domains: 4, StealAge: rAge, Telemetry: true}
	steps = append(steps, rv.baseStep(), rv.killStep())
	return tracedPlan{steps: steps, post: rv.post}
}

// healCrashAt mirrors E7's crash time: a quarter of the heal mix's
// estimated makespan on an n-domain split (resident-set CPI 8.75, one
// declared period per core that admission lets run).
func healCrashAt(w proc.Workload, llc pp.Bytes, n int) sim.Duration {
	var instr float64
	var wss pp.Bytes
	for _, s := range w.Procs {
		for _, ph := range s.Program {
			if ph.Declared {
				instr += ph.Instr
				wss = max(wss, ph.WSS)
			}
		}
	}
	conc := max(1, int(llc/pp.Bytes(n)/wss)*n)
	return sim.FromSeconds(instr * 8.75 / 1.9e9 / float64(conc) * 0.25)
}

// revival is the E9 cell of the observed plan: the unkilled run, the run
// killed at 60% of its makespan with a checkpoint attached, and, after
// the passes, the restore of that checkpoint.
type revival struct {
	w   proc.Workload
	rc  perf.RunConfig
	dir string

	base         perf.Metrics
	baseS, killS float64 // reference host seconds
	killAt       sim.Duration
}

func (rv *revival) baseStep() step {
	s := cell{label: "revive compromise n 4", w: rv.w, rc: rv.rc, onRef: func(m perf.Metrics) {
		rv.base = m
		rv.killAt = sim.FromSeconds(m.ElapsedSec * 0.6)
	}}.step()
	ref := s.ref
	s.ref = func() error {
		t0 := time.Now()
		err := ref()
		rv.baseS = time.Since(t0).Seconds()
		return err
	}
	return s
}

// killConfig is the checkpointed, killed variant of the cell writing
// into dir/sub, which starts empty.
func (rv *revival) killConfig(sub string) (perf.RunConfig, string, error) {
	dir := filepath.Join(rv.dir, sub)
	if err := os.RemoveAll(dir); err != nil {
		return perf.RunConfig{}, "", err
	}
	krc := rv.rc
	krc.Faults = &faults.Plan{KillAt: rv.killAt}
	krc.Checkpoint = &persist.Config{Dir: dir, Every: rv.killAt / 8}
	return krc, dir, nil
}

func (rv *revival) killStep() step {
	return step{
		name: "revive compromise n 4 killed",
		ref: func() error {
			krc, _, err := rv.killConfig("ref")
			if err != nil {
				return err
			}
			t0 := time.Now()
			_, err = perf.Sample(rv.w, krc, 0)
			rv.killS = time.Since(t0).Seconds()
			if !errors.Is(err, machine.ErrHalted) {
				return fmt.Errorf("killed run returned %v, want machine.ErrHalted", err)
			}
			return nil
		},
		traced: func(tr *tracer, c *counts) (func() error, error) {
			krc, dir, err := rv.killConfig("traced")
			if err != nil {
				return nil, err
			}
			_, err = tracedSample(rv.w, krc, tr, c)
			if !errors.Is(err, machine.ErrHalted) {
				return nil, fmt.Errorf("traced killed run returned %v, want machine.ErrHalted", err)
			}
			return func() error { return sameTree(filepath.Join(rv.dir, "ref"), dir) }, nil
		},
	}
}

// post restores the reference checkpoint, resumes the run through
// perf.Sample and checks the revived metrics equal the unkilled run's.
func (rv *revival) post(_ *counts, m map[string]float64) error {
	t0 := time.Now()
	res, err := persist.Restore(filepath.Join(rv.dir, "ref"))
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	rrc := rv.rc
	rrc.Restore = res
	revived, err := perf.Sample(rv.w, rrc, 0)
	if err != nil {
		return fmt.Errorf("revival: %w", err)
	}
	restoreS := time.Since(t0).Seconds()
	m["persist.restore_s"] = restoreS
	m["persist.revive_ratio"] = (rv.killS + restoreS) / rv.baseS
	a, err := json.Marshal(rv.base)
	if err != nil {
		return err
	}
	b, err := json.Marshal(revived)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("revived run's metrics differ from the unkilled run's")
	}
	return nil
}

// sameTree reports whether two directories hold the same file names
// with the same bytes (one level deep, as a checkpoint directory is).
func sameTree(a, b string) error {
	ea, err := os.ReadDir(a)
	if err != nil {
		return err
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		return err
	}
	if len(ea) != len(eb) {
		return fmt.Errorf("checkpoint %s has %d files, %s has %d", a, len(ea), b, len(eb))
	}
	for i := range ea {
		if ea[i].Name() != eb[i].Name() {
			return fmt.Errorf("checkpoint file %s vs %s", ea[i].Name(), eb[i].Name())
		}
		x, err := os.ReadFile(filepath.Join(a, ea[i].Name()))
		if err != nil {
			return err
		}
		y, err := os.ReadFile(filepath.Join(b, eb[i].Name()))
		if err != nil {
			return err
		}
		if !bytes.Equal(x, y) {
			return fmt.Errorf("checkpoint file %s differs between the reference and the traced run", ea[i].Name())
		}
	}
	return nil
}

// profileJob is one Fig 12 profiling run: an application's trace at one
// input size, with its loop binary.
type profileJob struct {
	label  string
	stream *memtrace.PhasedStream
	bin    *profiler.Binary
}

// profileJobs builds RunWSSPrediction's eight jobs with the trace seed it
// uses. Streams are consumed by profiling, so every pass builds its own.
func profileJobs(seed uint64) ([]profileJob, error) {
	var jobs []profileJob
	for _, app := range []struct {
		name   string
		inputs []int
		trace  func(int, uint64) (*memtrace.PhasedStream, *profiler.Binary)
	}{
		{"water_nsq", workloads.WaterNsqInputs, workloads.WaterNsqTrace},
		{"ocean_cp", workloads.OceanInputs, workloads.OceanTrace},
	} {
		for _, in := range app.inputs {
			s, bin := app.trace(in, seed)
			if bin == nil {
				return nil, fmt.Errorf("%s@%d has no loop binary", app.name, in)
			}
			jobs = append(jobs, profileJob{label: fmt.Sprintf("%s@%d", app.name, in), stream: s, bin: bin})
		}
	}
	return jobs, nil
}

// calibrationPoint is one RunCalibration replay: threads co-running
// working sets of wss bytes with a random or cyclic access pattern.
type calibrationPoint struct {
	threads int
	wss     pp.Bytes
	pattern string
}

var calibrationPoints = func() []calibrationPoint {
	var out []calibrationPoint
	for _, tc := range []struct {
		threads int
		wss     pp.Bytes
	}{{4, pp.MB(2)}, {8, pp.MB(2)}, {12, pp.MB(2)}, {12, pp.MB(4)}} {
		for _, p := range []string{"random", "cyclic"} {
			out = append(out, calibrationPoint{tc.threads, tc.wss, p})
		}
	}
	return out
}()

// replayCalibration replays one calibration point through a fresh
// Table 1 hierarchy exactly as RunCalibration does (a warming pass, then
// a counted one) and returns the shared-cache hit rate. The whole replay
// is one cache span; address generation rides inside it.
func replayCalibration(p calibrationPoint, sweeps int, seed uint64, tr *tracer, c *counts) float64 {
	tr.begin(layerCache)
	defer tr.end()
	h := cache.NewHierarchy(cache.E5_2420())
	rng := sim.NewRNG(seed + 0xca11b)
	pos := make([]uint64, p.threads)
	next := func(i int) uint64 {
		base := uint64(i) << 30
		if p.pattern == "random" {
			return base + (rng.Uint64n(uint64(p.wss)) &^ 63)
		}
		a := base + pos[i]
		pos[i] = (pos[i] + 64) % uint64(p.wss)
		return a
	}
	perThread := sweeps * int(p.wss/64)
	const burst = 512
	var hits, total uint64
	for pass := 0; pass < 2; pass++ {
		for done := 0; done < perThread; done += burst {
			for i := 0; i < p.threads; i++ {
				for k := 0; k < burst; k++ {
					lvl, _ := h.Access(i, next(i))
					c.accesses++
					if pass == 0 {
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
	}
	return float64(hits) / float64(total)
}

// traceProfilePlan reassembles the trace-profile iteration: every Fig 12
// profiling job through a counting memtrace.Stream, and every
// calibration replay through the cache hierarchy. The references are
// profiler.Profile on an identical stream and RunCalibration itself.
func traceProfilePlan(seed uint64) tracedPlan {
	cfg := workloads.Fig12ProfilerConfig()
	var steps []step
	for j := 0; j < len(workloads.WaterNsqInputs)+len(workloads.OceanInputs); j++ {
		var want []profiler.Period
		job := func() (profileJob, error) {
			jobs, err := profileJobs(seed)
			if err != nil {
				return profileJob{}, err
			}
			return jobs[j], nil
		}
		steps = append(steps, step{
			name: fmt.Sprintf("profile job %d", j),
			ref: func() error {
				pj, err := job()
				if err != nil {
					return err
				}
				want, err = profiler.Profile(pj.stream, cfg, pj.bin)
				return err
			},
			traced: func(tr *tracer, c *counts) (func() error, error) {
				pj, err := job()
				if err != nil {
					return nil, err
				}
				cs := &countedStream{s: pj.stream}
				tr.begin(layerProfiler)
				got, err := profiler.Profile(cs, cfg, pj.bin)
				tr.end()
				if err != nil {
					return nil, err
				}
				c.refs += cs.n
				return func() error {
					if !reflect.DeepEqual(got, want) {
						return fmt.Errorf("%s: traced periods differ from profiler.Profile's", pj.label)
					}
					return nil
				}, nil
			},
		})
	}

	opt := benchOptions(seed)
	opt.Scale = traceProfileScale
	var want *experiments.CalibrationResult
	steps = append(steps, step{
		name: "calibration",
		ref: func() error {
			var err error
			want, err = experiments.RunCalibration(opt)
			return err
		},
		traced: func(tr *tracer, c *counts) (func() error, error) {
			got := make([]float64, len(calibrationPoints))
			for i, p := range calibrationPoints {
				got[i] = replayCalibration(p, 3, seed, tr, c)
			}
			return func() error {
				if len(want.Points) != len(got) {
					return fmt.Errorf("calibration: %d points, RunCalibration has %d", len(got), len(want.Points))
				}
				for i, p := range want.Points {
					if p.HitRate != got[i] {
						return fmt.Errorf("calibration point %d: traced hit rate %v, RunCalibration %v", i, got[i], p.HitRate)
					}
				}
				return nil
			}, nil
		},
	})
	return tracedPlan{steps: steps, post: func(c *counts, m map[string]float64) error {
		return drainStreams(seed, c, m)
	}}
}

// drainStreams measures memtrace alone: it drains an identical stream of
// every profiling job with no consumer, and checks the reference count
// equals what the profiler pulled in the timing pass.
func drainStreams(seed uint64, c *counts, m map[string]float64) error {
	jobs, err := profileJobs(seed)
	if err != nil {
		return err
	}
	var n int64
	t0 := time.Now()
	for _, j := range jobs {
		for {
			if _, ok := j.stream.Next(); !ok {
				break
			}
			n++
		}
	}
	d := time.Since(t0)
	if n != c.refs {
		return fmt.Errorf("drained %d references, the profiler pulled %d", n, c.refs)
	}
	if n > 0 {
		m["memtrace.ns_per_ref"] = float64(d.Nanoseconds()) / float64(n)
	}
	return nil
}
