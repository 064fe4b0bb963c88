// Package perf is the measurement harness standing in for the paper's
// use of Linux perf + RAPL: it runs a workload under a scheduling
// configuration, repeats the measurement (the paper averages four runs),
// and reports the metrics of §4.1 — system and DRAM energy in Joules,
// GFLOPS, and GFLOPS per Watt.
package perf

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/obsrv"
	"rdasched/internal/persist"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/runner"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
	"rdasched/internal/telemetry/blame"
	"rdasched/internal/telemetry/trace"
)

// Metrics are the paper's evaluation metrics for one workload run. A
// field fed by a RunConfig option stays zero without it (RunConfig.Validate).
type Metrics struct {
	// SystemJ is energy consumed by CPU + caches + DRAM (Figure 7).
	SystemJ float64
	// DRAMJ is energy consumed by DRAM alone (Figure 8).
	DRAMJ float64
	// PackageJ is the package domain (SystemJ - DRAMJ).
	PackageJ float64
	// GFLOPS is average attained performance (Figure 9).
	GFLOPS float64
	// GFLOPSPerWatt is work per energy (Figure 10).
	GFLOPSPerWatt float64
	// ElapsedSec is the workload makespan in (virtual) seconds.
	ElapsedSec float64
	// DRAMAccesses counts LLC misses reaching memory.
	DRAMAccesses float64
	// AvgBusyCores is the time-averaged core occupancy.
	AvgBusyCores float64
	// Blocks and Wakeups count scheduler pause/resume events.
	Blocks, Wakeups uint64

	// Robustness counters (float64 so Aggregate averages them): lease
	// reclamations (including end-of-run Quiesce), deadline degradations
	// to stock admission, refused invalid demands, and the longest time
	// any period sat on the waitlist.
	ReclaimedLeases    float64
	FallbackAdmissions float64
	RejectedDemands    float64
	MaxWaitSec         float64

	// Governor counters (zero without RunConfig.Governor): policy ladder
	// steps toward shedding and back, breaker trips, clean-probe
	// restores, and aged-waiter capacity reservations.
	GovernorDegradations float64
	GovernorRecoveries   float64
	GovernorQuarantines  float64
	GovernorRestores     float64
	GovernorReservations float64

	// Domain counters (zero unless RunConfig.Domains >= 2; a single
	// domain makes no placement decisions): periods assigned by the
	// demand-aware placer and aged waiters migrated cross-domain.
	DomainPlacements float64
	DomainSteals     float64

	// Recovery counters (zero unless domain faults were injected):
	// shard crashes, periods moved off failed shards, backoff retry
	// ticks, ledger drifts repaired by the auditor, shards reintegrated,
	// and periods the RecoverDrop baseline degraded to untracked.
	DomainFailures   float64
	Evacuations      float64
	EvacRetries      float64
	AuditRepairs     float64
	DomainRecoveries float64
	DroppedPeriods   float64

	// Telemetry is the run's metrics registry (RunConfig.Telemetry):
	// the scheduler's counters plus wait-time, period-length,
	// occupancy, and waitlist-depth histograms. On an aggregate it is
	// the merge of every repetition's registry in repetition order.
	// Excluded from JSON encodings of Metrics — use its own
	// WriteJSON/WritePrometheus encoders.
	Telemetry *telemetry.Registry `json:"-"`
	// Spans are the run's decision traces (RunConfig.Trace), one span
	// per progress period. On an aggregate they are every repetition's
	// spans concatenated in repetition order, each stamped with its
	// repetition index.
	Spans []trace.Span `json:"-"`
	// Blame is the run's causal wait-attribution report
	// (RunConfig.Blame): interference matrix, per-period blame
	// timeline, and critical-path decomposition. On an aggregate,
	// repetitions merge in repetition order with Rep-stamped timelines.
	Blame *blame.Report `json:"-"`
	// SLO is the admission-latency SLO evaluation (RunConfig.SLO):
	// breach counts and the multi-window burn-rate timeline. Aggregates
	// merge in repetition order like Blame.
	SLO *blame.SLOResult `json:"-"`
}

// RunConfig describes one measured configuration; Validate refuses
// every field a run could not honor.
type RunConfig struct {
	// Machine is the hardware model (machine.DefaultConfig for Table 1).
	Machine machine.Config
	// Policy selects the scheduling configuration. nil means the Linux
	// default policy: applications run *uninstrumented* — declared flags
	// are stripped, so no progress-period API overhead is charged and no
	// admission control happens.
	Policy core.Policy
	// Reserve withholds LLC capacity from admission (§6 extension).
	Reserve pp.Bytes
	// Repetitions is the number of measured runs to average (the paper
	// uses 4). 0 means 1.
	Repetitions int
	// JitterFrac perturbs per-run phase lengths by a uniform ±fraction,
	// making repetitions differ the way real runs do (the paper reports
	// an average standard deviation of 2%). 0 disables jitter.
	JitterFrac float64
	// Seed drives the jitter; each repetition forks its own stream.
	Seed uint64

	// Faults, when non-nil and enabled, perturbs the workload with seeded
	// misbehavior (misdeclared/oversized demands, leaked pp_ends, crashes,
	// arrival bursts) before the run; each repetition draws its own fault
	// pattern from Seed. See internal/faults.
	Faults *faults.Plan
	// Lease bounds how long an admitted period may stay registered before
	// the watchdog reclaims its load (0 disables; see core.SetLease).
	Lease sim.Duration
	// AdmitDeadline bounds how long a denied period may wait before it is
	// degraded to stock-scheduler admission (0 disables; see
	// core.SetAdmissionDeadline).
	AdmitDeadline sim.Duration
	// Governor, when non-nil, attaches the adaptive admission governor
	// (overload-aware policy degradation, misdeclaration quarantine,
	// waitlist aging) to each repetition's scheduler.
	Governor *core.GovernorConfig

	// Domains shards the scheduler into N per-domain admission monitors
	// with demand-aware placement and cross-domain steal of aged
	// waiters (core.DomainSet). 0 and 1 both run a single domain.
	Domains int
	// StealAge tunes the cross-domain steal age bar (0 selects
	// core.DefaultStealAge).
	StealAge sim.Duration
	// Recovery configures the domain fault/recovery subsystem; nil with
	// Faults.DomainFaults scheduled selects core.DefaultRecoveryConfig.
	Recovery *core.RecoveryConfig

	// Telemetry attaches a fresh metrics registry to each repetition's
	// scheduler (Metrics.Telemetry).
	Telemetry bool
	// Trace subscribes a span collector to each repetition's decision
	// stream (Metrics.Spans).
	Trace bool
	// Blame subscribes the causal wait-attribution collector
	// (internal/telemetry/blame) to each repetition's decision stream
	// (Metrics.Blame). With Telemetry also set, the rda_blame_* families
	// publish into the repetition's registry.
	Blame bool
	// SLO, when non-nil, attaches an admission-latency SLO monitor with
	// multi-window burn-rate alerting (Metrics.SLO; rda_slo_* families
	// with Telemetry).
	SLO *blame.SLOConfig

	// Checkpoint, when non-nil, attaches the crash-safe admission
	// journal and snapshot writer (internal/persist) to each
	// repetition's scheduler. Repetition 0 writes into Checkpoint.Dir
	// directly; repetition i > 0 into Dir/rep<i>. Combined with
	// Faults.KillAt the run dies mid-schedule (machine.ErrHalted),
	// leaving the checkpoint directory as the only survivor.
	Checkpoint *persist.Config
	// Restore, when non-nil, resumes a killed run from a loaded
	// checkpoint: the pre-kill prefix is re-executed (the simulation is
	// deterministic), each decision the gate makes is checked against
	// the journal's record of it and the gate's state at the snapshot's
	// record byte-for-byte against the snapshot, and the same gate then
	// runs the remainder.
	Restore *persist.Restored
	// Jobs fans repetitions out across a worker pool (internal/runner);
	// 0 and 1 run them serially. Results are bit-identical for every
	// value: each repetition is a pure function of (w, rc, rep), and
	// samples are aggregated in repetition order.
	Jobs int

	// Obsrv, when non-nil, attaches the live introspection server to
	// the run: the decision stream fans out to its /events hub, the
	// telemetry registry (with Telemetry set) becomes scrapeable at
	// /metrics, and the engine step hook publishes /state and /blame
	// snapshots. The server observes through non-blocking copies only,
	// so results are bit-identical to an unobserved run. A stop request
	// (SIGTERM in the CLIs) halts the run with ErrStopped.
	Obsrv *obsrv.Server
	// Pace throttles virtual time to Pace virtual seconds per wall
	// second (1 = real time, 10 = 10x speed); 0 runs unthrottled. The
	// pacer only sleeps between events, never reorders them, so a paced
	// run's results are identical to an unpaced one's.
	Pace float64
}

// ErrInvalidRunConfig marks a RunConfig that Validate refuses.
var ErrInvalidRunConfig = errors.New("perf: invalid run configuration")

// Validate reports whether every field rc sets can take effect; each
// violation wraps ErrInvalidRunConfig. It refuses out-of-range values,
// scheduler settings without a Policy (the baseline has no scheduler),
// steal and domain-fault settings below two domains, Recovery without
// domain faults, checkpoint/restore combinations the journal cannot
// honor, and a nested SLO, Checkpoint, Recovery or Governor config its
// own Validate refuses. Sample calls it first.
func (rc RunConfig) Validate() error {
	switch {
	case rc.Repetitions < 0:
		return invalid("negative Repetitions %d", rc.Repetitions)
	case rc.Jobs < 0:
		return invalid("negative Jobs %d", rc.Jobs)
	case rc.Domains < 0:
		return invalid("negative Domains %d", rc.Domains)
	case rc.Pace < 0:
		return invalid("negative Pace %g", rc.Pace)
	case rc.StealAge < 0 || rc.Lease < 0 || rc.AdmitDeadline < 0:
		return invalid("negative StealAge, Lease or AdmitDeadline")
	case rc.Faults != nil && rc.Faults.KillAt < 0:
		return invalid("negative Faults.KillAt %vs", rc.Faults.KillAt.Seconds())
	case rc.Reserve < 0 || rc.Reserve > rc.Machine.LLCCapacity:
		return invalid("Reserve %v outside [0, LLC capacity %v]", rc.Reserve, rc.Machine.LLCCapacity)
	case !(rc.JitterFrac >= 0 && rc.JitterFrac < 1):
		return invalid("JitterFrac %g outside [0, 1)", rc.JitterFrac)
	}
	if rc.Policy == nil {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"Reserve", rc.Reserve != 0},
			{"Lease", rc.Lease != 0},
			{"AdmitDeadline", rc.AdmitDeadline != 0},
			{"Governor", rc.Governor != nil},
			{"Domains > 1", rc.Domains > 1},
			{"Telemetry", rc.Telemetry},
			{"Trace", rc.Trace},
			{"Blame", rc.Blame},
			{"SLO", rc.SLO != nil},
			{"Checkpoint", rc.Checkpoint != nil},
			{"Restore", rc.Restore != nil},
		} {
			if f.set {
				return invalid("%s needs a scheduling policy", f.name)
			}
		}
	}
	var dfs []faults.DomainFault
	if rc.Faults != nil {
		dfs = rc.Faults.DomainFaults
	}
	if rc.Domains < 2 && (rc.StealAge != 0 || len(dfs) > 0) {
		return invalid("StealAge and domain faults need Domains >= 2")
	}
	for i, df := range dfs {
		if df.Domain < 0 || df.Domain >= rc.Domains {
			return invalid("domain fault %d targets domain %d of %d", i, df.Domain, rc.Domains)
		}
		if df.At <= 0 {
			return invalid("domain fault %d at non-positive time %vs", i, df.At.Seconds())
		}
	}
	if rc.Recovery != nil && len(dfs) == 0 {
		return invalid("Recovery needs domain faults")
	}
	if rc.Checkpoint != nil && rc.Restore != nil {
		return invalid("Checkpoint and Restore in the same run")
	}
	if (rc.Checkpoint != nil || rc.Restore != nil) && len(dfs) > 0 {
		return invalid("Checkpoint or Restore with domain faults (recovery state is not journaled)")
	}
	if rc.Restore != nil && (rc.Reps() > 1 || rc.Restore.KillAt <= 0) {
		return invalid("Restore needs one repetition and a checkpoint with a kill time")
	}
	var err error
	if rc.SLO != nil {
		err = rc.SLO.Validate()
	}
	if rc.Checkpoint != nil && err == nil {
		err = rc.Checkpoint.Validate()
	}
	if rc.Recovery != nil && err == nil {
		err = rc.Recovery.Validate()
	}
	if rc.Governor != nil && err == nil {
		err = rc.Governor.Validate()
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidRunConfig, err)
	}
	return nil
}

// invalid formats one Validate violation.
func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalidRunConfig}, args...)...)
}

// ErrStopped reports a run halted by an external stop request
// (obsrv.Server.RequestStop — the CLIs' SIGTERM path). Callers that
// asked for the stop should treat it as a clean, intentional end of
// the run, not a failure.
var ErrStopped = errors.New("run stopped by request")

// Reps returns the effective repetition count (0 means 1).
func (rc RunConfig) Reps() int {
	if rc.Repetitions <= 0 {
		return 1
	}
	return rc.Repetitions
}

// Run measures a workload and returns the mean metrics and their
// standard deviation across repetitions, run on max(rc.Jobs, 1) workers.
// The result is bit-identical for every worker count: each repetition is
// a pure function of its index, samples aggregate in repetition order,
// and every repetition runs even when another fails.
func Run(w proc.Workload, rc RunConfig) (mean, stddev Metrics, err error) {
	samples, err := runner.Map(max(rc.Jobs, 1), rc.Reps(), func(i int) (Metrics, error) {
		return Sample(w, rc, i)
	})
	if err != nil {
		return Metrics{}, Metrics{}, fmt.Errorf("perf: %w", err)
	}
	return Aggregate(samples)
}

// Sample measures repetition rep of the configuration. It is a pure
// function of (w, rc, rep): the jitter stream derives from rc.Seed and
// rep alone, never from a generator shared across repetitions, so
// repetitions may run concurrently — in any order, on any worker — and
// still produce the exact metrics a serial loop would. It refuses a
// configuration Validate rejects.
func Sample(w proc.Workload, rc RunConfig, rep int) (Metrics, error) {
	if err := rc.Validate(); err != nil {
		return Metrics{}, err
	}
	if err := w.Validate(); err != nil {
		return Metrics{}, err
	}
	if rc.Faults != nil && rc.Faults.Enabled() {
		w = rc.Faults.Apply(w, runner.Seed(rc.Seed+0xfa17, uint64(rep)))
	}
	if rc.JitterFrac > 0 {
		w = jitter(w, rc.JitterFrac, sim.NewRNG(runner.Seed(rc.Seed+0x5eed, uint64(rep))))
	}
	return runOnce(w, rc, uint64(rep))
}

// NewMachine builds the stack Run measures: a machine with rc.Machine's
// configuration whose declared phases are gated by a DomainSet of
// max(rc.Domains, 1) shards under rc.Policy, bound to the machine's
// waker, clock (event times, waits, blame), event engine (leases,
// admission deadlines, the governor's tick) and memory bandwidth. It
// reads rc's Machine, Policy, Domains, StealAge, Reserve and, when
// domain faults are planned, Recovery; Run layers the lease, deadline,
// governor, observers, faults and checkpoints on top. With a nil
// Policy the gate is nil and the machine runs ungated; strip the
// workload's declarations with Undeclare as Run does. It refuses a
// configuration Validate rejects.
func NewMachine(rc RunConfig) (*machine.Machine, *core.DomainSet, error) {
	if err := rc.Validate(); err != nil {
		return nil, nil, err
	}
	schd, err := newGate(rc)
	if err != nil {
		return nil, nil, err
	}
	if schd == nil {
		// A nil *DomainSet must not become a non-nil machine.Gate.
		return machine.New(rc.Machine, nil), nil, nil
	}
	m := machine.New(rc.Machine, schd)
	schd.SetWaker(m)
	schd.SetClock(m.Now)
	schd.SetTimer(m.Engine())
	return m, schd, nil
}

// newGate builds the admission gate for one repetition, a DomainSet of
// max(rc.Domains, 1) shards (nil for the uninstrumented baseline).
func newGate(rc RunConfig) (*core.DomainSet, error) {
	if rc.Policy == nil {
		return nil, nil
	}
	dset, err := core.NewDomainSet(rc.Policy, rc.Machine.LLCCapacity,
		core.DomainConfig{Domains: max(rc.Domains, 1), StealAge: rc.StealAge})
	if err != nil {
		return nil, err
	}
	// Track memory bandwidth as a second resource: periods declaring
	// BWDemand are gated against the machine's DRAM roofline, split
	// across the domains like the LLC budget.
	dset.SetResourceCapacity(pp.ResourceMemBW, pp.Bytes(rc.Machine.MemBandwidth))
	if rc.Reserve > 0 {
		dset.SetReserve(rc.Reserve)
	}
	if rc.Faults != nil && len(rc.Faults.DomainFaults) > 0 {
		rcfg := core.DefaultRecoveryConfig()
		if rc.Recovery != nil {
			rcfg = *rc.Recovery
		}
		if err := dset.EnableRecovery(rcfg); err != nil {
			return nil, err
		}
	}
	return dset, nil
}

// runSinks holds the observers rc attaches to a repetition's gate.
type runSinks struct {
	reg  *telemetry.Registry
	col  *trace.Collector
	bcol *blame.Collector
	smon *blame.SLOMonitor
}

// introspection is the per-repetition bridge between the engine step
// hook and the live server: stop requests, wall-clock pacing, and
// periodic state/blame publication. It runs entirely on the engine
// goroutine.
type introspection struct {
	srv   *obsrv.Server
	pacer *obsrv.Pacer
	eng   *sim.Engine
	gate  *core.DomainSet
	bcol  *blame.Collector
}

// step is the sim.Engine hook: honor a pending stop first (so a stuck
// reader or a long pace sleep cannot delay shutdown past one event),
// then pace, then maybe publish snapshots. Halt is the hook's one
// sanctioned engine mutation.
func (in *introspection) step(now sim.Time) {
	if in.srv != nil && in.srv.StopRequested() {
		in.eng.Halt()
		return
	}
	in.pacer.Pace(now)
	if in.srv == nil || in.gate == nil {
		return
	}
	var rpt func() *blame.Report
	if in.bcol != nil {
		rpt = in.bcol.Report
	}
	in.srv.MaybePublish(in.gate.ExportState, rpt)
}

// bind configures the gate's lease, deadline and governor and creates
// and attaches the observers.
func (sk *runSinks) bind(schd *core.DomainSet, rc RunConfig) error {
	schd.SetLease(rc.Lease)
	schd.SetAdmissionDeadline(rc.AdmitDeadline)
	if rc.Governor != nil {
		schd.EnableGovernor(*rc.Governor)
	}
	if rc.Telemetry {
		sk.reg = telemetry.NewRegistry()
		schd.SetMetrics(sk.reg)
	}
	if rc.Trace {
		sk.col = trace.NewCollector()
		schd.AddSink(sk.col)
	}
	if rc.Blame {
		sk.bcol = blame.NewCollector()
		schd.AddSink(sk.bcol)
	}
	if rc.SLO != nil {
		var err error
		if sk.smon, err = blame.NewSLOMonitor(*rc.SLO); err != nil {
			return err
		}
		schd.AddSink(sk.smon)
	}
	if rc.Obsrv != nil {
		schd.AddSink(rc.Obsrv.Hub())
		if sk.reg != nil {
			rc.Obsrv.SetRegistry(sk.reg)
		}
	}
	return nil
}

// reviveCheck is the replay sink a revival run attaches to the gate
// that re-executes the killed run. It numbers the decisions the gate
// journals: decision k must equal the checkpoint's record k wherever the
// journal holds one, and at k = SnapshotSeq (at attach, when that is 0)
// the gate's canonical state must equal the snapshot's. A journal torn
// mid-frame ends early, and the decisions past it need no record: the
// re-execution makes them itself. Every record and the snapshot the
// checkpoint holds is read, so a checkpoint that misstates any of them
// is refused.
type reviveCheck struct {
	gate *core.DomainSet
	res  *persist.Restored
	snap []byte // the snapshot's canonical encoding
	n    uint64 // decisions seen
	err  error  // the first refusal; sticky
}

func newReviveCheck(gate *core.DomainSet, res *persist.Restored) (*reviveCheck, error) {
	b, err := res.State.Canonical()
	if err != nil {
		return nil, err
	}
	c := &reviveCheck{gate: gate, res: res, snap: b}
	if res.SnapshotSeq == 0 {
		c.checkState()
	}
	return c, nil
}

// Replay implements core.ReplaySink.
func (c *reviveCheck) Replay(r core.ReplayRecord) {
	if c.err != nil {
		return
	}
	c.n++
	if c.n <= uint64(len(c.res.Records)) && r != c.res.Records[c.n-1] {
		c.err = fmt.Errorf("perf: restored record %d is %s, the re-executed run decided %s",
			c.n, formatRecord(c.res.Records[c.n-1]), formatRecord(r))
		return
	}
	if c.n == c.res.SnapshotSeq {
		c.checkState()
	}
}

// checkState compares the live gate with the snapshot.
func (c *reviveCheck) checkState() {
	live := c.gate.ExportState()
	b, err := live.Canonical()
	if err != nil {
		c.err = err
		return
	}
	if !bytes.Equal(b, c.snap) {
		c.err = fmt.Errorf("perf: restored snapshot at record %d diverges from the re-executed run at %dps (%d vs %d canonical bytes)",
			c.res.SnapshotSeq, int64(live.At), len(c.snap), len(b))
	}
}

// done is the check's verdict at the kill: no refusal, and every record
// and the snapshot reached.
func (c *reviveCheck) done() error {
	if c.err != nil {
		return c.err
	}
	if want := max(c.res.SnapshotSeq, uint64(len(c.res.Records))); c.n < want {
		return fmt.Errorf("perf: restored checkpoint reaches record %d, the re-executed run decided %d by the kill", want, c.n)
	}
	return nil
}

// formatRecord prints a record with its time in picoseconds, the unit
// the journal stores.
func formatRecord(r core.ReplayRecord) string {
	return fmt.Sprintf("{At:%dps Kind:%s Domain:%d ID:%d Proc:%d Phase:%d}",
		int64(r.At), r.Kind, r.Domain, r.ID, r.Proc, r.Phase)
}

// checkpointDir is repetition rep's directory under base: rep 0 owns
// base itself (the common single-repetition case restores from the
// directory the user named), later repetitions get subdirectories.
func checkpointDir(base string, rep uint64) string {
	if rep == 0 {
		return base
	}
	return filepath.Join(base, fmt.Sprintf("rep%d", rep))
}

func runOnce(w proc.Workload, rc RunConfig, rep uint64) (Metrics, error) {
	if rc.Policy == nil {
		w = Undeclare(w)
	}
	m, schd, err := NewMachine(rc)
	if err != nil {
		return Metrics{}, err
	}
	sk := &runSinks{}
	if schd != nil {
		if err := sk.bind(schd, rc); err != nil {
			return Metrics{}, err
		}
	}
	if rc.Obsrv != nil || rc.Pace > 0 {
		in := &introspection{
			srv:   rc.Obsrv,
			pacer: obsrv.NewPacer(rc.Pace),
			eng:   m.Engine(),
			gate:  schd,
			bcol:  sk.bcol,
		}
		m.Engine().SetStepHook(in.step)
		if rc.Obsrv != nil {
			rc.Obsrv.SetReady(true)
		}
	}
	// Arm the process-death fault. A revival run re-arms the exact kill
	// its checkpoint recorded, so the pre-kill prefix re-executes
	// identically and halts at the same engine event.
	killAt := sim.Duration(0)
	if rc.Faults != nil && rc.Faults.KillAt > 0 {
		killAt = rc.Faults.KillAt
	}
	if rc.Restore != nil {
		killAt = rc.Restore.KillAt
	}
	if killAt > 0 {
		eng := m.Engine()
		eng.After(killAt, eng.Halt)
	}
	if rc.Faults != nil && len(rc.Faults.DomainFaults) > 0 {
		armDomainFaults(schd, m.Engine(), rc.Faults.DomainFaults)
	}
	var cp *persist.Checkpointer
	if rc.Checkpoint != nil {
		pcfg := *rc.Checkpoint
		pcfg.Dir = checkpointDir(pcfg.Dir, rep)
		cp, err = persist.Attach(pcfg, schd, killAt)
		if err != nil {
			return Metrics{}, err
		}
		schd.SetReplaySink(cp)
	}
	var chk *reviveCheck
	if rc.Restore != nil {
		chk, err = newReviveCheck(schd, rc.Restore)
		if err != nil {
			return Metrics{}, err
		}
		schd.SetReplaySink(chk)
	}
	if err := m.AddWorkload(w); err != nil {
		return Metrics{}, err
	}
	res, err := m.Run()
	if err == nil && rc.Restore != nil {
		// The killed run halted at its checkpoint's kill time. A
		// re-execution that finishes first is not that run, and nothing
		// was checked against the checkpoint.
		return Metrics{}, fmt.Errorf("perf: restored run finished at %v, before its checkpoint's kill time %v",
			m.Now(), sim.Time(0).Add(rc.Restore.KillAt))
	}
	if err != nil {
		if !errors.Is(err, machine.ErrHalted) {
			return Metrics{}, err
		}
		if rc.Obsrv != nil && rc.Obsrv.StopRequested() {
			// An external stop request (SIGTERM), not the injected kill:
			// leave any checkpoint consistent and report the clean-stop
			// sentinel. This is checked before the restore branch — a
			// stop during prefix re-execution must not be mistaken for
			// reaching the checkpointed kill time.
			if cp != nil {
				if cerr := cp.Close(); cerr != nil {
					return Metrics{}, cerr
				}
			}
			return Metrics{}, fmt.Errorf("perf: run stopped at %v: %w", m.Now(), ErrStopped)
		}
		if rc.Restore == nil {
			// The injected process death: everything the run leaves
			// behind is the checkpoint directory.
			if cp != nil {
				if cerr := cp.Close(); cerr != nil {
					return Metrics{}, cerr
				}
			}
			return Metrics{}, fmt.Errorf("perf: process killed at %v: %w", m.Now(), err)
		}
		res, err = resumeRestored(m, schd, chk)
		if err != nil {
			return Metrics{}, err
		}
	}
	reg, col, bcol, smon := sk.reg, sk.col, sk.bcol, sk.smon
	var rob core.Stats
	var gov core.GovernorStats
	var dst core.DomainStats
	var rst core.RecoveryStats
	if schd != nil {
		// End-of-run reclamation: periods still registered lost their
		// owners (leaked ends, crashed threads); return their load so the
		// monitor reads zero and the counters include the residue.
		schd.Quiesce()
		rob = schd.Stats()
		gov = schd.GovernorStats()
		dst = schd.DomainStats()
		rst = schd.RecoveryStats()
		if reg != nil {
			schd.PublishStats(reg)
		}
		if col != nil {
			// Quiesce already closed admitted spans via reclaim events;
			// this closes the still-waitlisted ones.
			col.Finish(m.Now())
		}
	}
	var spans []trace.Span
	if col != nil {
		spans = col.Spans()
	}
	var brpt *blame.Report
	if bcol != nil {
		// Finish after Quiesce: the reclaim/wake cascade it triggers is
		// part of the run, and still-open waits close at quiesce time.
		bcol.Finish(m.Now())
		brpt = bcol.Report()
		brpt.Publish(reg)
	}
	var slo *blame.SLOResult
	if smon != nil {
		slo = smon.Result()
		slo.Publish(reg)
	}
	if cp != nil {
		// Surface any sticky journal I/O error: a run whose checkpoint
		// silently failed must not report success.
		if err := cp.Close(); err != nil {
			return Metrics{}, err
		}
		if reg != nil {
			cp.Publish(reg)
		}
	}
	if rc.Restore != nil && reg != nil {
		rc.Restore.Publish(reg)
	}
	if rc.Obsrv != nil {
		// Publish the end-of-run snapshots unconditionally so /state and
		// /blame reflect the final (post-Quiesce) picture even for runs
		// shorter than the publication period.
		if schd != nil {
			_ = rc.Obsrv.PublishState(schd.ExportState())
		}
		_ = rc.Obsrv.PublishBlame(brpt)
	}
	return Metrics{
		Telemetry: reg,
		Spans:     spans,
		Blame:     brpt,
		SLO:       slo,

		SystemJ:       res.SystemJ,
		DRAMJ:         res.DRAMJ,
		PackageJ:      res.PackageJ,
		GFLOPS:        res.GFLOPS(),
		GFLOPSPerWatt: res.GFLOPSPerWatt(),
		ElapsedSec:    res.Elapsed.Seconds(),
		DRAMAccesses:  res.Counters.DRAMAccesses,
		AvgBusyCores:  res.AvgBusyCores,
		Blocks:        res.Counters.PPBlocks,
		Wakeups:       res.Counters.Wakeups,

		ReclaimedLeases:    float64(rob.Reclaimed),
		FallbackAdmissions: float64(rob.Fallbacks),
		RejectedDemands:    float64(rob.Rejected),
		MaxWaitSec:         rob.MaxWait.Seconds(),

		GovernorDegradations: float64(gov.Degradations),
		GovernorRecoveries:   float64(gov.Recoveries),
		GovernorQuarantines:  float64(gov.Quarantines),
		GovernorRestores:     float64(gov.Restores),
		GovernorReservations: float64(gov.Reservations),

		DomainPlacements: float64(dst.Placements),
		DomainSteals:     float64(dst.Steals),

		DomainFailures:   float64(rst.Failures),
		Evacuations:      float64(rst.Evacuations),
		EvacRetries:      float64(rst.EvacRetries),
		AuditRepairs:     float64(rst.AuditRepairs),
		DomainRecoveries: float64(rst.Reintegrations),
		DroppedPeriods:   float64(rst.Dropped),
	}, nil
}

// resumeRestored is the revival protocol, entered when the re-executed
// run halts at the checkpointed kill time:
//
//  1. Check: every decision the re-execution journaled matched the
//     checkpoint's record of the same sequence number, the gate's state
//     at the snapshot's record matched the snapshot byte-for-byte under
//     canonical JSON, and the run reached both. A mismatch means the
//     checkpoint and the deterministic re-execution disagree —
//     corruption beyond what the checksums caught, or nondeterminism;
//     either way, refuse.
//  2. Detach the check, clear the halt and drive the same gate to
//     completion: the revived run is the killed run's own continuation.
//
// Every record and the snapshot the checkpoint holds feed the check, so
// the persistence layer is load-bearing without a second gate.
func resumeRestored(m *machine.Machine, schd *core.DomainSet, chk *reviveCheck) (*machine.Result, error) {
	if err := chk.done(); err != nil {
		return nil, err
	}
	schd.SetReplaySink(nil)
	m.Engine().Resume()
	return m.Resume()
}

// armDomainFaults schedules a plan's domain-level faults, which
// Validate has checked, on the run's event engine in plan order; faults
// with a positive Heal arm the matching RecoverDomain alongside.
func armDomainFaults(dset *core.DomainSet, eng *sim.Engine, dfs []faults.DomainFault) {
	for _, df := range dfs {
		eng.After(df.At, func() {
			var err error
			switch df.Kind {
			case faults.DomainCapacityLoss:
				err = dset.InjectCapacityLoss(df.Domain, df.Frac)
			case faults.DomainCrash:
				err = dset.InjectCrash(df.Domain)
			case faults.DomainLedgerSkew:
				err = dset.InjectLedgerCorruption(df.Domain, df.Skew)
			}
			if err != nil {
				panic(fmt.Sprintf("perf: domain fault injection: %v", err))
			}
		})
		if df.Heal > 0 && df.Kind != faults.DomainLedgerSkew {
			eng.After(df.At+df.Heal, func() {
				if err := dset.RecoverDomain(df.Domain); err != nil {
					panic(fmt.Sprintf("perf: domain recovery: %v", err))
				}
			})
		}
	}
}

// Undeclare strips every Declared flag: the workload as it runs on the
// stock scheduler, without progress-period instrumentation.
func Undeclare(w proc.Workload) proc.Workload {
	return w.MapPhases(func(ph *proc.Phase) { ph.Declared = false })
}

// jitter returns a copy of w with each phase's instruction count
// perturbed by a uniform factor in [1-frac, 1+frac].
func jitter(w proc.Workload, frac float64, rng *sim.RNG) proc.Workload {
	return w.MapPhases(func(ph *proc.Phase) { ph.Instr *= 1 + frac*(2*rng.Float64()-1) })
}

// Aggregate computes the element-wise mean and standard deviation of a
// set of repetition samples, in sample order (the order never affects
// the result beyond float rounding, but callers collecting samples from
// a worker pool must still pass them in repetition order so the
// rounding, too, is deterministic).
func Aggregate(samples []Metrics) (mean, stddev Metrics, err error) {
	n := float64(len(samples))
	if n == 0 {
		return Metrics{}, Metrics{}, fmt.Errorf("perf: no samples")
	}
	fields := func(m *Metrics) []*float64 {
		return []*float64{
			&m.SystemJ, &m.DRAMJ, &m.PackageJ, &m.GFLOPS, &m.GFLOPSPerWatt,
			&m.ElapsedSec, &m.DRAMAccesses, &m.AvgBusyCores,
			&m.ReclaimedLeases, &m.FallbackAdmissions, &m.RejectedDemands, &m.MaxWaitSec,
			&m.GovernorDegradations, &m.GovernorRecoveries, &m.GovernorQuarantines,
			&m.GovernorRestores, &m.GovernorReservations,
			&m.DomainPlacements, &m.DomainSteals,
			&m.DomainFailures, &m.Evacuations, &m.EvacRetries,
			&m.AuditRepairs, &m.DomainRecoveries, &m.DroppedPeriods,
		}
	}
	for rep, s := range samples {
		s := s
		for i, f := range fields(&s) {
			*fields(&mean)[i] += *f / n
		}
		mean.Blocks += s.Blocks / uint64(len(samples))
		mean.Wakeups += s.Wakeups / uint64(len(samples))
		// Telemetry folds, it does not average: registries merge in
		// repetition order, spans concatenate stamped with their
		// repetition index.
		if s.Telemetry != nil {
			if mean.Telemetry == nil {
				mean.Telemetry = telemetry.NewRegistry()
			}
			mean.Telemetry.Merge(s.Telemetry)
		}
		for _, sp := range s.Spans {
			sp.Rep = rep
			mean.Spans = append(mean.Spans, sp)
		}
		if s.Blame != nil {
			for i := range s.Blame.Periods {
				s.Blame.Periods[i].Rep = rep
			}
			if mean.Blame == nil {
				mean.Blame = &blame.Report{}
			}
			mean.Blame.Merge(s.Blame)
		}
		if s.SLO != nil {
			for i := range s.SLO.Samples {
				s.SLO.Samples[i].Rep = rep
			}
			if mean.SLO == nil {
				mean.SLO = &blame.SLOResult{}
			}
			mean.SLO.Merge(s.SLO)
		}
	}
	for _, s := range samples {
		s := s
		mf := fields(&mean)
		for i, f := range fields(&s) {
			d := *f - *mf[i]
			*fields(&stddev)[i] += d * d / n
		}
	}
	for _, f := range fields(&stddev) {
		*f = math.Sqrt(*f)
	}
	return mean, stddev, nil
}
