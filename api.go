package rdasched

// This file is the library's public facade: type aliases and constructors
// re-exporting the pieces a downstream user composes, so that
// `import "rdasched"` is enough for the common paths — describing a
// workload, picking a policy, running it on the Table 1 machine, and
// reading the paper's metrics. The full surface (profiler, traces, cache
// simulator, experiment harnesses) lives in the internal packages and is
// reached through the cmd/ tools and examples.

import (
	"io"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/obsrv"
	"rdasched/internal/perf"
	"rdasched/internal/persist"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
	"rdasched/internal/telemetry/blame"
	"rdasched/internal/telemetry/trace"
	"rdasched/internal/workloads"
)

// Progress-period vocabulary (§2 of the paper).
type (
	// Resource identifies a tracked hardware resource (ResourceLLC).
	Resource = pp.Resource
	// Reuse is a period's relative temporal-locality level.
	Reuse = pp.Reuse
	// Bytes is a memory size.
	Bytes = pp.Bytes
	// Demand is the (resource, working set, reuse) triple of pp_begin.
	Demand = pp.Demand
)

// Re-exported constants.
const (
	ResourceLLC = pp.ResourceLLC
	ReuseLow    = pp.ReuseLow
	ReuseMed    = pp.ReuseMed
	ReuseHigh   = pp.ReuseHigh
)

// MB converts (possibly fractional) binary megabytes to Bytes — the
// paper's MB(6.3) literal.
func MB(v float64) Bytes { return pp.MB(v) }

// Workload description (what the simulated applications run).
type (
	// Phase is a duration of execution with constant resource behaviour;
	// Declared phases are bracketed by pp_begin/pp_end.
	Phase = proc.Phase
	// Program is a thread's phase sequence.
	Program = proc.Program
	// Spec describes one process (threads × program).
	Spec = proc.Spec
	// Workload is a named multiprogrammed mix.
	Workload = proc.Workload
)

// Scheduling (§3): the demand-aware extension and its policies.
type (
	// Policy is the reconfigurable scheduling predicate policy.
	Policy = core.Policy
	// Scheduler is the RDA extension (progress monitor + resource
	// monitor + predicate).
	Scheduler = core.Scheduler
	// StrictPolicy is RDA:Strict.
	StrictPolicy = core.StrictPolicy
	// CompromisePolicy is RDA:Compromise (factor x).
	CompromisePolicy = core.CompromisePolicy
)

// NewCompromise returns RDA:Compromise with the paper's factor (2).
func NewCompromise() CompromisePolicy { return core.NewCompromise() }

// Multi-domain scheduling: the LLC sharded into per-domain admission
// monitors with demand-aware placement and cross-domain steal of aged
// waiters. Select it with RunConfig.Domains, or wire a DomainSet in
// place of a Scheduler on a hand-built stack.
type (
	// DomainSet is N per-domain schedulers behind one gate.
	DomainSet = core.DomainSet
	// DomainSetConfig sizes a DomainSet (domain count, steal age).
	DomainSetConfig = core.DomainConfig
	// DomainStats summarizes cross-domain activity (placements, steals,
	// per-domain snapshots).
	DomainStats = core.DomainStats
	// DomainStat is one domain's end-of-run snapshot.
	DomainStat = core.DomainStat
	// RecoveryConfig sizes the domain fault/recovery subsystem
	// (DomainSet.EnableRecovery, RunConfig.Recovery).
	RecoveryConfig = core.RecoveryConfig
	// RecoveryMode selects what a DomainSet does with a crashed shard's
	// periods (evacuate / stall / drop).
	RecoveryMode = core.RecoveryMode
	// RecoveryStats counts recovery activity (evacuations, retries,
	// audit repairs, reintegrations).
	RecoveryStats = core.RecoveryStats
	// DomainFault is one scheduled domain-level fault (capacity loss,
	// crash, ledger corruption) in a FaultPlan.
	DomainFault = faults.DomainFault
	// DomainFaultKind classifies a DomainFault.
	DomainFaultKind = faults.DomainFaultKind
)

// Re-exported recovery modes and domain fault kinds.
const (
	RecoverEvacuate = core.RecoverEvacuate
	RecoverStall    = core.RecoverStall
	RecoverDrop     = core.RecoverDrop

	DomainCapacityLoss = faults.DomainCapacityLoss
	DomainCrash        = faults.DomainCrash
	DomainLedgerSkew   = faults.DomainLedgerSkew
)

// DefaultRecoveryConfig returns the evacuating recovery configuration
// (bounded backoff retries, periodic ledger audit).
func DefaultRecoveryConfig() RecoveryConfig { return core.DefaultRecoveryConfig() }

// DefaultDomainSetConfig returns the default configuration for n
// domains (stealing enabled at core.DefaultStealAge).
func DefaultDomainSetConfig(n int) DomainSetConfig { return core.DefaultDomainConfig(n) }

// NewDomainSet partitions an LLC budget into cfg.Domains shards under
// the shared policy; see NewScheduledMachine for the single-domain
// wiring it generalizes. An invalid configuration returns
// ErrInvalidDomainConfig.
func NewDomainSet(policy Policy, llcCapacity Bytes, cfg DomainSetConfig) (*DomainSet, error) {
	return core.NewDomainSet(policy, llcCapacity, cfg)
}

// Robustness layer: graceful degradation for misbehaving workloads.
type (
	// SchedStats are the scheduler's activity counters, including the
	// robustness counters (reclaimed leases, fallback admissions,
	// rejected demands, max wait).
	SchedStats = core.Stats
	// FaultPlan injects deterministic misbehavior into a workload
	// (misdeclared/oversized demands, leaked pp_ends, crashes, arrival
	// bursts); see RunConfig.Faults.
	FaultPlan = faults.Plan
	// Duration is a span of virtual time in picoseconds (used for the
	// period lease and admission deadline).
	Duration = sim.Duration
)

// Adaptive admission governor: overload-aware policy degradation,
// per-process misdeclaration quarantine, and starvation-free waitlist
// aging. Attach it through RunConfig.Governor (or Scheduler.
// EnableGovernor on a hand-wired stack).
type (
	// GovernorConfig tunes the governor's thresholds and windows.
	GovernorConfig = core.GovernorConfig
	// GovernorStats counts governor activity (ladder steps, breaker
	// trips, reservations).
	GovernorStats = core.GovernorStats
	// GovernorLevel is the degradation ladder position
	// (normal/degraded/shedding).
	GovernorLevel = core.GovernorLevel
	// BreakerState is a process's quarantine breaker position
	// (closed/open/half-open).
	BreakerState = core.BreakerState
)

// Re-exported governor states.
const (
	GovNormal       = core.GovNormal
	GovDegraded     = core.GovDegraded
	GovShedding     = core.GovShedding
	BreakerClosed   = core.BreakerClosed
	BreakerOpen     = core.BreakerOpen
	BreakerHalfOpen = core.BreakerHalfOpen
)

// DefaultGovernorConfig returns governor thresholds sized for the
// Table 1 machine.
func DefaultGovernorConfig() GovernorConfig { return core.DefaultGovernorConfig() }

// Sentinel errors returned by the scheduler's public admission path
// (Scheduler.CheckDemand, ResourceMonitor Increment/Decrement).
var (
	// ErrInvalidDemand: malformed or empty demand.
	ErrInvalidDemand = core.ErrInvalidDemand
	// ErrOversizedDemand: a demand the configured policy could never
	// admit alongside any other load.
	ErrOversizedDemand = core.ErrOversizedDemand
	// ErrLoadUnderflow: a release without a matching registration.
	ErrLoadUnderflow = core.ErrLoadUnderflow
	// ErrInvalidDomainConfig: a DomainSetConfig NewDomainSet refuses.
	ErrInvalidDomainConfig = core.ErrInvalidDomainConfig
	// ErrInvalidDomain: a fault-injection or recovery call against a
	// domain index outside the set, or without EnableRecovery.
	ErrInvalidDomain = core.ErrInvalidDomain
	// ErrInvalidRecoveryConfig: a RecoveryConfig EnableRecovery refuses.
	ErrInvalidRecoveryConfig = core.ErrInvalidRecoveryConfig
	// ErrInvalidRunConfig: a RunConfig that RunConfig.Validate, and so Run, refuses.
	ErrInvalidRunConfig = perf.ErrInvalidRunConfig
	// ErrHalted: the run died at FaultPlan.KillAt — the error a killed
	// checkpointed run wraps (errors.Is), leaving the directory behind
	// for Restore.
	ErrHalted = machine.ErrHalted
)

// UniformFaults returns a fault plan injecting every failure mode at the
// given per-candidate rate against the given LLC capacity.
func UniformFaults(rate float64, capacity Bytes) FaultPlan {
	return faults.Uniform(rate, capacity)
}

// PolicyByName resolves "default", "strict", or "compromise".
func PolicyByName(name string) (Policy, error) { return core.PolicyByName(name) }

// Machine model (the simulated Table 1 testbed).
type (
	// MachineConfig holds every model constant.
	MachineConfig = machine.Config
	// Machine simulates one run.
	Machine = machine.Machine
	// RunResult summarizes a run.
	RunResult = machine.Result
)

// DefaultMachine returns the Table 1 configuration (12 cores, 1.9 GHz,
// 15360 KiB shared LLC) with calibrated model constants.
func DefaultMachine() MachineConfig { return machine.DefaultConfig() }

// Measurement (the perf + RAPL stand-in).
type (
	// Metrics are the §4.1 evaluation metrics.
	Metrics = perf.Metrics
	// RunConfig describes one measured configuration.
	RunConfig = perf.RunConfig
)

// Crash-safe persistence: an append-only admission journal plus
// periodic state snapshots, written while a run executes and restored
// after a process death so the run resumes byte-identical to one that
// was never killed. Arm a checkpoint through RunConfig.Checkpoint (with
// FaultPlan.KillAt for the injected death), then load the directory
// with Restore and resume through RunConfig.Restore.
type (
	// CheckpointConfig selects the checkpoint directory and the virtual
	// period between state snapshots (0 = journal-only after the attach
	// snapshot).
	CheckpointConfig = persist.Config
	// Restored is a checkpoint loaded back from disk: the reconstructed
	// scheduler state plus its journal provenance (sequence reached,
	// snapshot anchor, records replayed, torn-tail truncation, snapshot
	// files found).
	Restored = persist.Restored
)

// Restore loads the last valid snapshot under dir and replays the
// journal suffix on top, truncating at the first torn or corrupt frame.
func Restore(dir string) (*Restored, error) { return persist.Restore(dir) }

// Telemetry (the observability layer): a metrics registry fed by the
// scheduler's decision path and streamed decision traces. Enable both
// through RunConfig.Telemetry / RunConfig.Trace; the collected registry
// and spans come back on Metrics.Telemetry / Metrics.Spans.
type (
	// TelemetryRegistry holds counters, gauges, and log-bucketed
	// histograms, with Prometheus text and JSON encoders.
	TelemetryRegistry = telemetry.Registry
	// TraceSpan is one progress period's begin→admit→end lifecycle.
	TraceSpan = trace.Span
	// SchedEvent is one raw decision-path event.
	SchedEvent = core.Event
	// EventSink receives the scheduler's decision stream (AddSink).
	EventSink = core.EventSink
)

// NewTelemetryRegistry returns an empty metrics registry, e.g. to pass
// to Scheduler.SetMetrics on a hand-wired stack.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// WriteChromeTrace writes spans as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing.
func WriteChromeTrace(w io.Writer, spans []TraceSpan) error {
	return trace.WriteChrome(w, spans)
}

// Causal wait attribution (the blame engine): who made each denied
// period wait, and for how long. Enable through RunConfig.Blame /
// RunConfig.SLO (results on Metrics.Blame / Metrics.SLO), or attach a
// BlameCollector / SLOMonitor via Scheduler.AddSink on a hand-wired
// stack. Attribution is exact: blamed shares plus the unattributed
// remainder reconstruct every wait to the picosecond.
type (
	// Blocker is one admitted period resident at denial time.
	Blocker = core.Blocker
	// BlameSink extends EventSink with denial-time blocker snapshots.
	BlameSink = core.BlameSink
	// BlameCollector consumes the decision stream into a BlameReport.
	BlameCollector = blame.Collector
	// BlameReport is the attribution result: per-period blame timeline,
	// interference matrix, and critical-path decomposition.
	BlameReport = blame.Report
	// PeriodBlame is one denied period's wait, split across blockers.
	PeriodBlame = blame.PeriodBlame
	// InterferenceCell is one (blocker process, waiting process) total.
	InterferenceCell = blame.MatrixCell
	// CriticalPath splits a run's makespan into run / blamed wait /
	// unattributed wait / idle segments.
	CriticalPath = blame.Path
	// SLOConfig is an admission-latency objective with burn-rate
	// alerting windows.
	SLOConfig = blame.SLOConfig
	// SLOMonitor evaluates an SLOConfig over the decision stream.
	SLOMonitor = blame.SLOMonitor
	// SLOResult is the evaluation: breach counts, alert count, and the
	// multi-window burn-rate timeline.
	SLOResult = blame.SLOResult
	// ObsReportMeta labels the HTML observability report.
	ObsReportMeta = blame.ReportMeta
)

// NewBlameCollector returns an empty attribution collector to pass to
// Scheduler.AddSink; call Finish then Report after the run.
func NewBlameCollector() *BlameCollector { return blame.NewCollector() }

// DefaultSLOConfig returns the default admission-latency objective
// (50 ms at the 95th percentile, 1 s and 5 s burn windows, alert at 2x).
func DefaultSLOConfig() SLOConfig { return blame.DefaultSLOConfig() }

// NewSLOMonitor returns a monitor for cfg to pass to Scheduler.AddSink;
// call Result after the run. The configuration is validated.
func NewSLOMonitor(cfg SLOConfig) (*SLOMonitor, error) { return blame.NewSLOMonitor(cfg) }

// WriteObservabilityHTML renders a blame report and an optional SLO
// result (nil to omit) as one self-contained HTML document: summary
// cards, critical-path bar, interference heatmap, top waiters, and the
// burn-rate timeline, with the raw payload embedded as JSON.
func WriteObservabilityHTML(w io.Writer, meta ObsReportMeta, rpt *BlameReport, slo *SLOResult) error {
	return blame.WriteHTML(w, meta, rpt, slo)
}

// Live introspection: an embeddable HTTP server exposing a running
// measurement's telemetry (/metrics), decision stream (/events, SSE),
// canonical state (/state), wait attribution (/blame), health probes,
// and pprof. Attach it through RunConfig.Obsrv; throttle virtual time
// against the wall clock with RunConfig.Pace. Observation never changes
// results: every endpoint serves non-blocking copies.
type (
	// ObsrvConfig configures the introspection server (listen address,
	// state publication period).
	ObsrvConfig = obsrv.Config
	// ObsrvServer is a live introspection endpoint.
	ObsrvServer = obsrv.Server
)

// Serve binds the introspection server and starts serving; pass the
// returned server as RunConfig.Obsrv and Close it when done.
func Serve(cfg ObsrvConfig) (*ObsrvServer, error) { return obsrv.Serve(cfg) }

// ParsePace parses the CLI pacing syntax ("max", "1x", "10x", "0.5x")
// into a RunConfig.Pace ratio.
func ParsePace(s string) (float64, error) { return obsrv.ParsePace(s) }

// ErrRunStopped: the run was halted by ObsrvServer.RequestStop (the
// CLIs' SIGTERM path); a clean, intentional end (errors.Is).
var ErrRunStopped = perf.ErrStopped

// Table2 returns the paper's eight workloads.
func Table2() []Workload { return workloads.Table2() }

// WorkloadByName looks a Table 2 workload up by name.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// Run measures a workload under a scheduling configuration, averaging
// repetitions, and returns mean and standard-deviation metrics. A nil
// policy selects the Linux-default baseline: the workload runs
// uninstrumented (Declared flags stripped, no admission control).
func Run(w Workload, rc RunConfig) (mean, stddev Metrics, err error) {
	return perf.Run(w, rc)
}

// NewScheduledMachine wires the standard stack: a machine with the given
// config whose declared phases are gated by a fresh RDA scheduler running
// the given policy, bound as Run binds it: to the machine's clock (event
// times, waits, blame), its event engine (leases, admission deadlines,
// the governor's tick) and its memory bandwidth. It returns both so
// callers can add workloads and inspect the scheduler after the run.
func NewScheduledMachine(cfg MachineConfig, policy Policy) (*Machine, *Scheduler) {
	s := core.New(policy, cfg.LLCCapacity)
	s.Resources().SetCapacity(pp.ResourceMemBW, pp.Bytes(cfg.MemBandwidth))
	m := machine.New(cfg, s)
	s.SetWaker(m)
	s.SetClock(m.Now)
	s.SetTimer(m.Engine())
	return m, s
}
