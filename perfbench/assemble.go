package main

import (
	"errors"
	"fmt"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/perf"
	"rdasched/internal/persist"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/runner"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
	"rdasched/internal/telemetry/blame"
	"rdasched/internal/telemetry/trace"
)

// gate is the scheduler surface the traced assembly drives; both
// *core.Scheduler and *core.DomainSet provide it.
type gate interface {
	machine.Gate
	SetWaker(core.Waker)
	SetClock(core.Clock)
	SetTimer(core.Timer)
	SetLease(sim.Duration)
	SetAdmissionDeadline(sim.Duration)
	EnableGovernor(core.GovernorConfig)
	SetMetrics(*telemetry.Registry)
	AddSink(core.EventSink)
	SetReplaySink(core.ReplaySink)
	ExportState() core.State
	Quiesce() int
	Stats() core.Stats
	GovernorStats() core.GovernorStats
	PublishStats(*telemetry.Registry)
}

// tracedSample measures (w, rc) exactly as perf.Sample(w, rc, 0) does,
// as every harness samples each replication, but assembled here from the layers' public constructors with a
// timing decorator on every interface between them. perf.Sample is the
// reference: the traced run checks that both return the same metrics.
// Restore, Obsrv and Pace are not reassembled; the traced cells do not
// use them.
func tracedSample(w proc.Workload, rc perf.RunConfig, tr *tracer, c *counts) (m perf.Metrics, err error) {
	if rc.Restore != nil || rc.Obsrv != nil || rc.Pace > 0 {
		return perf.Metrics{}, fmt.Errorf("traced assembly does not support restore, obsrv or pace")
	}
	if err := w.Validate(); err != nil {
		return perf.Metrics{}, err
	}
	if rc.Faults != nil && rc.Faults.Enabled() {
		w = rc.Faults.Apply(w, runner.Seed(rc.Seed+0xfa17, 0))
	}
	if rc.JitterFrac > 0 {
		w = jitter(w, rc.JitterFrac, sim.NewRNG(runner.Seed(rc.Seed+0x5eed, 0)))
	}
	cfg := rc.Machine
	cfg.Seed = rc.Seed * 1000
	if rc.Policy == nil {
		w = perf.Undeclare(w)
	}

	var g gate
	var dset *core.DomainSet
	tr.in(layerUpkeep, func() { g, dset, err = newGate(rc, cfg) })
	if err != nil {
		return perf.Metrics{}, err
	}
	var mg machine.Gate
	if g != nil {
		mg = &tracedGate{g: g, tr: tr, c: c}
	}
	mach := machine.New(cfg, mg)
	eng := mach.Engine()
	eng.SetStepHook(c.stepHook(eng))

	var reg *telemetry.Registry
	var col *trace.Collector
	var bcol *blame.Collector
	var smon *blame.SLOMonitor
	if g != nil {
		g.SetWaker(tracedWaker{w: mach, tr: tr, c: c})
		g.SetClock(mach.Now)
		g.SetTimer(tracedTimer{t: eng, tr: tr, c: c})
		g.SetLease(rc.Lease)
		g.SetAdmissionDeadline(rc.AdmitDeadline)
		if rc.Governor != nil {
			g.EnableGovernor(*rc.Governor)
		}
		if rc.Telemetry {
			reg = telemetry.NewRegistry()
			g.SetMetrics(reg)
		}
		if rc.Trace {
			col = trace.NewCollector()
			g.AddSink(traceSink(col, tr, c))
		}
		if rc.Blame {
			bcol = blame.NewCollector()
			g.AddSink(traceSink(bcol, tr, c))
		}
		if rc.SLO != nil {
			if smon, err = blame.NewSLOMonitor(*rc.SLO); err != nil {
				return perf.Metrics{}, err
			}
			g.AddSink(traceSink(smon, tr, c))
		}
	}
	killAt := sim.Duration(0)
	if rc.Faults != nil && rc.Faults.KillAt > 0 {
		killAt = rc.Faults.KillAt
		eng.After(killAt, eng.Halt)
	}
	if dset != nil && rc.Faults != nil && len(rc.Faults.DomainFaults) > 0 {
		if err := armDomainFaults(dset, eng, rc.Faults.DomainFaults, tr); err != nil {
			return perf.Metrics{}, err
		}
	}
	var cp *persist.Checkpointer
	if rc.Checkpoint != nil {
		if g == nil || (rc.Faults != nil && len(rc.Faults.DomainFaults) > 0) {
			return perf.Metrics{}, fmt.Errorf("traced assembly: checkpoint needs a policy and no domain faults")
		}
		tr.in(layerPersist, func() { cp, err = persist.Attach(*rc.Checkpoint, g, killAt) })
		if err != nil {
			return perf.Metrics{}, err
		}
		g.SetReplaySink(&tracedReplay{r: cp, tr: tr, c: c})
	}
	if err := mach.AddWorkload(w); err != nil {
		return perf.Metrics{}, err
	}

	tr.begin(layerMachine)
	res, err := mach.Run()
	tr.end()
	c.machineRuns++
	if err != nil {
		if errors.Is(err, machine.ErrHalted) && cp != nil {
			if cerr := closeCheckpoint(cp, tr, c); cerr != nil {
				return perf.Metrics{}, cerr
			}
		}
		return perf.Metrics{}, fmt.Errorf("process killed at %v: %w", mach.Now(), err)
	}

	var rob core.Stats
	var gov core.GovernorStats
	if g != nil {
		tr.in(layerUpkeep, func() {
			g.Quiesce()
			rob = g.Stats()
			gov = g.GovernorStats()
			if reg != nil {
				g.PublishStats(reg)
			}
		})
		if col != nil {
			tr.in(layerSinks, func() { col.Finish(mach.Now()) })
		}
	}
	var spans []trace.Span
	if col != nil {
		spans = col.Spans()
	}
	var brpt *blame.Report
	var slo *blame.SLOResult
	if bcol != nil {
		tr.in(layerSinks, func() {
			bcol.Finish(mach.Now())
			brpt = bcol.Report()
			brpt.Publish(reg)
		})
	}
	if smon != nil {
		tr.in(layerSinks, func() {
			slo = smon.Result()
			slo.Publish(reg)
		})
	}
	var dst core.DomainStats
	var rst core.RecoveryStats
	if dset != nil {
		dst = dset.DomainStats()
		rst = dset.RecoveryStats()
	}
	if cp != nil {
		if err := closeCheckpoint(cp, tr, c); err != nil {
			return perf.Metrics{}, err
		}
		if reg != nil {
			cp.Publish(reg)
		}
	}
	return perf.Metrics{
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

// closeCheckpoint flushes the journal and records what it wrote.
func closeCheckpoint(cp *persist.Checkpointer, tr *tracer, c *counts) error {
	var err error
	tr.in(layerPersist, func() { err = cp.Close() })
	st := cp.Stats()
	c.persistBytes += int64(st.JournalBytes + st.SnapshotBytes)
	return err
}

// newGate builds the admission gate perf builds for rc (nil for the
// uninstrumented baseline).
func newGate(rc perf.RunConfig, cfg machine.Config) (gate, *core.DomainSet, error) {
	if rc.Policy == nil {
		return nil, nil, nil
	}
	if rc.Domains >= 1 {
		dcfg := core.DomainConfig{Domains: rc.Domains, StealAge: rc.StealAge}
		if rc.StealAge < 0 {
			dcfg.StealAge, dcfg.DisableSteal = 0, true
		}
		dset, err := core.NewDomainSet(rc.Policy, cfg.LLCCapacity, dcfg)
		if err != nil {
			return nil, nil, err
		}
		dset.SetResourceCapacity(pp.ResourceMemBW, pp.Bytes(cfg.MemBandwidth))
		if rc.Reserve > 0 {
			dset.SetReserve(rc.Reserve)
		}
		if rc.Faults != nil && len(rc.Faults.DomainFaults) > 0 {
			rcfg := core.DefaultRecoveryConfig()
			if rc.Recovery != nil {
				rcfg = *rc.Recovery
			}
			if err := dset.EnableRecovery(rcfg); err != nil {
				return nil, nil, err
			}
		}
		return dset, dset, nil
	}
	s := core.New(rc.Policy, cfg.LLCCapacity)
	s.Resources().SetCapacity(pp.ResourceMemBW, pp.Bytes(cfg.MemBandwidth))
	if rc.Reserve > 0 {
		s.SetReserve(rc.Reserve)
	}
	return s, nil, nil
}

// armDomainFaults schedules a plan's domain faults on the engine, as
// perf does, with each injection and recovery timed as core upkeep.
func armDomainFaults(dset *core.DomainSet, eng *sim.Engine, dfs []faults.DomainFault, tr *tracer) error {
	for i, df := range dfs {
		if df.Domain < 0 || df.Domain >= dset.NumDomains() {
			return fmt.Errorf("domain fault %d targets domain %d of %d", i, df.Domain, dset.NumDomains())
		}
		if df.At <= 0 {
			return fmt.Errorf("domain fault %d at non-positive time %v", i, df.At)
		}
		eng.After(df.At, func() {
			var err error
			tr.in(layerUpkeep, func() {
				switch df.Kind {
				case faults.DomainCapacityLoss:
					err = dset.InjectCapacityLoss(df.Domain, df.Frac)
				case faults.DomainCrash:
					err = dset.InjectCrash(df.Domain)
				case faults.DomainLedgerSkew:
					err = dset.InjectLedgerCorruption(df.Domain, df.Skew)
				}
			})
			if err != nil {
				panic(fmt.Sprintf("domain fault injection: %v", err))
			}
		})
		if df.Heal > 0 && df.Kind != faults.DomainLedgerSkew {
			eng.After(df.At+df.Heal, func() {
				var err error
				tr.in(layerUpkeep, func() { err = dset.RecoverDomain(df.Domain) })
				if err != nil {
					panic(fmt.Sprintf("domain recovery: %v", err))
				}
			})
		}
	}
	return nil
}

// jitter perturbs each phase's instruction count by a uniform factor in
// [1-frac, 1+frac], drawing from rng in the order perf draws.
func jitter(w proc.Workload, frac float64, rng *sim.RNG) proc.Workload {
	out := proc.Workload{Name: w.Name, Procs: make([]proc.Spec, len(w.Procs))}
	for i, s := range w.Procs {
		cs := s
		cs.Program = make(proc.Program, len(s.Program))
		copy(cs.Program, s.Program)
		for j := range cs.Program {
			f := 1 + frac*(2*rng.Float64()-1)
			cs.Program[j].Instr *= f
		}
		out.Procs[i] = cs
	}
	return out
}
