package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/runner"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
	"rdasched/internal/telemetry/trace"
)

// The single-domain contract: perf runs every scheduled configuration
// through a core.DomainSet, and a one-domain set is pure delegation — no
// placer, no steal scan, no domain events or metrics — so it must decide
// exactly what the bare core.Scheduler decides. This differential suite
// drives both implementations through the same machine wiring and pins
// the decision stream, the telemetry expositions and the Chrome trace
// byte-identical across the feature matrix the experiments exercise:
// plain admission (E1-style), faults + lease + admission deadline
// (E4-style), the governor (E5-style) and a compromise policy with an
// LLC reserve.

// domainDiffConfigs enumerates the compared feature mixes. Every config
// has two jittered repetitions, each compared on its own.
func domainDiffConfigs() []struct {
	name string
	rc   RunConfig
} {
	base := func() RunConfig {
		return RunConfig{
			Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{},
			Repetitions: 2, JitterFrac: 0.02, Seed: 11,
			Telemetry: true, Trace: true,
		}
	}
	plain := base()

	chaos := base()
	plan := faults.Uniform(0.3, chaos.Machine.LLCCapacity)
	plan.BurstWaves = 2
	chaos.Faults = &plan
	chaos.Lease = sim.FromSeconds(0.004)
	chaos.AdmitDeadline = sim.FromSeconds(0.003)

	governed := base()
	gcfg := core.DefaultGovernorConfig()
	gcfg.Window = sim.FromSeconds(0.001)
	gcfg.DegradeHold = sim.FromSeconds(0.0005)
	gcfg.RecoverHold = sim.FromSeconds(0.0005)
	governed.Governor = &gcfg
	governed.Lease = sim.FromSeconds(0.004)

	compromise := base()
	compromise.Policy = core.NewCompromise()
	compromise.Reserve = chaos.Machine.LLCCapacity / 8

	return []struct {
		name string
		rc   RunConfig
	}{
		{"plain-strict", plain},
		{"faults-lease-deadline", chaos},
		{"governor", governed},
		{"compromise-reserve", compromise},
	}
}

// diffWorkload oversubscribes the LLC and the DRAM roofline, so every
// gate setting changes what is admitted when: sixteen single-thread
// processes of staggered length each declare a quarter of the Table 1
// LLC (four fit under Strict, fewer with a reserve), and every other
// one declares 4 GB/s of the 14 GB/s memory bandwidth.
func diffWorkload() proc.Workload {
	w := proc.Workload{Name: "domain-diff"}
	for i := 0; i < 16; i++ {
		ph := proc.Phase{
			Name: fmt.Sprintf("k%d", i), Instr: 2e7 * (1 + 0.15*float64(i)), WSS: pp.KB(3840),
			Reuse: pp.ReuseHigh, AccessesPerInstr: 0.5, PrivateHitFrac: 0.7, FlopsPerInstr: 0.2,
			Declared: true,
		}
		if i%2 == 1 {
			ph.BWDemand = 4e9
		}
		w.Procs = append(w.Procs, proc.Spec{Name: ph.Name, Threads: 1, Program: proc.Program{ph}})
	}
	return w
}

// stack is the gate surface the differential drives; *core.Scheduler
// and *core.DomainSet both provide it.
type stack interface {
	machine.Gate
	SetWaker(core.Waker)
	SetClock(core.Clock)
	SetTimer(core.Timer)
	SetLease(sim.Duration)
	SetAdmissionDeadline(sim.Duration)
	EnableGovernor(core.GovernorConfig)
	SetMetrics(*telemetry.Registry)
	AddSink(core.EventSink)
	Quiesce() int
	PublishStats(*telemetry.Registry)
}

// unshardedGate configures a bare core.Scheduler the way newGate
// configures a one-domain set: the oracle the set must reproduce.
func unshardedGate(t *testing.T, rc RunConfig, cfg machine.Config) stack {
	s := core.New(rc.Policy, cfg.LLCCapacity)
	s.Resources().SetCapacity(pp.ResourceMemBW, pp.Bytes(cfg.MemBandwidth))
	if rc.Reserve > 0 {
		s.SetReserve(rc.Reserve)
	}
	return s
}

// singleDomainGate is perf's own gate for rc at Domains=0.
func singleDomainGate(t *testing.T, rc RunConfig, cfg machine.Config) stack {
	d, err := newGate(rc)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumDomains() != 1 {
		t.Fatalf("newGate built %d domains, want 1", d.NumDomains())
	}
	return d
}

// decisionLog renders every admission event, all fields, one JSON line
// each.
type decisionLog struct{ bytes.Buffer }

func (l *decisionLog) Record(e core.Event) {
	if err := json.NewEncoder(&l.Buffer).Encode(e); err != nil {
		panic(err)
	}
}

// domainDiffArtifacts runs repetition rep of rc on a machine gated by
// the stack build returns, wired the way perf wires its gate, and
// renders every comparable artifact to bytes: the decision stream, the
// machine result, the registry's JSON and Prometheus expositions, and
// the Chrome trace.
func domainDiffArtifacts(t *testing.T, rc RunConfig, rep int, build func(*testing.T, RunConfig, machine.Config) stack) map[string][]byte {
	t.Helper()
	w := diffWorkload()
	if rc.Faults != nil {
		w = rc.Faults.Apply(w, runner.Seed(rc.Seed+0xfa17, uint64(rep)))
	}
	w = jitter(w, rc.JitterFrac, sim.NewRNG(runner.Seed(rc.Seed+0x5eed, uint64(rep))))
	cfg := rc.Machine
	g := build(t, rc, cfg)
	m := machine.New(cfg, g)
	g.SetWaker(m)
	g.SetClock(m.Now)
	g.SetTimer(m.Engine())
	g.SetLease(rc.Lease)
	g.SetAdmissionDeadline(rc.AdmitDeadline)
	if rc.Governor != nil {
		g.EnableGovernor(*rc.Governor)
	}
	reg := telemetry.NewRegistry()
	g.SetMetrics(reg)
	col := trace.NewCollector()
	g.AddSink(col)
	var log decisionLog
	g.AddSink(&log)
	if err := m.AddWorkload(w); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	g.Quiesce()
	g.PublishStats(reg)
	col.Finish(m.Now())

	rb, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var tj, tp, tr bytes.Buffer
	if err := reg.WriteJSON(&tj); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&tp); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChrome(&tr, col.Spans()); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"decisions.jsonl": log.Bytes(),
		"result.json":     rb,
		"telemetry.json":  tj.Bytes(),
		"telemetry.prom":  tp.Bytes(),
		"trace.json":      tr.Bytes(),
	}
}

func TestSingleDomainByteIdentical(t *testing.T) {
	for _, cfg := range domainDiffConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			for rep := 0; rep < cfg.rc.Reps(); rep++ {
				want := domainDiffArtifacts(t, cfg.rc, rep, unshardedGate)
				got := domainDiffArtifacts(t, cfg.rc, rep, singleDomainGate)
				if len(want["decisions.jsonl"]) == 0 {
					t.Fatal("no admission decisions recorded")
				}
				for name, w := range want {
					if g := got[name]; !bytes.Equal(g, w) {
						t.Errorf("rep %d: %s differs between core.New and a one-domain DomainSet:\n--- core.New ---\n%s\n--- DomainSet ---\n%s",
							rep, name, w, g)
					}
				}
			}
		})
	}
}

// TestMultiDomainDiverges is the differential suite's sanity check: at
// Domains=2 the same config must NOT be a silent no-op — the placer has
// to make decisions (placements > 0) even if the schedule happens to
// coincide.
func TestMultiDomainDiverges(t *testing.T) {
	rc := domainDiffConfigs()[0].rc
	rc.Domains = 2
	mean, _, err := Run(tinyWorkload(10, true), rc)
	if err != nil {
		t.Fatal(err)
	}
	// 10 procs × 1 declared period each, averaged over the repetitions.
	if mean.DomainPlacements != 10 {
		t.Fatalf("placements = %.0f, want 10 (one per declared period)", mean.DomainPlacements)
	}
	if mean.Telemetry.Counter(core.MetricDomainPlacements).Value() == 0 {
		t.Fatal("rda_domain_placements_total not published at Domains=2")
	}
}
