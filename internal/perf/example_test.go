package perf_test

// Each example mirrors one of README's library snippets so that the
// snippets keep compiling. None has an Output comment: go test compiles
// them but does not run them.

import (
	"errors"
	"fmt"
	"log"
	"os"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/perf"
	"rdasched/internal/persist"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
	"rdasched/internal/workloads"
)

// blas3 returns the machine and workload the README snippets call cfg
// and w.
func blas3() (machine.Config, proc.Workload) {
	w, err := workloads.ByName("BLAS-3")
	if err != nil {
		log.Fatal(err)
	}
	return machine.DefaultConfig(), w
}

// Build the stack Run measures and run one workload on it (README
// "Using the library").
func ExampleNewMachine() {
	w, err := workloads.ByName("water_nsq") // a Table 2 workload
	if err != nil {
		log.Fatal(err)
	}
	// Table 1 machine; sched gates its declared phases, bound to the
	// machine's clock, timer and memory bandwidth as perf.Run binds it.
	m, sched, err := perf.NewMachine(perf.RunConfig{
		Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := m.AddWorkload(w); err != nil {
		log.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.SystemJ, res.DRAMJ, res.GFLOPS(), res.GFLOPSPerWatt(), sched.Stats())
}

// Inject misbehaving applications and let leases and the admission
// deadline contain them (README "Chaos experiments").
func ExampleRun_faults() {
	cfg, w := blas3()
	plan := faults.Uniform(0.3, cfg.LLCCapacity)
	mean, _, err := perf.Run(w, perf.RunConfig{
		Machine: cfg, Policy: core.StrictPolicy{},
		Faults:        &plan, // inject misbehavior (nil = clean run)
		Lease:         2e11,  // reclaim un-ended periods after 200 ms
		AdmitDeadline: 1e11,  // fallback-admit waiters after 100 ms
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mean.ReclaimedLeases, mean.FallbackAdmissions, mean.MaxWaitSec)
}

// Govern a faulted run (README "Adaptive admission governor").
func ExampleRun_governor() {
	cfg, w := blas3()
	plan := faults.Uniform(0.3, cfg.LLCCapacity)
	gcfg := core.DefaultGovernorConfig()
	mean, _, err := perf.Run(w, perf.RunConfig{
		Machine: cfg, Policy: core.StrictPolicy{},
		Faults: &plan, Lease: 2e11, AdmitDeadline: 1e11,
		Governor: &gcfg, // nil = ungoverned
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mean.GovernorDegradations, mean.GovernorQuarantines)
}

// Shard the LLC into admission domains (README "Multi-domain
// placement").
func ExampleRun_domains() {
	cfg, w := blas3()
	rc := perf.RunConfig{
		Machine: cfg, Policy: core.StrictPolicy{},
		Domains: 4, // 0 and 1 run one domain; StealAge: 0 selects DefaultStealAge
	}
	mean, _, err := perf.Run(w, rc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mean.DomainPlacements, mean.DomainSteals)

	// Or build the sharded stack and drive its machine yourself:
	m, d, err := perf.NewMachine(rc)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.AddWorkload(w); err != nil {
		log.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println(d.NumDomains(), d.DomainStats().Placements)
}

// Crash a shard mid-run and evacuate it (README "Failure injection and
// self-healing recovery").
func ExampleRun_recovery() {
	cfg, w := blas3()
	at := sim.Duration(5e10)                 // 50 ms of virtual time
	recovery := core.DefaultRecoveryConfig() // .Mode picks evacuate/stall/drop
	mean, _, err := perf.Run(w, perf.RunConfig{
		Machine: cfg, Policy: core.StrictPolicy{}, Domains: 2,
		Faults: &faults.Plan{DomainFaults: []faults.DomainFault{
			{Kind: faults.DomainCrash, Domain: 0, At: at, Heal: at}}},
		Recovery: &recovery,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mean.DomainFailures, mean.Evacuations, mean.AuditRepairs)
}

// Checkpoint a run, kill it, and resume it from disk (README
// "Crash-safe restart").
func ExampleRun_checkpoint() {
	cfg, w := blas3()
	dir, err := os.MkdirTemp("", "rdasched-checkpoint-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rc := perf.RunConfig{Machine: cfg, Policy: core.StrictPolicy{}, Repetitions: 1}
	killAt := sim.Duration(5e10)

	krc := rc
	krc.Faults = &faults.Plan{KillAt: killAt}
	krc.Checkpoint = &persist.Config{Dir: dir, Every: killAt / 4}
	if _, _, err := perf.Run(w, krc); !errors.Is(err, machine.ErrHalted) {
		log.Fatal(err)
	}

	res, err := persist.Restore(dir) // newest snapshot + journal, torn tail truncated
	if err != nil {
		log.Fatal(err)
	}
	rrc := rc
	rrc.Restore = res
	revived, _, err := perf.Run(w, rrc) // byte-identical to the unkilled run
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(revived.ElapsedSec)
}
