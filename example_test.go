package rdasched_test

// Each example mirrors one of README's facade snippets so that the
// snippets keep compiling. None has an Output comment: go test compiles
// them but does not run them.

import (
	"errors"
	"fmt"
	"log"
	"os"

	"rdasched"
)

// blas3 returns the machine and workload the README snippets call cfg
// and w.
func blas3() (rdasched.MachineConfig, rdasched.Workload) {
	w, err := rdasched.WorkloadByName("BLAS-3")
	if err != nil {
		log.Fatal(err)
	}
	return rdasched.DefaultMachine(), w
}

// Wire a scheduled machine and run one workload on it (README "Using
// the library").
func ExampleNewScheduledMachine() {
	w, err := rdasched.WorkloadByName("water_nsq") // a Table 2 workload
	if err != nil {
		log.Fatal(err)
	}
	// Table 1 machine; sched gates its declared phases, bound to the
	// machine's clock and timer as rdasched.Run binds it.
	m, sched := rdasched.NewScheduledMachine(rdasched.DefaultMachine(), rdasched.StrictPolicy{})
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
func ExampleUniformFaults() {
	cfg, w := blas3()
	plan := rdasched.UniformFaults(0.3, cfg.LLCCapacity)
	mean, _, err := rdasched.Run(w, rdasched.RunConfig{
		Machine: cfg, Policy: rdasched.StrictPolicy{},
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
func ExampleDefaultGovernorConfig() {
	cfg, w := blas3()
	plan := rdasched.UniformFaults(0.3, cfg.LLCCapacity)
	gcfg := rdasched.DefaultGovernorConfig()
	mean, _, err := rdasched.Run(w, rdasched.RunConfig{
		Machine: cfg, Policy: rdasched.StrictPolicy{},
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
func ExampleNewDomainSet() {
	cfg, w := blas3()
	mean, _, err := rdasched.Run(w, rdasched.RunConfig{
		Machine: cfg, Policy: rdasched.StrictPolicy{},
		Domains: 4, // 0 and 1 run one domain; StealAge: 0 selects DefaultStealAge
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mean.DomainPlacements, mean.DomainSteals)

	// Or hand-wire a sharded stack where a Scheduler would go:
	d, err := rdasched.NewDomainSet(rdasched.StrictPolicy{}, rdasched.MB(15),
		rdasched.DefaultDomainSetConfig(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(d.NumDomains())
}

// Crash a shard mid-run and evacuate it (README "Failure injection and
// self-healing recovery").
func ExampleDefaultRecoveryConfig() {
	cfg, w := blas3()
	at := rdasched.Duration(5e10)                // 50 ms of virtual time
	recovery := rdasched.DefaultRecoveryConfig() // .Mode picks evacuate/stall/drop
	mean, _, err := rdasched.Run(w, rdasched.RunConfig{
		Machine: cfg, Policy: rdasched.StrictPolicy{}, Domains: 2,
		Faults: &rdasched.FaultPlan{DomainFaults: []rdasched.DomainFault{
			{Kind: rdasched.DomainCrash, Domain: 0, At: at, Heal: at}}},
		Recovery: &recovery,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mean.DomainFailures, mean.Evacuations, mean.AuditRepairs)
}

// Checkpoint a run, kill it, and resume it from disk (README
// "Crash-safe restart").
func ExampleRestore() {
	cfg, w := blas3()
	dir, err := os.MkdirTemp("", "rdasched-checkpoint-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rc := rdasched.RunConfig{Machine: cfg, Policy: rdasched.StrictPolicy{}, Repetitions: 1}
	killAt := rdasched.Duration(5e10)

	krc := rc
	krc.Faults = &rdasched.FaultPlan{KillAt: killAt}
	krc.Checkpoint = &rdasched.CheckpointConfig{Dir: dir, Every: killAt / 4}
	if _, _, err := rdasched.Run(w, krc); !errors.Is(err, rdasched.ErrHalted) {
		log.Fatal(err)
	}

	res, err := rdasched.Restore(dir) // snapshot + journal suffix, torn tail truncated
	if err != nil {
		log.Fatal(err)
	}
	rrc := rc
	rrc.Restore = res
	revived, _, err := rdasched.Run(w, rrc) // byte-identical to the unkilled run
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(revived.ElapsedSec)
}
