package perf

import (
	"errors"
	"math"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/persist"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry/blame"
)

// TestValidate holds one rejected row per Validate rule and per rule of
// the nested governor config, each of which Sample and Run must refuse
// too, and one accepted row per configuration shape the experiment
// harnesses, the rdasched CLI and the repository benchmark build.
func TestValidate(t *testing.T) {
	llc := machine.DefaultConfig().LLCCapacity
	strict := func(edit func(*RunConfig)) RunConfig {
		rc := RunConfig{Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{}}
		edit(&rc)
		return rc
	}
	baseline := func(edit func(*RunConfig)) RunConfig {
		rc := RunConfig{Machine: machine.DefaultConfig()}
		edit(&rc)
		return rc
	}
	crash := func(domain int, at sim.Duration) *faults.Plan {
		return &faults.Plan{DomainFaults: []faults.DomainFault{
			{Kind: faults.DomainCrash, Domain: domain, At: at, Heal: at}}}
	}
	ms := sim.Millisecond
	slo := blame.DefaultSLOConfig()
	gov := core.DefaultGovernorConfig()
	rcfg := core.DefaultRecoveryConfig()
	uniform := faults.Uniform(0.15, llc)
	killed := &persist.Restored{KillAt: sim.FromSeconds(1)}
	governed := func(edit func(*core.GovernorConfig)) RunConfig {
		g := core.DefaultGovernorConfig()
		edit(&g)
		return strict(func(rc *RunConfig) { rc.Governor = &g })
	}

	rejected := []struct {
		name string
		rc   RunConfig
		also error // a nested sentinel the error must wrap as well
	}{
		// Out of range.
		{"negative-repetitions", strict(func(rc *RunConfig) { rc.Repetitions = -1 }), nil},
		{"negative-jobs", strict(func(rc *RunConfig) { rc.Jobs = -1 }), nil},
		{"negative-domains", strict(func(rc *RunConfig) { rc.Domains = -1 }), nil},
		{"negative-pace", strict(func(rc *RunConfig) { rc.Pace = -1 }), nil},
		{"negative-steal-age", strict(func(rc *RunConfig) { rc.Domains, rc.StealAge = 2, -ms }), nil},
		{"negative-lease", strict(func(rc *RunConfig) { rc.Lease = -ms }), nil},
		{"negative-admit-deadline", strict(func(rc *RunConfig) { rc.AdmitDeadline = -ms }), nil},
		{"negative-kill-at", strict(func(rc *RunConfig) { rc.Faults = &faults.Plan{KillAt: -1} }), nil},
		{"negative-reserve", strict(func(rc *RunConfig) { rc.Reserve = -1 }), nil},
		{"reserve-above-llc", strict(func(rc *RunConfig) { rc.Reserve = llc + 1 }), nil},
		{"negative-jitter", strict(func(rc *RunConfig) { rc.JitterFrac = -0.01 }), nil},
		{"jitter-one", strict(func(rc *RunConfig) { rc.JitterFrac = 1 }), nil},
		{"jitter-nan", strict(func(rc *RunConfig) { rc.JitterFrac = math.NaN() }), nil},

		// Needs a Policy.
		{"reserve-without-policy", baseline(func(rc *RunConfig) { rc.Reserve = llc / 8 }), nil},
		{"lease-without-policy", baseline(func(rc *RunConfig) { rc.Lease = ms }), nil},
		{"deadline-without-policy", baseline(func(rc *RunConfig) { rc.AdmitDeadline = ms }), nil},
		{"governor-without-policy", baseline(func(rc *RunConfig) { rc.Governor = &gov }), nil},
		{"domains-without-policy", baseline(func(rc *RunConfig) { rc.Domains = 2 }), nil},
		{"telemetry-without-policy", baseline(func(rc *RunConfig) { rc.Telemetry = true }), nil},
		{"trace-without-policy", baseline(func(rc *RunConfig) { rc.Trace = true }), nil},
		{"blame-without-policy", baseline(func(rc *RunConfig) { rc.Blame = true }), nil},
		{"slo-without-policy", baseline(func(rc *RunConfig) { rc.SLO = &slo }), nil},
		{"checkpoint-without-policy", baseline(func(rc *RunConfig) {
			rc.Checkpoint = &persist.Config{Dir: t.TempDir()}
		}), nil},
		{"restore-without-policy", baseline(func(rc *RunConfig) { rc.Restore = killed }), nil},

		// Needs Domains >= 2.
		{"steal-age-unsharded", strict(func(rc *RunConfig) { rc.StealAge = ms }), nil},
		{"steal-age-one-domain", strict(func(rc *RunConfig) { rc.Domains, rc.StealAge = 1, ms }), nil},
		{"domain-faults-unsharded", strict(func(rc *RunConfig) { rc.Faults = crash(0, ms) }), nil},
		{"domain-faults-one-domain", strict(func(rc *RunConfig) { rc.Domains, rc.Faults = 1, crash(0, ms) }), nil},
		{"domain-fault-past-last-domain", strict(func(rc *RunConfig) { rc.Domains, rc.Faults = 2, crash(2, ms) }), nil},
		{"domain-fault-negative-domain", strict(func(rc *RunConfig) { rc.Domains, rc.Faults = 2, crash(-1, ms) }), nil},
		{"domain-fault-at-zero", strict(func(rc *RunConfig) { rc.Domains, rc.Faults = 2, crash(0, 0) }), nil},

		// Needs domain faults.
		{"recovery-without-domain-faults", strict(func(rc *RunConfig) { rc.Domains, rc.Recovery = 2, &rcfg }), nil},

		// Persistence.
		{"checkpoint-and-restore", strict(func(rc *RunConfig) {
			rc.Checkpoint, rc.Restore = &persist.Config{Dir: t.TempDir()}, killed
		}), nil},
		{"checkpoint-with-domain-faults", strict(func(rc *RunConfig) {
			rc.Domains, rc.Faults, rc.Checkpoint = 2, crash(0, ms), &persist.Config{Dir: t.TempDir()}
		}), nil},
		{"restore-with-domain-faults", strict(func(rc *RunConfig) {
			rc.Domains, rc.Faults, rc.Restore = 2, crash(0, ms), killed
		}), nil},
		{"restore-multi-rep", strict(func(rc *RunConfig) { rc.Repetitions, rc.Restore = 2, killed }), nil},
		{"restore-without-kill", strict(func(rc *RunConfig) { rc.Restore = &persist.Restored{} }), nil},

		// Nested configurations.
		{"invalid-slo", strict(func(rc *RunConfig) { rc.SLO = &blame.SLOConfig{Target: 0.9} }), nil},
		{"invalid-checkpoint", strict(func(rc *RunConfig) { rc.Checkpoint = &persist.Config{} }), nil},
		{"invalid-recovery", strict(func(rc *RunConfig) {
			bad := rcfg
			bad.MaxRetries = -1
			rc.Domains, rc.Faults, rc.Recovery = 2, crash(0, ms), &bad
		}), core.ErrInvalidRecoveryConfig},
		// Nested governor configuration, one row per rule.
		{"governor-zero-value", governed(func(c *core.GovernorConfig) { *c = core.GovernorConfig{} }), nil},
		{"governor-zero-degrade-depth", governed(func(c *core.GovernorConfig) { c.DegradeDepth = 0 }), nil},
		{"governor-shed-below-degrade", governed(func(c *core.GovernorConfig) { c.ShedDepth = c.DegradeDepth - 1 }), nil},
		{"governor-zero-strikes", governed(func(c *core.GovernorConfig) { c.Strikes = 0 }), nil},
		{"governor-factor-one", governed(func(c *core.GovernorConfig) { c.MisdeclareFactor = 1 }), nil},
		{"governor-zero-window", governed(func(c *core.GovernorConfig) { c.Window = 0 }), nil},
		{"governor-negative-hold", governed(func(c *core.GovernorConfig) { c.RecoverHold = -ms }), nil},
		{"governor-fractional-tighten", governed(func(c *core.GovernorConfig) { c.LeaseTighten = 0.5 }), nil},
	}
	for _, tc := range rejected {
		t.Run("rejects/"+tc.name, func(t *testing.T) {
			err := tc.rc.Validate()
			if !errors.Is(err, ErrInvalidRunConfig) {
				t.Fatalf("Validate = %v, want ErrInvalidRunConfig", err)
			}
			if tc.also != nil && !errors.Is(err, tc.also) {
				t.Fatalf("Validate = %v, want it to wrap %v too", err, tc.also)
			}
			if _, err := Sample(tinyWorkload(2, true), tc.rc, 0); !errors.Is(err, ErrInvalidRunConfig) {
				t.Fatalf("Sample = %v, want ErrInvalidRunConfig", err)
			}
			if _, _, err := Run(tinyWorkload(2, true), tc.rc); !errors.Is(err, ErrInvalidRunConfig) {
				t.Fatalf("Run = %v, want ErrInvalidRunConfig", err)
			}
		})
	}

	accepted := []struct {
		name string
		rc   RunConfig
	}{
		{"zero-baseline", baseline(func(*RunConfig) {})},
		{"paper-figs-baseline", baseline(func(rc *RunConfig) { rc.Repetitions, rc.JitterFrac, rc.Seed = 4, 0.02, 7 })},
		{"chaos-baseline", baseline(func(rc *RunConfig) { rc.Repetitions, rc.Faults = 4, &uniform })},
		{"paced-baseline", baseline(func(rc *RunConfig) { rc.Pace, rc.Jobs = 10, 4 })},
		{"paper-figs-compromise", RunConfig{Machine: machine.DefaultConfig(), Policy: core.NewCompromise(),
			Repetitions: 4, JitterFrac: 0.02}},
		{"reserve", strict(func(rc *RunConfig) { rc.Reserve = llc / 8 })},
		{"chaos-governed", strict(func(rc *RunConfig) {
			rc.Lease, rc.AdmitDeadline, rc.Governor, rc.Faults, rc.Telemetry = 4*ms, 3*ms, &gov, &uniform, true
		})},
		{"domains-one", strict(func(rc *RunConfig) { rc.Domains, rc.Telemetry = 1, true })},
		{"domains-steal", strict(func(rc *RunConfig) { rc.Domains, rc.StealAge = 4, ms })},
		{"heal", strict(func(rc *RunConfig) {
			rc.Lease, rc.AdmitDeadline, rc.Governor = 4*ms, 3*ms, &gov
			rc.Domains, rc.StealAge, rc.Recovery, rc.Faults = 2, ms, &rcfg, crash(1, 2*ms)
		})},
		{"domain-faults-default-recovery", strict(func(rc *RunConfig) { rc.Domains, rc.Faults = 2, crash(0, ms) })},
		{"observed", strict(func(rc *RunConfig) {
			rc.JitterFrac, rc.Telemetry, rc.Trace, rc.Blame, rc.SLO = 0.02, true, true, true, &slo
		})},
		{"checkpoint-killed", strict(func(rc *RunConfig) {
			rc.Domains, rc.StealAge, rc.Telemetry = 4, ms, true
			rc.Faults = &faults.Plan{KillAt: 50 * ms}
			rc.Checkpoint = &persist.Config{Dir: t.TempDir(), Every: 5 * ms}
		})},
		{"checkpoint-multi-rep", strict(func(rc *RunConfig) {
			rc.Repetitions, rc.Jobs = 2, 2
			rc.Checkpoint = &persist.Config{Dir: t.TempDir()}
		})},
		{"restore", strict(func(rc *RunConfig) { rc.Repetitions, rc.Domains, rc.StealAge, rc.Restore = 1, 4, ms, killed })},
	}
	for _, tc := range accepted {
		t.Run("accepts/"+tc.name, func(t *testing.T) {
			if err := tc.rc.Validate(); err != nil {
				t.Fatalf("Validate = %v, want nil", err)
			}
		})
	}
}
