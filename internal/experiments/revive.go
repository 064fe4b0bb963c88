package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"rdasched/internal/core"
	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/perf"
	"rdasched/internal/persist"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/report"
	"rdasched/internal/runner"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
)

// E9 — crash-restart revival. The persist layer (admission journal +
// state snapshots, internal/persist) claims that a run killed
// mid-schedule can be restored and resumed such that the remainder of
// the schedule is byte-identical to a run that was never killed. This
// harness kills the process at K points of the virtual schedule, under
// both admission policies, sharded and not, and pins exactly that:
//
//	for every cell:  metrics(baseline)  ==  metrics(kill; restore; resume)
//
// compared through the canonical JSON encoding of the final metrics —
// the same representation the other goldens rest on. Each cell runs
// three times: the uninterrupted baseline; the killed run, which halts
// at the armed process death (machine.ErrHalted) leaving only the
// checkpoint directory behind; and the revival run, which loads the
// last valid snapshot, replays the journal suffix, re-executes the
// prefix deterministically, checks the gate's state at the kill
// byte-for-byte against the restored one, and resumes on that same
// gate. The "identical" column is the experiment's verdict; the
// journal/snapshot/replay columns are the provenance the rda_persist_*
// telemetry family reports.

// ReviveKillFracs sweeps when the process dies, as a fraction of the
// cell's measured baseline makespan: early (the admission pile-up is
// at its deepest) and late (waitlists partly drained, leases mid-term).
var ReviveKillFracs = []float64{0.25, 0.6}

// ReviveDomainCounts sweeps the sharding: a single-domain set and a
// four-way split with cross-domain steals live at the kill point.
var ReviveDomainCounts = []int{1, 4}

// revivePolicies are the admission policies the revival must survive:
// the two RDA policies.
var revivePolicies = Policies()[1:]

// reviveSpec is a heal-mix process behind a streaming arrival ramp: the
// ramp delays the declared period's begin without touching the LLC, so
// successive processes arrive at the gate spread across the run rather
// than in one burst at t=0.
func reviveSpec(name string, wss pp.Bytes, instr, ramp float64) proc.Spec {
	s := healSpec(name, wss, instr)
	if ramp > 0 {
		arrive := proc.Phase{
			Name: name + "-arrive", Instr: ramp, WSS: pp.KB(64), Reuse: pp.ReuseLow,
			AccessesPerInstr: 0.2, PrivateHitFrac: 0.95, StreamFrac: 1.0,
		}
		s.Program = append(proc.Program{arrive}, s.Program...)
	}
	return s
}

// ReviveWorkload builds the E9 mix: twelve single-thread processes each
// declaring a quarter of the LLC, with staggered arrivals and lengths
// so begins, period ends, waitlist wakes, and the journal records they
// cut spread across the whole run — every kill fraction lands on a live
// mix of admitted periods, armed leases, and ticketed waiters, and
// under every policy some records land between any snapshot cadence
// boundary and the kill.
func ReviveWorkload() proc.Workload {
	w := proc.Workload{Name: "revive-mix"}
	for i := 0; i < 12; i++ {
		w.Procs = append(w.Procs, reviveSpec(fmt.Sprintf("job-%d", i),
			healWSS, 4e8*(1+0.15*float64(i)), 8e7*float64(i)))
	}
	return w
}

// ReviveRow is one (policy, domains, kill fraction) revival.
type ReviveRow struct {
	Policy   string
	Domains  int
	KillFrac float64

	KillAtSec   float64 // virtual time the death was armed at
	BaselineSec float64 // uninterrupted makespan
	RevivedSec  float64 // kill+restore+resume makespan
	Identical   bool    // canonical metrics JSON equal, the E9 verdict

	Records     uint64 // journal records the killed run wrote
	Snapshots   int    // snapshot files in the checkpoint directory
	SnapshotSeq uint64 // journal anchor of the snapshot restore chose
	Replayed    int    // journal records applied on top of it
	Truncated   bool   // journal ended torn (never, for a clean kill)

	Baseline perf.Metrics
	Revived  perf.Metrics
}

// ReviveResult is the E9 dataset.
type ReviveResult struct {
	Workload string
	Rows     []ReviveRow
	// Telemetry merges every revival run's registry in cell order; the
	// rda_persist_* family appears here.
	Telemetry *telemetry.Registry
}

// reviveCell is one sweep point.
type reviveCell struct {
	policy  string
	pol     core.Policy
	domains int
	frac    float64
}

// RunRevive measures every cell of the crash-restart sweep. Cells run
// concurrently on opt.Jobs workers; within a cell the baseline, killed,
// and revival runs are strictly ordered (the kill time derives from the
// baseline makespan, the revival from the killed run's checkpoint).
// It forces one repetition — a checkpoint belongs to a single
// repetition — so the table is fully deterministic at a fixed seed.
// Its runs bypass the cell machinery the other harnesses share, so it
// ignores Repetitions, TraceDir, ObsDir, Obsrv and Pace.
func RunRevive(opt Options) (*ReviveResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.normalized()
	w := scaleWorkload(ReviveWorkload(), opt.Scale)
	lease, deadline := chaosTimeouts(w)
	var cells []reviveCell
	for _, p := range revivePolicies {
		for _, n := range ReviveDomainCounts {
			for _, frac := range ReviveKillFracs {
				cells = append(cells, reviveCell{policy: p.Name, pol: p.Policy, domains: n, frac: frac})
			}
		}
	}
	rows, err := runner.Map(opt.Jobs, len(cells), func(i int) (ReviveRow, error) {
		row, err := runRevival(cells[i], w, opt, lease, deadline, runner.Seed(opt.Seed, uint64(i)))
		if err != nil {
			return ReviveRow{}, fmt.Errorf("%s n %d kill %.2f: %w", cells[i].policy, cells[i].domains, cells[i].frac, err)
		}
		return row, nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res := &ReviveResult{Workload: w.Name, Rows: rows, Telemetry: telemetry.NewRegistry()}
	for i := range rows {
		res.Telemetry.Merge(rows[i].Revived.Telemetry)
	}
	return res, nil
}

// runRevival executes one cell's three-run protocol.
func runRevival(c reviveCell, w proc.Workload, opt Options, lease, deadline sim.Duration, seed uint64) (ReviveRow, error) {
	rc := perf.RunConfig{
		Machine:       opt.Machine,
		Policy:        c.pol,
		Repetitions:   1,
		JitterFrac:    opt.JitterFrac,
		Seed:          seed,
		Lease:         lease,
		AdmitDeadline: deadline,
		Domains:       c.domains,
		Telemetry:     true,
	}
	if c.domains >= 2 {
		rc.StealAge = domainStealAge(w)
	}
	base, err := perf.Sample(w, rc, 0)
	if err != nil {
		return ReviveRow{}, fmt.Errorf("baseline: %w", err)
	}
	killAt := sim.FromSeconds(base.ElapsedSec * c.frac)

	dir, err := os.MkdirTemp("", "rda-e9-")
	if err != nil {
		return ReviveRow{}, err
	}
	defer os.RemoveAll(dir)

	krc := rc
	krc.Faults = &faults.Plan{KillAt: killAt}
	krc.Checkpoint = &persist.Config{Dir: dir, Every: killAt / 8}
	if _, err := perf.Sample(w, krc, 0); !errors.Is(err, machine.ErrHalted) {
		return ReviveRow{}, fmt.Errorf("killed run returned %v, want machine.ErrHalted", err)
	}

	res, err := persist.Restore(dir)
	if err != nil {
		return ReviveRow{}, fmt.Errorf("restore: %w", err)
	}
	rrc := rc
	rrc.Restore = res
	revived, err := perf.Sample(w, rrc, 0)
	if err != nil {
		return ReviveRow{}, fmt.Errorf("revival: %w", err)
	}

	bb, err := json.Marshal(base)
	if err != nil {
		return ReviveRow{}, err
	}
	rb, err := json.Marshal(revived)
	if err != nil {
		return ReviveRow{}, err
	}
	return ReviveRow{
		Policy:   c.policy,
		Domains:  c.domains,
		KillFrac: c.frac,

		KillAtSec:   killAt.Seconds(),
		BaselineSec: base.ElapsedSec,
		RevivedSec:  revived.ElapsedSec,
		Identical:   string(bb) == string(rb),

		Records:     res.Seq,
		Snapshots:   res.Snapshots,
		SnapshotSeq: res.SnapshotSeq,
		Replayed:    res.Replayed,
		Truncated:   res.Truncated,

		Baseline: base,
		Revived:  revived,
	}, nil
}

// Table renders the E9 revival table. Per-resource load ledgers,
// waitlists, and lease expiries all feed the "identical" verdict
// through the metrics encoding; the provenance columns show how much of
// the checked state came from the snapshot and how much from the
// journal.
func (r *ReviveResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("E9: crash-restart revival — journal+snapshot restore vs unkilled run (%s)", r.Workload),
		"policy", "domains", "kill at", "baseline s", "revived s", "identical",
		"records", "snapshots", "snap seq", "replayed", "max wait s")
	for _, row := range r.Rows {
		verdict := "yes"
		if !row.Identical {
			verdict = "DIVERGED"
		}
		if row.Truncated {
			verdict += " (torn)"
		}
		t.AddRow(row.Policy,
			fmt.Sprintf("%d", row.Domains),
			fmt.Sprintf("%.0f%%", row.KillFrac*100),
			fmt.Sprintf("%.3f", row.BaselineSec),
			fmt.Sprintf("%.3f", row.RevivedSec),
			verdict,
			fmt.Sprintf("%d", row.Records),
			fmt.Sprintf("%d", row.Snapshots),
			fmt.Sprintf("%d", row.SnapshotSeq),
			fmt.Sprintf("%d", row.Replayed),
			fmt.Sprintf("%.4f", row.Revived.MaxWaitSec))
	}
	return t
}
