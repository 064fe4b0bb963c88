package core

import (
	"fmt"
	"sort"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// Domain fault tolerance. PR 6 made the admission budget shardable;
// this layer makes the shards failure units. Three injectable faults —
// partial capacity loss, full shard crash, ledger corruption — and
// three recovery behaviors around them:
//
//   - Quarantine. A crashed shard goes offline: its predicate denies
//     everything (including the empty-load safeguard), the placer and
//     steal pass skip it, and its capacity drops to zero so no decision
//     anywhere still counts on it.
//
//   - Evacuation (RecoverEvacuate). The crashed shard's registered
//     periods migrate wholesale to the best-fit surviving shard through
//     the same move machinery the steal pass uses — same admission ID,
//     same enqueue timestamp, wait clock intact. Actives carry their
//     charges and re-arm their lease with the *remaining* budget;
//     waiters that fit nowhere transfer to the least-loaded survivor's
//     waitlist and a bounded exponential-backoff retry (through the
//     Timer) keeps re-probing them. When the retry budget runs out the
//     stranded waiters are handed to the governor's degraded-admission
//     ladder — aging, reservations, and the fallback deadline already
//     bound their wait. The survivors also absorb the failed shard's
//     capacity share until reintegration.
//
//   - Audit. An interval tick recomputes every shard's load table from
//     its active-period set, repairs any drift in place (emitting
//     EventAudit with the magnitude), and re-runs the wake scan against
//     the corrected ledger. This is what heals injected ledger
//     corruption — and, at Quiesce, what guarantees the end-of-run
//     ledger is exact.
//
// RecoverStall and RecoverDrop are the E7 baselines: stall quarantines
// the shard and does nothing else (its backlog waits out the fallback
// deadline), drop degrades every registered period on the shard to
// untracked admission, abandoning their demand tracking entirely.
//
// Everything runs on the virtual clock through the same Timer the
// leases use, so fault-injected runs stay deterministic under -jobs N.

// RecoveryMode selects what a DomainSet does with a crashed shard's
// registered periods.
type RecoveryMode int

const (
	// RecoverEvacuate migrates the shard's periods to survivors (the
	// subsystem's reason to exist; the default).
	RecoverEvacuate RecoveryMode = iota
	// RecoverStall leaves them in place: actives keep their charges on
	// the dead shard, waiters sit until the fallback deadline. Baseline.
	RecoverStall
	// RecoverDrop degrades every registered period on the shard to
	// untracked admission and releases its charges. Baseline.
	RecoverDrop
)

func (m RecoveryMode) String() string {
	switch m {
	case RecoverEvacuate:
		return "evacuate"
	case RecoverStall:
		return "stall"
	case RecoverDrop:
		return "drop"
	default:
		return fmt.Sprintf("RecoveryMode(%d)", int(m))
	}
}

// Fault discriminators carried in a shard-level recovery event's Phase
// field (EventDomainFail, EventRecover, EventAudit).
const (
	DomainFaultCapacity = 0 // partial LLC capacity loss
	DomainFaultCrash    = 1 // full shard crash
	DomainFaultLedger   = 2 // load-table corruption / drift
)

// RecoveryConfig sizes the recovery subsystem.
type RecoveryConfig struct {
	// Mode is the crashed-shard strategy (default RecoverEvacuate).
	Mode RecoveryMode
	// MaxRetries bounds the evacuation backoff: how many retry ticks may
	// fire for waiters that fit no survivor before they are handed to
	// the admission ladder. 0 hands them over immediately.
	MaxRetries int
	// RetryBase is the first retry delay; each subsequent tick doubles
	// it. Required positive when MaxRetries > 0.
	RetryBase sim.Duration
	// AuditInterval is the invariant auditor's period; <= 0 disables the
	// periodic tick (the Quiesce-time audit still runs).
	AuditInterval sim.Duration
}

// DefaultRecoveryConfig returns the evacuating configuration the E7
// harness uses: four retries from a 1ms base, 5ms audit cadence.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		Mode:          RecoverEvacuate,
		MaxRetries:    4,
		RetryBase:     sim.Millisecond,
		AuditInterval: 5 * sim.Millisecond,
	}
}

// Validate reports whether the configuration is usable; every violation
// wraps ErrInvalidRecoveryConfig.
func (c RecoveryConfig) Validate() error {
	switch c.Mode {
	case RecoverEvacuate, RecoverStall, RecoverDrop:
	default:
		return fmt.Errorf("%w: unknown mode %d", ErrInvalidRecoveryConfig, int(c.Mode))
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("%w: negative MaxRetries %d", ErrInvalidRecoveryConfig, c.MaxRetries)
	}
	if c.MaxRetries > 0 && c.RetryBase <= 0 {
		return fmt.Errorf("%w: MaxRetries %d with no positive RetryBase", ErrInvalidRecoveryConfig, c.MaxRetries)
	}
	return nil
}

// RecoveryStats counts the recovery subsystem's activity.
type RecoveryStats struct {
	Failures        uint64 // shard crashes injected
	Corruptions     uint64 // ledger-corruption events injected
	Evacuations     uint64 // periods moved off failed shards (admitted or transferred)
	EvacRetries     uint64 // backoff ticks fired for stranded waiters
	ForcedMoves     uint64 // tracked actives moved to a survivor that could not fit them
	LadderFallbacks uint64 // stranded waiters handed to the admission ladder
	Dropped         uint64 // periods degraded to untracked by RecoverDrop
	AuditRuns       uint64 // auditor passes over the shard set
	AuditRepairs    uint64 // per-resource ledger drifts repaired
	Reintegrations  uint64 // shards brought back by RecoverDomain
}

// recovery is the DomainSet's fault/recovery state (nil until
// EnableRecovery).
type recovery struct {
	cfg      RecoveryConfig
	base     []pp.Bytes // LLC capacity split at EnableRecovery time
	lossFrac []float64  // injected partial capacity loss per shard
	failedAt []sim.Time // crash time per shard, for the recovery histogram
	stats    RecoveryStats

	retryAttempt int        // backoff ticks armed since the last crash
	retryEv      *sim.Event // pending retry tick
	auditEv      *sim.Event // pending audit tick
}

// EnableRecovery attaches the fault/recovery subsystem. It must run on
// a multi-domain set (a single-domain set has no survivor to evacuate
// to) after capacities are configured — the current LLC split becomes
// the baseline the re-split restores on reintegration. Shards switch
// their decrement path to drift-tolerant mode: injected ledger
// corruption may legally pull usage below the outstanding charges, and
// the auditor (not a panic) is the repair mechanism.
func (d *DomainSet) EnableRecovery(cfg RecoveryConfig) error {
	if d.single {
		return fmt.Errorf("%w: recovery requires two or more domains", ErrInvalidDomain)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	r := &recovery{
		cfg:      cfg,
		lossFrac: make([]float64, len(d.shards)),
		failedAt: make([]sim.Time, len(d.shards)),
	}
	for _, s := range d.shards {
		r.base = append(r.base, s.rm.Capacity(pp.ResourceLLC))
		s.tolerateDrift = true
	}
	d.rec = r
	d.armAuditTick()
	return nil
}

// RecoveryStats returns a copy of the recovery counters (zero value
// when recovery was never enabled).
func (d *DomainSet) RecoveryStats() RecoveryStats {
	if d.rec == nil {
		return RecoveryStats{}
	}
	return d.rec.stats
}

// recTarget validates a fault-injection target.
func (d *DomainSet) recTarget(i int) error {
	if d.rec == nil {
		return fmt.Errorf("%w: recovery not enabled", ErrInvalidDomain)
	}
	if i < 0 || i >= len(d.shards) {
		return fmt.Errorf("%w: index %d of %d domains", ErrInvalidDomain, i, len(d.shards))
	}
	return nil
}

// InjectCapacityLoss degrades domain i's LLC share by frac (0..1) of
// its baseline split at time now; frac >= 1 is a full crash. The shard
// stays online — admission continues against the reduced budget — and
// RecoverDomain restores the baseline.
func (d *DomainSet) InjectCapacityLoss(i int, frac float64) error {
	if err := d.recTarget(i); err != nil {
		return err
	}
	if frac < 0 {
		return fmt.Errorf("%w: negative capacity loss %v", ErrInvalidDomain, frac)
	}
	if frac >= 1 {
		return d.InjectCrash(i)
	}
	s := d.shards[i]
	before := s.rm.Capacity(pp.ResourceLLC)
	d.rec.lossFrac[i] = frac
	d.resplit()
	lost := before - s.rm.Capacity(pp.ResourceLLC)
	d.emitRecovery(EventDomainFail, i, DomainFaultCapacity, lost)
	return nil
}

// InjectCrash takes domain i offline at time now: capacity zero,
// admission fenced (including the empty-load safeguard), placement and
// stealing skip it. What happens to its registered periods depends on
// the configured RecoveryMode. Idempotent on an already-crashed shard.
func (d *DomainSet) InjectCrash(i int) error {
	if err := d.recTarget(i); err != nil {
		return err
	}
	s := d.shards[i]
	if s.offline {
		return nil
	}
	lost := s.rm.Capacity(pp.ResourceLLC)
	s.offline = true
	d.rec.failedAt[i] = d.clock()
	d.rec.stats.Failures++
	d.resplit()
	d.emitRecovery(EventDomainFail, i, DomainFaultCrash, lost)
	switch d.rec.cfg.Mode {
	case RecoverEvacuate:
		d.evacuateShard(i)
	case RecoverDrop:
		d.dropShard(i)
	case RecoverStall:
		// Leave everything in place: the backlog waits out the fallback
		// deadline, actives drain on their own ends and leases.
	}
	return nil
}

// InjectLedgerCorruption skews domain i's LLC load table by skew bytes
// (either sign; clamped at zero). The corruption is deliberately left
// in place — discovering and repairing it is the auditor's job.
func (d *DomainSet) InjectLedgerCorruption(i int, skew pp.Bytes) error {
	if err := d.recTarget(i); err != nil {
		return err
	}
	s := d.shards[i]
	u := s.rm.usage[pp.ResourceLLC] + skew
	if u < 0 {
		u = 0
	}
	s.rm.usage[pp.ResourceLLC] = u
	if u > s.rm.peak[pp.ResourceLLC] {
		s.rm.peak[pp.ResourceLLC] = u
	}
	d.rec.stats.Corruptions++
	mag := skew
	if mag < 0 {
		mag = -mag
	}
	d.emitRecovery(EventDomainFail, i, DomainFaultLedger, mag)
	return nil
}

// RecoverDomain reintegrates domain i: back online, capacity split
// restored to baseline (survivors hand back what they absorbed), its
// waitlist re-scanned, and the steal pass re-run so backlog rebalances
// onto the recovered capacity. Time-to-recover lands in the
// rda_recovery_time_seconds histogram when a registry is bound.
func (d *DomainSet) RecoverDomain(i int) error {
	if err := d.recTarget(i); err != nil {
		return err
	}
	s := d.shards[i]
	wasOffline := s.offline
	if !wasOffline && d.rec.lossFrac[i] == 0 {
		return nil // nothing to reintegrate
	}
	fault := DomainFaultCapacity
	if wasOffline {
		fault = DomainFaultCrash
	}
	s.offline = false
	d.rec.lossFrac[i] = 0
	d.resplit()
	d.rec.stats.Reintegrations++
	if wasOffline && d.reg != nil {
		d.reg.Histogram(MetricRecoverySeconds).
			Observe(d.clock().DurationSince(d.rec.failedAt[i]).Seconds())
	}
	d.emitRecovery(EventRecover, i, fault, s.rm.Capacity(pp.ResourceLLC))
	s.wakeWaitlist()
	d.stealScan()
	return nil
}

// resplit recomputes every shard's LLC capacity from the baseline
// split: offline shards hold zero, online shards hold their baseline
// minus any injected partial loss, and — under RecoverEvacuate only —
// the first online shard absorbs the offline shards' baseline shares
// whole (the self-healing half of evacuation: the budget follows the
// work). The absorbed share is deliberately NOT spread across all
// survivors: splitting it n-1 ways fragments it below the granularity
// of the periods it used to admit — three 1/12-LLC slivers admit
// nothing, one intact 1/4-LLC share re-admits the evacuated backlog.
// The stall and drop baselines simply lose the crashed capacity.
func (d *DomainSet) resplit() {
	var lostTotal pp.Bytes
	online := 0
	for i, s := range d.shards {
		if s.offline {
			lostTotal += d.rec.base[i]
		} else {
			online++
		}
	}
	redistribute := d.rec.cfg.Mode == RecoverEvacuate && online > 0
	rank := 0
	for i, s := range d.shards {
		if s.offline {
			s.rm.SetCapacity(pp.ResourceLLC, 0)
			continue
		}
		c := d.rec.base[i]
		if f := d.rec.lossFrac[i]; f > 0 {
			c = pp.Bytes(float64(c) * (1 - f))
		}
		if redistribute && rank == 0 {
			c += lostTotal
		}
		rank++
		s.rm.SetCapacity(pp.ResourceLLC, c)
	}
}

// leastLoadedOnline picks the least-loaded online shard other than
// exclude (ties toward the lower index); -1 when no shard qualifies.
func (d *DomainSet) leastLoadedOnline(exclude int) int {
	least := -1
	for i := range d.shards {
		if i == exclude || d.shards[i].offline {
			continue
		}
		if least == -1 || d.loadFrac(i) < d.loadFrac(least) {
			least = i
		}
	}
	return least
}

// evacuateShard moves every period registered on crashed shard si to a
// survivor. Actives go first, in admission-ID order, charges and lease
// budget intact: they are running threads that cannot be paused (the
// gate only intercepts period boundaries), so they claim survivor
// headroom before anyone new is admitted into it — admitting waiters
// ahead of them would force the displaced actives into oversubscription
// and recreate exactly the thrash evacuation exists to avoid. Waiters
// follow in ticket (FIFO) order: one that fits a survivor's remaining
// headroom — and whose owner's breaker is not open on si — is migrated
// and admitted there; the rest transfer to the least-loaded survivor's
// waitlist (wait clocks and deadlines intact) and the backoff retry
// takes over. The steal guard is held for the duration so a
// mid-evacuation wake cascade cannot re-enter the move machinery.
func (d *DomainSet) evacuateShard(si int) {
	if d.leastLoadedOnline(si) < 0 {
		return // no survivor anywhere; leave the shard's state in place
	}
	src := d.shards[si]
	wasStealing := d.stealing
	d.stealing = true
	defer func() { d.stealing = wasStealing }()

	var acts []*period
	src.reg.each(func(per *period) {
		if per.admitted {
			acts = append(acts, per)
		}
	})
	sort.Slice(acts, func(i, j int) bool { return acts[i].id < acts[j].id })
	for _, per := range acts {
		d.moveActive(per, si)
	}

	var waiters []*period
	src.waitlist.Each(func(per *period, _ uint64) {
		waiters = append(waiters, per)
	})
	stranded := false
	for _, per := range waiters {
		if !src.breakerBlocked(per.key.procID) {
			if di, ok := d.fitTarget(per.demands, per.key.procID, si); ok {
				d.migrate(per, si, di, EventEvacuate)
				continue
			}
		}
		d.transferWaiter(per, si)
		stranded = true
	}

	if stranded {
		d.rec.retryAttempt = 0
		d.armEvacRetry()
	}
}

// transferWaiter moves a waiter that fits no survivor onto the least-
// loaded survivor's waitlist. The enqueue timestamp survives (the wait
// clock never resets) and the pending fallback deadline is re-armed
// with the budget it had left, so evacuation neither extends nor
// shortens the bounded wait. The evacuated flag queues the period for
// the backoff retry.
func (d *DomainSet) transferWaiter(per *period, si int) {
	di := d.leastLoadedOnline(si)
	if di < 0 {
		return
	}
	dst := d.moveWaiter(per, si, di)
	per.ticket = dst.waitlist.Enqueue(per)
	if per.taskPool {
		dst.reg.park(per.key.procID)
	}
	dst.armDeadline(per, dst.deadline-d.clock().DurationSince(per.enqueuedAt))
	per.evacuated = true
	d.rec.stats.Evacuations++
	d.emitDomain(EventEvacuate, di, per.key, per.demands[0])
}

// moveActive migrates an admitted period off crashed shard si: best-fit
// survivor when one admits its demands, least-loaded survivor otherwise
// (a forced move — the destination runs oversubscribed until the period
// ends, which its policy simply denies around; counted). Charges move
// with the period, thread residency follows, and the lease re-arms with
// the remaining budget so a leaked period is still reclaimed on the
// original schedule.
func (d *DomainSet) moveActive(per *period, si int) {
	src := d.shards[si]
	di, ok := d.fitTarget(per.demands, per.key.procID, si)
	forced := false
	if !ok {
		di = d.leastLoadedOnline(si)
		if di < 0 {
			return
		}
		forced = !per.untracked
	}
	dst := d.shards[di]
	src.unregister(per) // drops registry entries, cancels the lease
	if !per.untracked {
		for _, dm := range per.demands {
			src.mustDecrement(dm)
		}
	}
	src.reg.handOver(&dst.reg, per.key)
	dst.reg.add(per)
	d.domainOf[per.key] = di
	if !per.untracked {
		for _, dm := range per.demands {
			dst.mustIncrement(dm)
		}
	}
	if lease := dst.govLease(); lease > 0 {
		rem := lease - d.clock().DurationSince(per.admittedAt)
		if rem < 1 {
			rem = 1
		}
		dst.armLease(per, rem)
	}
	if forced {
		d.rec.stats.ForcedMoves++
	}
	d.rec.stats.Evacuations++
	d.emitDomain(EventEvacuate, di, per.key, per.demands[0])
}

// dropShard is the RecoverDrop baseline: every waiter on the crashed
// shard is degraded to untracked fallback admission on the spot, every
// tracked active releases its charges and runs on untracked. Periods
// stay registered on the shard so their ends still close them.
func (d *DomainSet) dropShard(si int) {
	src := d.shards[si]
	var waiters []*period
	src.waitlist.Each(func(per *period, _ uint64) {
		waiters = append(waiters, per)
	})
	for _, per := range waiters {
		src.cancelDeadline(per)
		src.fallbackAdmit(per)
		d.rec.stats.Dropped++
	}
	var acts []*period
	src.reg.each(func(per *period) {
		if per.admitted && !per.untracked {
			acts = append(acts, per)
		}
	})
	sort.Slice(acts, func(i, j int) bool { return acts[i].id < acts[j].id })
	for _, per := range acts {
		for _, dm := range per.demands {
			src.mustDecrement(dm)
		}
		per.untracked = true
		d.rec.stats.Dropped++
	}
}

// armEvacRetry schedules the next backoff tick (RetryBase doubling per
// attempt); at most one is pending.
func (d *DomainSet) armEvacRetry() {
	if d.rec.retryEv != nil {
		return
	}
	shift := d.rec.retryAttempt
	if shift > 16 {
		shift = 16
	}
	delay := d.rec.cfg.RetryBase << shift
	if delay < 1 {
		delay = 1
	}
	d.rec.retryAttempt++
	d.rec.retryEv = d.timer.After(delay, func() {
		d.rec.retryEv = nil
		d.evacRetryTick()
	})
}

// evacRetryTick re-probes every stranded (evacuated-flagged) waiter,
// oldest first, migrating those a survivor now admits. Waiters still
// stranded after the retry budget are handed to the admission ladder —
// governor aging, reservations, and the fallback deadline bound their
// wait from here.
func (d *DomainSet) evacRetryTick() {
	d.rec.stats.EvacRetries++
	var pend []stealCandidate
	for si, s := range d.shards {
		si := si
		s.waitlist.Each(func(per *period, _ uint64) {
			if per.evacuated {
				pend = append(pend, stealCandidate{per: per, src: si})
			}
		})
	}
	sortCandidates(pend)
	remaining := false
	for _, c := range pend {
		if c.per.admitted {
			c.per.evacuated = false // admitted by a wake since the snapshot
			continue
		}
		if di, ok := d.fitTarget(c.per.demands, c.per.key.procID, c.src); ok {
			c.per.evacuated = false
			d.migrate(c.per, c.src, di, EventEvacuate)
			continue
		}
		remaining = true
	}
	if !remaining {
		return
	}
	if d.rec.retryAttempt <= d.rec.cfg.MaxRetries {
		d.armEvacRetry()
		return
	}
	for _, s := range d.shards {
		s.waitlist.Each(func(per *period, _ uint64) {
			if per.evacuated {
				per.evacuated = false
				d.rec.stats.LadderFallbacks++
			}
		})
	}
}

// armAuditTick schedules the next periodic audit pass; at most one is
// pending. Re-armed from its own callback and from SetTimer, so the
// wiring order of EnableRecovery and SetTimer does not matter.
func (d *DomainSet) armAuditTick() {
	if d.timer == nil || d.rec == nil || d.rec.cfg.AuditInterval <= 0 || d.rec.auditEv != nil {
		return
	}
	d.rec.auditEv = d.timer.After(d.rec.cfg.AuditInterval, func() {
		d.rec.auditEv = nil
		d.runAudit(true)
		d.armAuditTick()
	})
}

// runAudit is the invariant auditor: for each shard in index order it
// recomputes what the load table *should* read — the sum of demands of
// admitted, tracked periods — and repairs any drift in place, emitting
// EventAudit with the total magnitude. With wake set, a repaired online
// shard re-runs its wake scan against the corrected ledger (suppressed
// at Quiesce, where the run is over).
func (d *DomainSet) runAudit(wake bool) {
	d.rec.stats.AuditRuns++
	for si, s := range d.shards {
		var want [pp.NumResources]pp.Bytes
		s.reg.each(func(per *period) {
			if !per.admitted || per.untracked {
				return
			}
			for _, dm := range per.demands {
				want[dm.Resource] += dm.WorkingSet
			}
		})
		var drift pp.Bytes
		for r := 0; r < pp.NumResources; r++ {
			res := pp.Resource(r)
			got := s.rm.usage[res]
			if got == want[res] {
				continue
			}
			delta := got - want[res]
			if delta < 0 {
				delta = -delta
			}
			drift += delta
			s.rm.usage[res] = want[res]
			if want[res] > s.rm.peak[res] {
				s.rm.peak[res] = want[res]
			}
			d.rec.stats.AuditRepairs++
		}
		if drift == 0 {
			continue
		}
		d.emitRecovery(EventAudit, si, DomainFaultLedger, drift)
		if wake && !s.offline {
			s.wakeWaitlist()
		}
	}
}

// emitRecovery publishes a shard-level fault/recovery event: Proc -1,
// Phase the fault discriminator, Demand.WorkingSet the magnitude, Load
// the shard's LLC load at emission.
func (d *DomainSet) emitRecovery(kind EventKind, di, fault int, magnitude pp.Bytes) {
	if len(d.sinks) == 0 {
		return
	}
	s := d.shards[di]
	e := Event{
		At: d.clock(), Kind: kind, Proc: -1, Phase: fault,
		Demand: pp.Demand{Resource: pp.ResourceLLC, WorkingSet: magnitude},
		Load:   s.rm.Usage(pp.ResourceLLC), Domain: di,
	}
	for _, sink := range d.sinks {
		sink.Record(e)
	}
}
