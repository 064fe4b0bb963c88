package core

import (
	"rdasched/internal/pp"
	"rdasched/internal/telemetry"
)

// Metrics integration: the scheduler can sample a telemetry.Registry on
// its decision path (SetMetrics) and publish its end-of-run counters
// into one (PublishStats). The two are deliberately split:
//
//   - Live sampling fills the distributions aggregates cannot recover —
//     wait-time, period-length, LLC-occupancy, and waitlist-depth
//     histograms, one observation per decision. It costs a few
//     histogram updates per decision and nothing when no registry is
//     bound.
//
//   - PublishStats copies the Stats counters (begins, admissions,
//     denials, reclaims, fallbacks, rejections, …) into a registry
//     once, at the end of a run. Counters keep Stats as their single
//     source of truth — the decision path never double-counts — while
//     still reaching the Prometheus/JSON expositions.
//
// Registries are single-goroutine; parallel replications each bind
// their own and the harness merges them in job-index order.

// Metric names exported by the scheduler.
const (
	// Histograms, sampled on the decision path (SetMetrics).
	MetricWaitSeconds    = "rda_wait_seconds"           // waitlist time per admission (0 for immediate admits)
	MetricPeriodSeconds  = "rda_period_seconds"         // admitted lifetime per ended/reclaimed period
	MetricOccupancyBytes = "rda_llc_occupancy_bytes"    // LLC load after each decision
	MetricWaitlistDepth  = "rda_waitlist_depth_periods" // waitlist length after each decision

	// Counters and gauges, published from Stats (PublishStats).
	MetricBegins         = "rda_periods_begun_total"
	MetricEnds           = "rda_periods_ended_total"
	MetricAdmitted       = "rda_periods_admitted_total"
	MetricDenied         = "rda_periods_denied_total"
	MetricWoken          = "rda_threads_woken_total"
	MetricSafeguards     = "rda_safeguard_admissions_total"
	MetricReclaimed      = "rda_leases_reclaimed_total"
	MetricReclaimedBytes = "rda_reclaimed_bytes_total"
	MetricFallbacks      = "rda_fallback_admissions_total"
	MetricRejected       = "rda_demands_rejected_total"
	MetricLateEnds       = "rda_late_ends_total"
	MetricMaxWaitSeconds = "rda_max_wait_seconds"
	MetricActivePeriods  = "rda_active_periods"
	MetricLLCLoadBytes   = "rda_llc_load_bytes"

	// Governor counters and gauges, published from GovernorStats when a
	// governor is attached (PublishStats).
	MetricGovernorLevel             = "rda_governor_level"                    // ladder position at publish time (0=normal 1=degraded 2=shedding)
	MetricGovernorDegradations      = "rda_governor_degradations_total"       // ladder steps toward shedding
	MetricGovernorRecoveries        = "rda_governor_recoveries_total"         // ladder steps back toward the base policy
	MetricGovernorStrikes           = "rda_governor_strikes_total"            // misdeclarations recorded against closed breakers
	MetricGovernorQuarantines       = "rda_governor_quarantines_total"        // breaker trips
	MetricGovernorQuarantinedAdmits = "rda_governor_quarantined_admits_total" // periods admitted as undeclared baseline
	MetricGovernorProbes            = "rda_governor_probes_total"             // half-open probes evaluated
	MetricGovernorRestores          = "rda_governor_restores_total"           // breakers closed after a clean probe
	MetricGovernorReservations      = "rda_governor_reservations_total"       // cascades blocked for an aged waiter
	MetricGovernorAgedWakes         = "rda_governor_aged_wakes_total"         // aged waiters admitted through their reservation
	MetricGovernorTightened         = "rda_governor_lease_tighten_total"      // outstanding leases re-armed to the tightened horizon

	// Domain counters and gauges, published by DomainSet.PublishStats
	// when two or more domains are configured (a single-domain set
	// publishes exactly what the unsharded scheduler does). The per-
	// domain gauges carry a "_<index>" suffix — the registry uses flat
	// Prometheus-style names, so the domain index is part of the name.
	MetricDomainPlacements = "rda_domain_placements_total" // periods assigned by the demand-aware placer
	MetricDomainSteals     = "rda_domain_steals_total"     // aged waiters migrated cross-domain
	MetricDomainLoadBytes  = "rda_domain_load_bytes"       // + "_<idx>": end-of-run LLC load per domain
	MetricDomainPeakBytes  = "rda_domain_peak_bytes"       // + "_<idx>": peak LLC load per domain
	MetricDomainWaitlist   = "rda_domain_waitlist_periods" // + "_<idx>": end-of-run waitlist depth per domain
	MetricDomainAdmitted   = "rda_domain_admitted"         // + "_<idx>_total": periods admitted per domain (the index precedes _total so the counter keeps its conventional suffix)

	// Recovery counters and the time-to-recover histogram, published by
	// DomainSet.PublishStats when EnableRecovery was called
	// (domain_recovery.go).
	MetricRecoveryFailures       = "rda_recovery_domain_failures_total"  // injected shard crashes
	MetricRecoveryCorruptions    = "rda_recovery_corruptions_total"      // injected ledger-corruption events
	MetricRecoveryEvacuations    = "rda_recovery_evacuations_total"      // periods moved off failed shards
	MetricRecoveryRetries        = "rda_recovery_retries_total"          // evacuation backoff ticks fired
	MetricRecoveryForcedMoves    = "rda_recovery_forced_moves_total"     // actives moved to a shard that could not fit them
	MetricRecoveryLadderFalls    = "rda_recovery_ladder_fallbacks_total" // stranded waiters handed to the admission ladder
	MetricRecoveryDropped        = "rda_recovery_dropped_total"          // periods degraded to untracked by RecoverDrop
	MetricRecoveryAuditRuns      = "rda_recovery_audit_runs_total"       // auditor passes over the shard set
	MetricRecoveryAuditRepairs   = "rda_recovery_audit_repairs_total"    // per-resource ledger drifts repaired
	MetricRecoveryReintegrations = "rda_recovery_reintegrations_total"   // shards reintegrated by RecoverDomain
	MetricRecoverySeconds        = "rda_recovery_time_seconds"           // crash-to-reintegration latency histogram
)

// schedMetrics holds pre-resolved instrument handles so the decision
// path never does a map lookup.
type schedMetrics struct {
	waitSeconds    *telemetry.Histogram
	periodSeconds  *telemetry.Histogram
	occupancyBytes *telemetry.Histogram
	waitlistDepth  *telemetry.Histogram
}

// SetMetrics binds a registry sampled on every scheduling decision;
// nil detaches it.
func (s *Scheduler) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		s.met = nil
		return
	}
	s.met = &schedMetrics{
		waitSeconds:    reg.Histogram(MetricWaitSeconds),
		periodSeconds:  reg.Histogram(MetricPeriodSeconds),
		occupancyBytes: reg.Histogram(MetricOccupancyBytes),
		waitlistDepth:  reg.Histogram(MetricWaitlistDepth),
	}
}

// observeMetrics samples the bound registry for one decision. Called
// only from emit, after the nil check.
func (s *Scheduler) observeMetrics(per *period, e Event) {
	m := s.met
	m.occupancyBytes.Observe(float64(e.Load))
	m.waitlistDepth.Observe(float64(s.waitlist.Len()))
	switch e.Kind {
	case EventAdmit, EventWake, EventFallback:
		m.waitSeconds.Observe(e.Wait.Seconds())
	case EventEnd, EventReclaim:
		if per != nil {
			m.periodSeconds.Observe(e.At.DurationSince(per.admittedAt).Seconds())
		}
	}
}

// PublishStats copies the activity counters and end-state gauges into
// reg. Call it once per run, after the run (and any Quiesce) finished;
// each call adds the full counter values, so publishing the same
// scheduler into the same registry twice double-counts.
func (s *Scheduler) PublishStats(reg *telemetry.Registry) {
	publishSchedStats(reg, s.stats, s.ActivePeriods(), s.rm.Usage(pp.ResourceLLC))
	if s.gov != nil {
		publishGovernorStats(reg, s.gov.stats, s.gov.level)
	}
}

// publishSchedStats writes the Stats counters and end-state gauges; it
// is shared by the unsharded scheduler and the DomainSet aggregate so
// both publish the same metric family the same way.
func publishSchedStats(reg *telemetry.Registry, st Stats, active int, load pp.Bytes) {
	reg.Counter(MetricBegins).Add(st.Begins)
	reg.Counter(MetricEnds).Add(st.Ends)
	reg.Counter(MetricAdmitted).Add(st.Admitted)
	reg.Counter(MetricDenied).Add(st.Denied)
	reg.Counter(MetricWoken).Add(st.Woken)
	reg.Counter(MetricSafeguards).Add(st.Safegrds)
	reg.Counter(MetricReclaimed).Add(st.Reclaimed)
	reg.Counter(MetricReclaimedBytes).Add(uint64(st.ReclaimedBytes))
	reg.Counter(MetricFallbacks).Add(st.Fallbacks)
	reg.Counter(MetricRejected).Add(st.Rejected)
	reg.Counter(MetricLateEnds).Add(st.LateEnds)
	reg.Gauge(MetricMaxWaitSeconds).Set(st.MaxWait.Seconds())
	reg.Gauge(MetricActivePeriods).Set(float64(active))
	reg.Gauge(MetricLLCLoadBytes).Set(float64(load))
}

// publishRecoveryStats writes the recovery counter family (the
// time-to-recover histogram is sampled live at each RecoverDomain).
func publishRecoveryStats(reg *telemetry.Registry, rs RecoveryStats) {
	reg.Counter(MetricRecoveryFailures).Add(rs.Failures)
	reg.Counter(MetricRecoveryCorruptions).Add(rs.Corruptions)
	reg.Counter(MetricRecoveryEvacuations).Add(rs.Evacuations)
	reg.Counter(MetricRecoveryRetries).Add(rs.EvacRetries)
	reg.Counter(MetricRecoveryForcedMoves).Add(rs.ForcedMoves)
	reg.Counter(MetricRecoveryLadderFalls).Add(rs.LadderFallbacks)
	reg.Counter(MetricRecoveryDropped).Add(rs.Dropped)
	reg.Counter(MetricRecoveryAuditRuns).Add(rs.AuditRuns)
	reg.Counter(MetricRecoveryAuditRepairs).Add(rs.AuditRepairs)
	reg.Counter(MetricRecoveryReintegrations).Add(rs.Reintegrations)
}

// publishGovernorStats writes the governor counter family; level is the
// ladder position gauge (the deepest shard's level for a DomainSet).
func publishGovernorStats(reg *telemetry.Registry, gs GovernorStats, level GovernorLevel) {
	reg.Gauge(MetricGovernorLevel).Set(float64(level))
	reg.Counter(MetricGovernorDegradations).Add(gs.Degradations)
	reg.Counter(MetricGovernorRecoveries).Add(gs.Recoveries)
	reg.Counter(MetricGovernorStrikes).Add(gs.Strikes)
	reg.Counter(MetricGovernorQuarantines).Add(gs.Quarantines)
	reg.Counter(MetricGovernorQuarantinedAdmits).Add(gs.QuarantinedAdmits)
	reg.Counter(MetricGovernorProbes).Add(gs.Probes)
	reg.Counter(MetricGovernorRestores).Add(gs.Restores)
	reg.Counter(MetricGovernorReservations).Add(gs.Reservations)
	reg.Counter(MetricGovernorAgedWakes).Add(gs.AgedWakes)
	reg.Counter(MetricGovernorTightened).Add(gs.Tightened)
}
