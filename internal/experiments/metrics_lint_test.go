package experiments

import (
	"fmt"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/telemetry"
	"rdasched/internal/telemetry/blame"
)

// TestMetricFamiliesLint registers every metric family the repo
// publishes — scheduler, governor, domain, recovery, blame, and SLO —
// with the instrument kind its publisher uses, and lints the result
// against the Prometheus exposition conventions. A new family with a
// malformed or suffix-violating name fails here before it ever reaches
// an exposition.
func TestMetricFamiliesLint(t *testing.T) {
	reg := telemetry.NewRegistry()
	for _, name := range []string{
		core.MetricBegins, core.MetricEnds, core.MetricAdmitted,
		core.MetricDenied, core.MetricWoken, core.MetricSafeguards,
		core.MetricReclaimed, core.MetricReclaimedBytes, core.MetricFallbacks,
		core.MetricRejected, core.MetricLateEnds,
		core.MetricGovernorDegradations, core.MetricGovernorRecoveries,
		core.MetricGovernorStrikes, core.MetricGovernorQuarantines,
		core.MetricGovernorQuarantinedAdmits, core.MetricGovernorProbes,
		core.MetricGovernorRestores, core.MetricGovernorReservations,
		core.MetricGovernorAgedWakes, core.MetricGovernorTightened,
		core.MetricDomainPlacements, core.MetricDomainSteals,
		core.MetricRecoveryFailures, core.MetricRecoveryCorruptions,
		core.MetricRecoveryEvacuations, core.MetricRecoveryRetries,
		core.MetricRecoveryForcedMoves, core.MetricRecoveryLadderFalls,
		core.MetricRecoveryDropped, core.MetricRecoveryAuditRuns,
		core.MetricRecoveryAuditRepairs, core.MetricRecoveryReintegrations,
		blame.MetricBlamePeriods, blame.MetricBlameDenies,
		blame.MetricSLOAdmissions, blame.MetricSLOBreaches, blame.MetricSLOAlerts,
	} {
		reg.Counter(name)
	}
	for _, name := range []string{
		core.MetricMaxWaitSeconds, core.MetricActivePeriods, core.MetricLLCLoadBytes,
		core.MetricGovernorLevel,
	} {
		reg.Gauge(name)
	}
	for _, name := range []string{
		core.MetricWaitSeconds, core.MetricPeriodSeconds,
		core.MetricOccupancyBytes, core.MetricWaitlistDepth,
		core.MetricRecoverySeconds,
		blame.MetricBlameBlocked, blame.MetricBlameUnattributed,
	} {
		reg.Histogram(name)
	}
	// Index-suffixed families, exactly as their publishers derive them
	// (DomainSet.PublishStats, SLOResult.Publish).
	for i := 0; i < 3; i++ {
		suffix := fmt.Sprintf("_%d", i)
		reg.Gauge(core.MetricDomainLoadBytes + suffix)
		reg.Gauge(core.MetricDomainPeakBytes + suffix)
		reg.Gauge(core.MetricDomainWaitlist + suffix)
		reg.Counter(core.MetricDomainAdmitted + suffix + "_total")
		reg.Gauge(fmt.Sprintf("%s%d", blame.MetricSLOBurnPrefix, i))
	}
	for _, err := range reg.Lint() {
		t.Error(err)
	}
}
