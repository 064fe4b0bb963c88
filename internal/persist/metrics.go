package persist

import "rdasched/internal/telemetry"

// The rda_persist_* metric family: checkpoint write activity on the
// producing side, replay provenance on the restoring side.
const (
	MetricRecords       = "rda_persist_records_total"        // journal records written
	MetricJournalBytes  = "rda_persist_journal_bytes_total"  // framed journal bytes
	MetricSnapshots     = "rda_persist_snapshots_total"      // snapshots cut
	MetricSnapshotBytes = "rda_persist_snapshot_bytes_total" // snapshot bytes written
	MetricReplayed      = "rda_persist_replayed_total"       // journal records past the restored snapshot
	MetricTruncations   = "rda_persist_truncations_total"    // journals truncated at a torn frame
	MetricRestoreSeq    = "rda_persist_restore_seq"          // last record sequence restored
)

// Publish writes the checkpointer's counters into reg.
func (cp *Checkpointer) Publish(reg *telemetry.Registry) {
	reg.Counter(MetricRecords).Add(cp.stats.Records)
	reg.Counter(MetricJournalBytes).Add(cp.stats.JournalBytes)
	reg.Counter(MetricSnapshots).Add(cp.stats.Snapshots)
	reg.Counter(MetricSnapshotBytes).Add(cp.stats.SnapshotBytes)
}

// Publish writes the restore provenance into reg.
func (r *Restored) Publish(reg *telemetry.Registry) {
	reg.Counter(MetricReplayed).Add(uint64(r.Replayed))
	if r.Truncated {
		reg.Counter(MetricTruncations).Inc()
	}
	reg.Gauge(MetricRestoreSeq).Set(float64(r.Seq))
}
