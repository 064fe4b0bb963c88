package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rdasched/internal/core"
	"rdasched/internal/sim"
)

// Restored is the result of loading a checkpoint directory: the newest
// decodable snapshot, which is the gate's state at record SnapshotSeq,
// and the journal's valid prefix, plus the provenance the harness
// reports (rda_persist_* metrics, the E9 report).
type Restored struct {
	State       core.State          // the gate right after record SnapshotSeq
	Records     []core.ReplayRecord // the journal; Records[i] has sequence i+1
	KillAt      sim.Duration        // process-death time the killed run had armed
	Seq         uint64              // sequence of the last record read (snapshot seq if none past it)
	SnapshotSeq uint64              // journal anchor of the snapshot used
	Replayed    int                 // journal records past the snapshot
	Truncated   bool                // journal ended at a torn or corrupt frame
	TruncReason string              // why, when Truncated
	Snapshots   int                 // committed snapshot files in dir, undecodable ones included
}

// Restore loads the newest valid snapshot under dir and the journal.
// The journal is truncated — silently, but reported — at the first torn
// or corrupt frame. Nothing here judges the records: the revival checks
// them, and the snapshot, against the run it re-executes.
func Restore(dir string) (*Restored, error) {
	mb, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("persist: read meta: %w", err)
	}
	var m meta
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, fmt.Errorf("persist: decode meta: %w", err)
	}
	if m.Version != FormatVersion {
		return nil, fmt.Errorf("persist: checkpoint format version %d, want %d", m.Version, FormatVersion)
	}

	snap, snaps, err := loadLatestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		return nil, fmt.Errorf("persist: read journal: %w", err)
	}
	recs, truncated, reason := DecodeJournal(data)
	out := &Restored{
		State:       snap.State,
		Records:     recs,
		KillAt:      m.KillAt,
		Seq:         max(snap.Seq, uint64(len(recs))),
		SnapshotSeq: snap.Seq,
		Truncated:   truncated,
		TruncReason: reason,
		Snapshots:   snaps,
	}
	if n := uint64(len(recs)); n > snap.Seq {
		out.Replayed = int(n - snap.Seq)
	}
	return out, nil
}

// loadLatestSnapshot returns the highest-sequence snapshot that decodes
// cleanly, skipping corrupt ones (a crash can only tear the temp file,
// but restore stays defensive about the directory it is handed), and
// the number of committed snapshot files, corrupt ones included.
func loadLatestSnapshot(dir string) (*snapshotFile, int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: read checkpoint dir: %w", err)
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if strings.HasPrefix(n, "snap-") && strings.HasSuffix(n, ".json") {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, 0, fmt.Errorf("persist: no snapshots in %s", dir)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // zero-padded seq: lexicographic = numeric
	var lastErr error
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			lastErr = err
			continue
		}
		var sf snapshotFile
		if err := json.Unmarshal(b, &sf); err != nil {
			lastErr = fmt.Errorf("persist: decode %s: %w", n, err)
			continue
		}
		return &sf, len(names), nil
	}
	return nil, 0, fmt.Errorf("persist: no usable snapshot in %s: %v", dir, lastErr)
}
