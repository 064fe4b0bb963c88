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

// Restored is the result of loading a checkpoint directory: the exact
// gate state at the last journaled record, plus the provenance the
// harness reports (rda_persist_* metrics, the E9 report).
type Restored struct {
	State       core.State
	KillAt      sim.Duration // process-death time the killed run had armed
	Seq         uint64       // sequence of the last record applied (snapshot seq if none)
	SnapshotSeq uint64       // journal anchor of the snapshot used
	Replayed    int          // journal records applied on top of the snapshot
	Truncated   bool         // journal ended at a torn or corrupt frame
	TruncReason string       // why, when Truncated
	Snapshots   int          // committed snapshot files in dir, undecodable ones included
}

// Restore loads the last valid snapshot under dir and replays the
// journal suffix onto it. The journal is truncated — silently, but
// reported — at the first torn or corrupt frame; a record that passes
// its checksum but cannot be applied is a hard error (the journal is
// internally inconsistent, not merely torn).
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

	out := &Restored{
		State:       snap.State,
		KillAt:      m.KillAt,
		Seq:         snap.Seq,
		SnapshotSeq: snap.Seq,
		Snapshots:   snaps,
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		return nil, fmt.Errorf("persist: read journal: %w", err)
	}
	seqs, recs, truncated, reason := DecodeJournal(data)
	out.Truncated = truncated
	out.TruncReason = reason
	for i, rec := range recs {
		if seqs[i] <= snap.Seq {
			continue // already reflected in the snapshot
		}
		if err := out.State.Apply(rec); err != nil {
			return nil, fmt.Errorf("persist: apply record %d: %w", seqs[i], err)
		}
		out.Seq = seqs[i]
		out.Replayed++
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
