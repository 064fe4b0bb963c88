package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"rdasched/internal/core"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry/trace"
)

// Config sizes a checkpointed run.
type Config struct {
	// Dir is the checkpoint directory: meta.json, journal.log, and the
	// snap-*.json snapshots live there. Created if missing.
	Dir string
	// Every is the snapshot cadence on the virtual clock: a snapshot is
	// cut when a journal record's timestamp crosses the next multiple of
	// Every — no extra engine events, so a checkpointed run schedules
	// byte-identically to an unchecked one. Zero journals without
	// periodic snapshots (the attach-time snapshot still anchors the
	// journal); negative is rejected.
	Every sim.Duration
}

// Validate reports whether the configuration can attach a checkpointer.
func (c Config) Validate() error {
	if c.Dir == "" {
		return fmt.Errorf("persist: checkpoint directory not set")
	}
	if c.Every < 0 {
		return fmt.Errorf("persist: negative snapshot cadence %v", c.Every)
	}
	return nil
}

// StateExporter is the gate-side surface the checkpointer snapshots;
// core.Scheduler and core.DomainSet both satisfy it.
type StateExporter interface {
	ExportState() core.State
}

// meta is the run descriptor persisted alongside the journal.
type meta struct {
	Version int
	KillAt  sim.Duration
}

// Stats counts checkpointer activity for the rda_persist_* family.
type Stats struct {
	Records       uint64 // journal records written
	JournalBytes  uint64 // framed bytes appended to the journal
	Snapshots     uint64 // snapshots cut (including the attach-time one)
	SnapshotBytes uint64 // snapshot bytes written
}

// Checkpointer is a core.ReplaySink that journals every admission
// decision and cuts periodic state snapshots. It is single-goroutine,
// like the scheduler feeding it. I/O errors are sticky: the first one
// stops all further writes and surfaces from Close, so a run never
// trusts a checkpoint directory a failed write left behind.
type Checkpointer struct {
	cfg   Config
	gate  StateExporter
	jw    *journalWriter
	seq   uint64
	next  sim.Time // next snapshot cut point (zero = periodic snapshots off)
	buf   []byte   // the record being appended, reused
	err   error
	stats Stats
}

// Attach creates the checkpoint directory, writes meta.json, opens the
// journal, and cuts the initial snapshot (sequence 0: the gate before
// any record). killAt records the armed process-death time so the
// revival run can re-execute the same prefix.
func Attach(cfg Config, gate StateExporter, killAt sim.Duration) (*Checkpointer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gate == nil {
		return nil, fmt.Errorf("persist: nil gate")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create checkpoint dir: %w", err)
	}
	mb, err := json.Marshal(meta{Version: FormatVersion, KillAt: killAt})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.Dir, "meta.json"), mb, 0o644); err != nil {
		return nil, fmt.Errorf("persist: write meta: %w", err)
	}
	jw, err := openJournal(filepath.Join(cfg.Dir, "journal.log"))
	if err != nil {
		return nil, fmt.Errorf("persist: open journal: %w", err)
	}
	cp := &Checkpointer{cfg: cfg, gate: gate, jw: jw}
	if cfg.Every > 0 {
		cp.next = sim.Time(0).Add(cfg.Every)
	}
	if err := cp.snapshot(); err != nil {
		jw.close()
		return nil, err
	}
	return cp, nil
}

// Replay implements core.ReplaySink: append one framed record, then cut
// a snapshot if the record's timestamp crossed the cadence boundary.
func (cp *Checkpointer) Replay(r core.ReplayRecord) {
	if cp.err != nil {
		return
	}
	cp.buf = appendRecord(cp.buf[:0], &r)
	cp.seq++
	n, err := cp.jw.append(cp.seq, cp.buf)
	if err != nil {
		cp.err = fmt.Errorf("persist: append record %d: %w", cp.seq, err)
		return
	}
	cp.stats.Records++
	cp.stats.JournalBytes += uint64(n)
	if cp.next > 0 && r.At >= cp.next {
		if err := cp.snapshot(); err != nil {
			cp.err = err
			return
		}
		for cp.next <= r.At {
			cp.next = cp.next.Add(cp.cfg.Every)
		}
	}
}

// appendRecord appends r as the bytes json.Marshal gives it: the six
// fields in declaration order under their Go names, Kind as an HTML-safe
// JSON string.
func appendRecord(dst []byte, r *core.ReplayRecord) []byte {
	dst = strconv.AppendInt(append(dst, `{"At":`...), int64(r.At), 10)
	dst = trace.AppendJSONString(append(dst, `,"Kind":`...), string(r.Kind))
	dst = strconv.AppendInt(append(dst, `,"Domain":`...), int64(r.Domain), 10)
	dst = strconv.AppendUint(append(dst, `,"ID":`...), uint64(r.ID), 10)
	dst = strconv.AppendInt(append(dst, `,"Proc":`...), int64(r.Proc), 10)
	dst = strconv.AppendInt(append(dst, `,"Phase":`...), int64(r.Phase), 10)
	return append(dst, '}')
}

// snapshotFile wraps a snapshot with its journal anchor: the gate's
// state the moment record Seq was journaled (the attach-time snapshot
// has Seq 0). A cut can land mid-cascade; the revival compares it with
// the re-executed gate at that same record, so it need not be a quiet
// point.
type snapshotFile struct {
	Seq   uint64
	State core.State
}

func (cp *Checkpointer) snapshot() error {
	st := cp.gate.ExportState()
	b, err := json.Marshal(snapshotFile{Seq: cp.seq, State: st})
	if err != nil {
		return fmt.Errorf("persist: encode snapshot: %w", err)
	}
	path := filepath.Join(cp.cfg.Dir, fmt.Sprintf("snap-%016d.json", cp.seq))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: commit snapshot: %w", err)
	}
	cp.stats.Snapshots++
	cp.stats.SnapshotBytes += uint64(len(b))
	return nil
}

// Err returns the sticky I/O error, if any.
func (cp *Checkpointer) Err() error { return cp.err }

// Stats returns a copy of the activity counters.
func (cp *Checkpointer) Stats() Stats { return cp.stats }

// Close syncs and closes the journal, returning the sticky error if one
// occurred during the run.
func (cp *Checkpointer) Close() error {
	cerr := cp.jw.close()
	if cp.err != nil {
		return cp.err
	}
	return cerr
}
