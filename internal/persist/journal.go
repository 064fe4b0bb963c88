// Package persist makes the scheduler stack crash-safe on the virtual
// clock: an append-only decision journal (every admission decision as a
// length-prefixed, CRC-32C-checksummed record), periodic full-state
// snapshots, and a restore path that loads the newest valid snapshot
// and the journal. A revival (internal/perf) re-executes the killed run
// from t=0, checks every decision it makes against the journal's record
// of the same sequence number, and checks the gate's full state against
// the snapshot at the record the snapshot was cut after.
//
// Durability model: the journal is appended one frame per record, so a
// process death tears at most the final frame; the reader truncates at
// the first frame that is short, oversized, fails its checksum, or does
// not carry the next sequence number. Snapshots are written to a temp
// file and renamed into place, so a snapshot either exists wholly or not
// at all. Everything past the truncation point is re-derived by
// re-executing the run up to the kill point (the simulation is
// deterministic), so restore needs no fsync-per-record guarantees — a
// valid prefix is sufficient, and CRC-32C decides validity.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"rdasched/internal/core"
)

// FormatVersion identifies the on-disk layout (meta.json, journal
// framing and record encoding, snapshot encoding). Restore refuses
// other versions, among them version 1, whose records carried state
// patches.
const FormatVersion = 2

// maxFrame bounds a single journal payload; a length prefix beyond it
// is treated as corruption (truncate), not as an allocation request.
const maxFrame = 16 << 20

// Journal file framing:
//
//	uint32 LE payload length | uint64 LE sequence | payload (JSON) |
//	uint32 LE CRC-32C over (sequence bytes || payload)
//
// Sequence numbers start at 1 and rise by exactly 1 per frame; the CRC
// covers the sequence so a frame spliced from another position (or
// another journal) fails closed.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame encodes one frame into buf and returns the extended
// slice.
func appendFrame(buf []byte, seq uint64, payload []byte) []byte {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[4:12], seq)
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	crc := crc32.Update(0, crcTable, hdr[4:12])
	crc = crc32.Update(crc, crcTable, payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(buf, tail[:]...)
}

// frameReader iterates a journal stream, truncating (not erroring) at
// the first invalid frame.
type frameReader struct {
	r       *bufio.Reader
	lastSeq uint64

	// Truncation report: set once reading stops early.
	Truncated bool
	Reason    string
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// next returns the next valid frame's sequence and payload; ok=false at
// clean EOF or at the truncation point (check Truncated to tell apart).
func (fr *frameReader) next() (seq uint64, payload []byte, ok bool) {
	var hdr [12]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err == io.EOF {
		return 0, nil, false // clean end
	} else if err != nil {
		fr.trunc(fmt.Sprintf("short header: %v", err))
		return 0, nil, false
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		fr.trunc(fmt.Sprintf("short header: %v", err))
		return 0, nil, false
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	seq = binary.LittleEndian.Uint64(hdr[4:12])
	if n > maxFrame {
		fr.trunc(fmt.Sprintf("frame length %d exceeds limit", n))
		return 0, nil, false
	}
	if seq != fr.lastSeq+1 {
		fr.trunc(fmt.Sprintf("sequence %d after %d", seq, fr.lastSeq))
		return 0, nil, false
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		fr.trunc(fmt.Sprintf("short payload: %v", err))
		return 0, nil, false
	}
	var tail [4]byte
	if _, err := io.ReadFull(fr.r, tail[:]); err != nil {
		fr.trunc(fmt.Sprintf("short checksum: %v", err))
		return 0, nil, false
	}
	crc := crc32.Update(0, crcTable, hdr[4:12])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != binary.LittleEndian.Uint32(tail[:]) {
		fr.trunc(fmt.Sprintf("checksum mismatch on frame %d", seq))
		return 0, nil, false
	}
	fr.lastSeq = seq
	return seq, payload, true
}

func (fr *frameReader) trunc(reason string) {
	fr.Truncated = true
	fr.Reason = reason
}

// DecodeJournal reads every valid frame from data and returns the
// decoded records, record i carrying sequence number i+1, plus the
// truncation report. Frames whose payload is valid framing but not a
// decodable record count as corruption at that point (truncate there).
// It never panics on arbitrary input — the FuzzJournalDecode target
// pins that.
func DecodeJournal(data []byte) (recs []core.ReplayRecord, truncated bool, reason string) {
	fr := newFrameReader(bytes.NewReader(data))
	for {
		seq, payload, ok := fr.next()
		if !ok {
			return recs, fr.Truncated, fr.Reason
		}
		var rec core.ReplayRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, true, fmt.Sprintf("undecodable record %d: %v", seq, err)
		}
		recs = append(recs, rec)
	}
}

// journalWriter appends frames to a file, one write per record.
type journalWriter struct {
	f   *os.File
	buf []byte
}

func openJournal(path string) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &journalWriter{f: f}, nil
}

// append frames and writes one record; it returns the frame size.
func (w *journalWriter) append(seq uint64, payload []byte) (int, error) {
	w.buf = appendFrame(w.buf[:0], seq, payload)
	if _, err := w.f.Write(w.buf); err != nil {
		return 0, err
	}
	return len(w.buf), nil
}

func (w *journalWriter) close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
