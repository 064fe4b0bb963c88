package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// sampleRecords builds n distinguishable records.
func sampleRecords(n int) []core.ReplayRecord {
	recs := make([]core.ReplayRecord, n)
	for i := range recs {
		recs[i] = core.ReplayRecord{
			At:     sim.Time(0).Add(sim.Duration(i+1) * sim.FromSeconds(0.001)),
			Kind:   core.RecAdmit,
			Domain: i % 2,
			ID:     pp.ID(i + 1),
			Proc:   i,
			Phase:  1,
		}
	}
	return recs
}

// encodeRecords frames records with sequence numbers 1..n.
func encodeRecords(tb testing.TB, recs []core.ReplayRecord) []byte {
	tb.Helper()
	var buf []byte
	for i := range recs {
		p, err := json.Marshal(&recs[i])
		if err != nil {
			tb.Fatalf("marshal: %v", err)
		}
		buf = appendFrame(buf, uint64(i+1), p)
	}
	return buf
}

// wantPrefix asserts the decode result is exactly the first n of want.
func wantPrefix(t *testing.T, recs []core.ReplayRecord, want []core.ReplayRecord, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("decoded %d records, want %d", len(recs), n)
	}
	for i := range recs {
		if recs[i] != want[i] {
			t.Fatalf("record %d decoded as %+v, want %+v", i, recs[i], want[i])
		}
	}
}

func TestDecodeJournalClean(t *testing.T) {
	want := sampleRecords(3)
	data := encodeRecords(t, want)
	recs, truncated, reason := DecodeJournal(data)
	if truncated {
		t.Fatalf("clean journal reported truncation: %s", reason)
	}
	wantPrefix(t, recs, want, 3)
}

func TestDecodeJournalEmpty(t *testing.T) {
	recs, truncated, _ := DecodeJournal(nil)
	if truncated || len(recs) != 0 {
		t.Fatalf("empty journal: recs=%d truncated=%v", len(recs), truncated)
	}
}

func TestDecodeJournalTornTail(t *testing.T) {
	want := sampleRecords(3)
	data := encodeRecords(t, want)
	for cut := 1; cut < 16; cut++ {
		recs, truncated, reason := DecodeJournal(data[:len(data)-cut])
		if !truncated {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if reason == "" {
			t.Fatalf("cut %d: truncated without a reason", cut)
		}
		wantPrefix(t, recs, want, 2)
	}
}

func TestDecodeJournalBadCRC(t *testing.T) {
	want := sampleRecords(3)
	data := encodeRecords(t, want)
	// Flip the last byte: the CRC tail of the final frame.
	data[len(data)-1] ^= 0xff
	recs, truncated, reason := DecodeJournal(data)
	if !truncated || !strings.Contains(reason, "checksum") {
		t.Fatalf("flipped CRC: truncated=%v reason=%q", truncated, reason)
	}
	wantPrefix(t, recs, want, 2)
}

// TestDecodeJournalNonMonotoneSeq pins that record i is the frame with
// sequence number i+1: the reader truncates at a frame that repeats a
// sequence number (spliced or rewound) or skips one (a frame dropped
// from the middle), each with a valid checksum.
func TestDecodeJournalNonMonotoneSeq(t *testing.T) {
	want := sampleRecords(3)
	for _, tc := range []struct {
		name string
		seqs []uint64
		keep int
	}{
		{"repeated-seq", []uint64{1, 2, 2}, 2},
		{"skipped-seq", []uint64{1, 3, 4}, 1},
		{"first-seq-not-1", []uint64{2, 3, 4}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var data []byte
			for i, seq := range tc.seqs {
				p, err := json.Marshal(&want[i])
				if err != nil {
					t.Fatal(err)
				}
				data = appendFrame(data, seq, p)
			}
			recs, truncated, reason := DecodeJournal(data)
			if !truncated || !strings.Contains(reason, "sequence") {
				t.Fatalf("seqs %v: truncated=%v reason=%q", tc.seqs, truncated, reason)
			}
			wantPrefix(t, recs, want, tc.keep)
		})
	}
}

func TestDecodeJournalOversizeLength(t *testing.T) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxFrame+1)
	binary.LittleEndian.PutUint64(hdr[4:12], 1)
	recs, truncated, reason := DecodeJournal(hdr[:])
	if !truncated || !strings.Contains(reason, "exceeds") {
		t.Fatalf("oversize length: truncated=%v reason=%q", truncated, reason)
	}
	if len(recs) != 0 {
		t.Fatalf("decoded %d records from a poisoned header", len(recs))
	}
}

func TestDecodeJournalUndecodableRecord(t *testing.T) {
	want := sampleRecords(1)
	data := encodeRecords(t, want)
	// A frame whose payload passes the checksum but is not a record.
	data = appendFrame(data, 2, []byte("{"))
	recs, truncated, reason := DecodeJournal(data)
	if !truncated || !strings.Contains(reason, "undecodable") {
		t.Fatalf("bad payload: truncated=%v reason=%q", truncated, reason)
	}
	wantPrefix(t, recs, want, 1)
}

// TestDecodeJournalSingleByteFlips pins the fail-closed property the
// checksums exist for: flipping any single byte of a valid journal must
// yield a strict prefix of the original records — never a record with
// different content, never more records.
func TestDecodeJournalSingleByteFlips(t *testing.T) {
	want := sampleRecords(3)
	orig := encodeRecords(t, want)
	for pos := range orig {
		data := append([]byte(nil), orig...)
		data[pos] ^= 0xff
		recs, truncated, _ := DecodeJournal(data)
		if !truncated || len(recs) >= len(want) {
			t.Fatalf("pos %d: decoded %d of 3 records, truncated %v", pos, len(recs), truncated)
		}
		wantPrefix(t, recs, want, len(recs))
	}
}

func TestDecodeJournalLargeRecord(t *testing.T) {
	// One record whose payload spans many reader buffers still frames
	// and decodes in one piece.
	rec := core.ReplayRecord{Kind: core.RecKind(strings.Repeat("x", 1<<16)), Domain: -1}
	data := encodeRecords(t, []core.ReplayRecord{rec})
	recs, truncated, reason := DecodeJournal(data)
	if truncated {
		t.Fatalf("valid frame truncated: %s", reason)
	}
	wantPrefix(t, recs, []core.ReplayRecord{rec}, 1)
}

// TestAppendRecordMatchesMarshal requires the checkpointer's record
// encoder to give json.Marshal's bytes for every record kind, for kinds
// json.Marshal escapes, and for each field's boundary values, and a
// checkpointer to append a record without allocating.
func TestAppendRecordMatchesMarshal(t *testing.T) {
	kinds := []core.RecKind{
		core.RecBegin, core.RecAdmit, core.RecDeny, core.RecWake, core.RecJoin,
		core.RecWaitJoin, core.RecLeave, core.RecEnd, core.RecReclaim, core.RecFallback,
		core.RecReject, core.RecLateEnd, core.RecQuarantine, core.RecReserve, core.RecGovTick,
		core.RecPlace, core.RecUnmap, core.RecSteal, core.RecStealTick,
		"", "x", `q"u\o<t>e&`, "nul\x00tab\tnl\n", "line\u2028sep", "bad\xff\xfe", "é",
	}
	var recs []core.ReplayRecord
	for i, k := range kinds {
		recs = append(recs, core.ReplayRecord{At: sim.Time(i) * 1e9, Kind: k, Domain: i % 3, ID: pp.ID(i), Proc: i, Phase: i % 4})
	}
	recs = append(recs,
		core.ReplayRecord{},
		core.ReplayRecord{At: math.MaxInt64, Kind: core.RecGovTick, Domain: -1, ID: 0, Proc: -1, Phase: -1},
		core.ReplayRecord{At: 0, Kind: core.RecPlace, Domain: -1, ID: math.MaxUint64, Proc: -1, Phase: -1},
		core.ReplayRecord{At: math.MaxInt64, Kind: core.RecEnd, Domain: math.MaxInt, ID: math.MaxUint64, Proc: math.MaxInt, Phase: math.MaxInt},
	)
	var buf []byte
	for _, r := range recs {
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		if buf = appendRecord(buf[:0], &r); !bytes.Equal(buf, want) {
			t.Fatalf("record %+v:\n got  %s\n want %s", r, buf, want)
		}
	}

	cp, err := Attach(Config{Dir: t.TempDir()}, zeroState{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	cp.Replay(recs[0]) // sizes the reused buffers
	if n := testing.AllocsPerRun(100, func() { cp.Replay(recs[len(recs)-1]) }); n != 0 {
		t.Fatalf("Replay allocates %v times per record, want 0", n)
	}
	if err := cp.Err(); err != nil {
		t.Fatal(err)
	}
}

// zeroState exports the zero gate state.
type zeroState struct{}

func (zeroState) ExportState() core.State { return core.State{} }
