package memtrace

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"rdasched/internal/pp"
)

// dump writes s to a fresh trace file and returns its path and the
// record count WriteStream reported.
func dump(t *testing.T, s Stream) (string, uint64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.rdat")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := WriteStream(f, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, n
}

// load streams a trace image back and returns every record read and the
// stream's final error.
func load(t *testing.T, image []byte) ([]Ref, error) {
	t.Helper()
	fs, err := NewFileStream(bytes.NewReader(image))
	if err != nil {
		return nil, err
	}
	refs := Collect(fs, 0)
	return refs, fs.Err()
}

// dumpImage writes refs through WriteStream and returns the file bytes.
func dumpImage(t *testing.T, refs []Ref) []byte {
	t.Helper()
	path, _ := dump(t, NewSliceStream(refs))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTraceRoundTrip(t *testing.T) {
	refs := []Ref{
		{Instr: 0, Addr: 0x1000},
		{Instr: 5, Addr: 0x2008, Store: true},
		{Instr: 9, IsJump: true, JumpSite: 42},
		{Instr: 12, IsJump: true, JumpSite: -1},
		{Instr: 13, IsJump: true, JumpSite: math.MinInt32},
		{Instr: 14, IsJump: true, JumpSite: math.MaxInt32, Store: true},
		{Instr: 1 << 60, Addr: 1<<63 - 64},
		{Instr: 1<<64 - 1, Addr: 1<<64 - 8, Store: true},
	}
	got, err := load(t, dumpImage(t, refs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("len = %d, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		spec := PhaseSpec{Instr: uint64(n), RefsPerInstr: 0.5, HotBytes: 64 * pp.KiB,
			ColdBytes: 8 * pp.KiB, HotFrac: 0.7, Site: int(seed % 100), JumpEvery: 64}
		want := Collect(NewPhasedStream(seed, spec), 0)
		got, err := load(t, dumpImage(t, want))
		return err == nil && slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceEmptyRoundTrip(t *testing.T) {
	got, err := load(t, dumpImage(t, nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty trace: %v, %d records", err, len(got))
	}
}

func TestTraceBadMagic(t *testing.T) {
	if _, err := NewFileStream(bytes.NewReader([]byte("NOPE\x01\x00"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTraceBadVersion(t *testing.T) {
	b := dumpImage(t, nil)
	b[4] = 99 // version
	if _, err := NewFileStream(bytes.NewReader(b)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestTraceTruncated(t *testing.T) {
	refs := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	b := dumpImage(t, refs)
	got, err := load(t, b[:len(b)-5])
	if err == nil {
		t.Fatal("truncated trace accepted")
	}
	if !slices.Equal(got, refs[:2]) {
		t.Fatalf("read %v before the torn record, want the first two", got)
	}
}

func TestTraceCorruptCountNoOOM(t *testing.T) {
	// A header claiming 2^64-1 records must yield the records present
	// and then fail cleanly, without allocating for the claimed count.
	refs := []Ref{{Addr: 1}}
	b := dumpImage(t, refs)
	for i := 6; i < 14; i++ {
		b[i] = 0xff
	}
	got, err := load(t, b)
	if err == nil {
		t.Fatal("corrupt count accepted")
	}
	if !slices.Equal(got, refs) {
		t.Fatalf("read %v, want the one record present", got)
	}
}

func TestFileStream(t *testing.T) {
	spec := PhaseSpec{Instr: 4096, RefsPerInstr: 0.5, ColdBytes: 4 * pp.KiB, ColdStride: 8}
	path, n := dump(t, NewPhasedStream(3, spec))
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fs, err := NewFileStream(f)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(fs, 0)
	if fs.Err() != nil {
		t.Fatalf("unexpected stream error: %v", fs.Err())
	}
	want := Collect(NewPhasedStream(3, spec), 0)
	if uint64(len(got)) != n || len(got) != len(want) {
		t.Fatalf("streamed %d records, wrote %d, generated %d", len(got), n, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestFileStreamTruncation(t *testing.T) {
	b := dumpImage(t, []Ref{{Addr: 1}, {Addr: 2}})
	fs, err := NewFileStream(bytes.NewReader(b[:len(b)-3]))
	if err != nil {
		t.Fatal(err)
	}
	n := len(Collect(fs, 0))
	if fs.Err() == nil {
		t.Fatalf("truncation not reported (read %d records)", n)
	}
	if _, ok := fs.Next(); ok {
		t.Fatal("stream resumed after a decode error")
	}
}

func TestWriteStreamToFile(t *testing.T) {
	spec := PhaseSpec{
		Name: "p", Instr: 10_000, RefsPerInstr: 0.5,
		HotBytes: 8 * pp.KiB, HotFrac: 1, Site: 3, JumpEvery: 1000,
	}
	path, n := dump(t, NewPhasedStream(1, spec))
	if n == 0 {
		t.Fatal("no records written")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// WriteStream back-patches the header count after draining.
	if count := binary.LittleEndian.Uint64(b[6:14]); count != n {
		t.Fatalf("header count %d, wrote %d", count, n)
	}
	if size := uint64(len(b)); size != 14+n*recordBytes {
		t.Fatalf("file is %d bytes, want %d", size, 14+n*recordBytes)
	}
	got, err := load(t, b)
	if uint64(len(got)) != n || err != nil {
		t.Fatalf("read %d of %d: %v", len(got), n, err)
	}
	// The round-tripped trace must profile identically to the original:
	// same footprint.
	orig := Collect(NewPhasedStream(1, spec), 0)
	if Footprint(got) != Footprint(orig) {
		t.Fatal("round-tripped trace has different footprint")
	}
}
