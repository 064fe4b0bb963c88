package memtrace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary trace format — the artifact a PIN-style instrumentation run
// would leave on disk, so traces can be captured once and profiled many
// times (cmd/ppprof's -dump/-load flags).
//
// Layout (little endian):
//
//	magic   [4]byte  "RDAT"
//	version uint16   (1)
//	count   uint64   number of records
//	records: instr uint64, addr uint64, flags uint8, site int32
//	         (flags bit0 = store, bit1 = jump; site only meaningful for
//	          jumps but always present — fixed 21-byte records keep the
//	          reader trivially seekable)
const (
	traceMagic   = "RDAT"
	traceVersion = 1
	recordBytes  = 8 + 8 + 1 + 4
)

const (
	flagStore = 1 << 0
	flagJump  = 1 << 1
)

// WriteStream drains a Stream to w without materializing it; it returns
// the number of records written. Because the header carries a count, the
// stream is first drained in chunks to a buffered writer and the count
// back-patched — which requires an io.WriteSeeker.
func WriteStream(w io.WriteSeeker, s Stream) (uint64, error) {
	if _, err := io.WriteString(w, traceMagic); err != nil {
		return 0, err
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(traceVersion)); err != nil {
		return 0, err
	}
	countPos, err := w.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(0)); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	var rec [recordBytes]byte
	var n uint64
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(rec[0:], r.Instr)
		binary.LittleEndian.PutUint64(rec[8:], r.Addr)
		var flags byte
		if r.Store {
			flags |= flagStore
		}
		if r.IsJump {
			flags |= flagJump
		}
		rec[16] = flags
		binary.LittleEndian.PutUint32(rec[17:], uint32(int32(r.JumpSite)))
		if _, err := bw.Write(rec[:]); err != nil {
			return 0, err
		}
		n++
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if _, err := w.Seek(countPos, io.SeekStart); err != nil {
		return 0, err
	}
	if err := binary.Write(w, binary.LittleEndian, n); err != nil {
		return 0, err
	}
	_, err = w.Seek(0, io.SeekEnd)
	return n, err
}

// readHeader consumes and validates the header, returning the record
// count.
func readHeader(r io.Reader) (uint64, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, fmt.Errorf("memtrace: reading magic: %w", err)
	}
	if string(magic[:]) != traceMagic {
		return 0, fmt.Errorf("memtrace: bad magic %q", magic)
	}
	var version uint16
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return 0, fmt.Errorf("memtrace: reading version: %w", err)
	}
	if version != traceVersion {
		return 0, fmt.Errorf("memtrace: unsupported trace version %d", version)
	}
	var count uint64
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return 0, fmt.Errorf("memtrace: reading count: %w", err)
	}
	return count, nil
}

func decodeRecord(rec [recordBytes]byte) Ref {
	return Ref{
		Instr:    binary.LittleEndian.Uint64(rec[0:]),
		Addr:     binary.LittleEndian.Uint64(rec[8:]),
		Store:    rec[16]&flagStore != 0,
		IsJump:   rec[16]&flagJump != 0,
		JumpSite: int(int32(binary.LittleEndian.Uint32(rec[17:]))),
	}
}

// FileStream reads a serialized trace incrementally, implementing Stream
// without materializing the records.
type FileStream struct {
	br   *bufio.Reader
	left uint64
	fail error
}

// NewFileStream validates the header and returns a streaming reader.
func NewFileStream(r io.Reader) (*FileStream, error) {
	count, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	return &FileStream{br: bufio.NewReaderSize(r, 1<<16), left: count}, nil
}

// Err returns the first decode error encountered (io problems surface as
// an early end of stream plus a non-nil Err).
func (f *FileStream) Err() error { return f.fail }

// Next implements Stream.
func (f *FileStream) Next() (Ref, bool) {
	if f.left == 0 || f.fail != nil {
		return Ref{}, false
	}
	var rec [recordBytes]byte
	if _, err := io.ReadFull(f.br, rec[:]); err != nil {
		f.fail = fmt.Errorf("memtrace: truncated trace (%d records short): %w", f.left, err)
		return Ref{}, false
	}
	f.left--
	return decodeRecord(rec), true
}
