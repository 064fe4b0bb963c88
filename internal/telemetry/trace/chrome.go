package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"

	"rdasched/internal/sim"
)

// Chrome trace-event export. The format is the JSON object form of the
// Trace Event Format (the chrome://tracing and Perfetto legacy-JSON
// loader): a "traceEvents" array of complete ("X") and instant ("i")
// events with microsecond timestamps. Mapping:
//
//   - pid = rep*1000 + proc, so each replication renders as its own
//     process group and each simulated process as a track group;
//   - tid = phase index, so a process's phases stack as rows and one
//     (proc, phase) never overlaps itself;
//   - a waitlisted period renders as a "wait" slice (Begin→Admit)
//     followed by a "period" slice (Admit→End); an immediately admitted
//     period renders as the "period" slice alone;
//   - rejects and late ends render as instant events.
//
// The document is appended into one byte slice, reused across documents
// through a sync.Pool, in exactly the layout
// json.MarshalIndent(doc, "", " ") gives the event structs of the
// reference encoder in oracle_test.go: fields in declaration order,
// "dur" and "s" omitted when zero or empty, args in sorted key order,
// numbers in encoding/json's float form and strings with its HTML-safe
// escapes (AppendJSONFloat and AppendJSONString, which the blame
// package's HTML payload shares). A trace is therefore byte-for-byte
// deterministic in its spans.

// usec converts virtual picoseconds to trace microseconds.
func usec[T ~int64](v T) float64 { return float64(v) / 1e6 }

// Counter is one sample on a Perfetto counter track (a ph:"C" event).
// The SLO burn-rate timeline exports this way so burn renders as a
// graph above the decision spans.
type Counter struct {
	// Name is the track name; samples sharing a (Pid, Name) pair form
	// one track.
	Name string
	// At is the sample's virtual timestamp.
	At sim.Time
	// Value is the sampled value.
	Value float64
	// Pid groups the track with a span process group (rep*1000 + proc
	// convention; 0 for run-global tracks).
	Pid int
}

// WriteChromeWithCounters writes spans plus counter tracks as one
// Chrome trace-event JSON object. WriteChrome's encoding is pinned by
// goldens, so counters extend the document through this separate entry
// point: with no counters the output is byte-identical to WriteChrome.
func WriteChromeWithCounters(w io.Writer, spans []Span, counters []Counter) error {
	return writeChromeDoc(w, spans, counters)
}

// WriteChrome writes the spans as a Chrome trace-event JSON object. The
// whole document is encoded, checked with json.Valid and its events
// counted before anything is written, and then written in one call, so a
// non-nil return guarantees w received either nothing or a complete,
// valid document.
func WriteChrome(w io.Writer, spans []Span) error {
	return writeChromeDoc(w, spans, nil)
}

// encoders holds chromeEncoders, and so their document buffers, between
// documents.
var encoders = sync.Pool{New: func() any { return new(chromeEncoder) }}

func writeChromeDoc(w io.Writer, spans []Span, counters []Counter) error {
	e := encoders.Get().(*chromeEncoder)
	defer encoders.Put(e)
	*e = chromeEncoder{
		// Room for a waited span's two events and a counter event, so a
		// typical document is appended without regrowing.
		buf:  slices.Grow(e.buf[:0], 64+512*len(spans)+192*len(counters)),
		name: slices.Grow(e.name[:0], 64),
	}
	e.buf = append(e.buf, "{\n \"traceEvents\": ["...)
	for i := range spans {
		e.span(&spans[i])
	}
	for _, c := range counters {
		e.name = append(e.name[:0], c.Name...)
		e.begin(e.name, "counter", "C", usec(c.At), 0, c.Pid, 0, "")
		e.firstArg("value")
		e.float(c.Value)
		e.end()
	}
	if e.events > 0 {
		e.buf = append(e.buf, "\n ]"...)
	} else {
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, ",\n \"displayTimeUnit\": \"ms\"\n}\n"...)
	if e.err != nil {
		return fmt.Errorf("trace: %w", e.err)
	}
	if err := checkDoc(e.buf, e.events); err != nil {
		return err
	}
	_, err := w.Write(e.buf)
	return err
}

// checkDoc returns an error unless data is one valid JSON document
// holding exactly events trace events. Valid JSON has no raw newline
// inside a string, so a '{' followed by one opens an object, and in the
// encoder's layout only an event's brace is followed by the newline,
// three spaces and a quote (the document's has one space, an args
// object's four): the count needs no decoding. The brace is rarer than
// the newline, so bytes.Count skips ahead faster on it.
func checkDoc(data []byte, events int) error {
	if !json.Valid(data) {
		// Only a broken encoder gets here; decoding once more names the
		// first bad byte.
		return fmt.Errorf("trace: encoded document does not re-parse: %w",
			json.Unmarshal(data, new(json.RawMessage)))
	}
	if n := bytes.Count(data, []byte("{\n   \"")); n != events {
		return fmt.Errorf("trace: encoded document lost events: %d != %d", n, events)
	}
	return nil
}

// chromeEncoder appends trace events to buf. err keeps the first value
// encoding/json would refuse (a NaN or infinite number), in document
// order.
type chromeEncoder struct {
	buf    []byte
	name   []byte // scratch for the event name
	events int
	err    error
}

// span appends a span's events: one instant mark, or an optional wait
// slice followed by the period slice (none for an unfinished period).
func (e *chromeEncoder) span(sp *Span) {
	pid := sp.Rep*1000 + sp.Proc
	name := e.name[:0]
	if sp.Proc < 0 {
		// Governor ladder transitions: period-less marks with the level
		// in Phase; render them on their own track.
		name = append(name, "governor"...)
	} else {
		name = append(name, "proc"...)
		name = strconv.AppendInt(name, int64(sp.Proc), 10)
		name = append(name, "/phase"...)
		name = strconv.AppendInt(name, int64(sp.Phase), 10)
	}
	e.name = name
	if sp.Close == "instant" {
		e.begin(append(append(name, ' '), sp.Outcome...), "mark", "i", usec(sp.Begin), 0, pid, sp.Phase, "t")
		e.firstArg("demand_bytes")
		e.buf = strconv.AppendInt(e.buf, int64(sp.Demand), 10)
		if sp.Outcome == "place" || sp.Outcome == "steal" {
			// Domain decisions carry their target; other marks keep
			// their historical shape byte for byte.
			e.arg("domain")
			e.buf = strconv.AppendInt(e.buf, int64(sp.Domain), 10)
		}
		e.end()
		return
	}
	if w := sp.Wait(); w > 0 {
		e.begin(append(name, " wait"...), "wait", "X", usec(sp.Begin), usec(w), pid, sp.Phase, "")
		e.firstArg("demand_bytes")
		e.buf = strconv.AppendInt(e.buf, int64(sp.Demand), 10)
		e.arg("outcome")
		e.buf = AppendJSONString(e.buf, sp.Outcome)
		e.end()
	}
	if sp.Outcome == "unfinished" {
		return
	}
	e.begin(name, "period", "X", usec(sp.Admit), usec(sp.Run()), pid, sp.Phase, "")
	e.firstArg("close")
	e.buf = AppendJSONString(e.buf, sp.Close)
	e.arg("demand_bytes")
	e.buf = strconv.AppendInt(e.buf, int64(sp.Demand), 10)
	e.arg("id")
	e.buf = strconv.AppendInt(e.buf, int64(sp.ID), 10)
	e.arg("load_bytes")
	e.buf = strconv.AppendInt(e.buf, int64(sp.Load), 10)
	e.arg("outcome")
	e.buf = AppendJSONString(e.buf, sp.Outcome)
	e.arg("wait_us")
	e.float(usec(sp.Wait()))
	e.end()
}

// begin appends an event's fields up to its args; cat and ph are
// literals that need no escaping.
func (e *chromeEncoder) begin(name []byte, cat, ph string, ts, dur float64, pid, tid int, s string) {
	if e.events > 0 {
		e.buf = append(e.buf, ',')
	}
	e.events++
	e.buf = append(e.buf, "\n  {\n   \"name\": "...)
	e.buf = AppendJSONString(e.buf, name)
	e.buf = append(e.buf, ",\n   \"cat\": \""...)
	e.buf = append(e.buf, cat...)
	e.buf = append(e.buf, "\",\n   \"ph\": \""...)
	e.buf = append(e.buf, ph...)
	e.buf = append(e.buf, "\",\n   \"ts\": "...)
	e.float(ts)
	if dur != 0 {
		e.buf = append(e.buf, ",\n   \"dur\": "...)
		e.float(dur)
	}
	e.buf = append(e.buf, ",\n   \"pid\": "...)
	e.buf = strconv.AppendInt(e.buf, int64(pid), 10)
	e.buf = append(e.buf, ",\n   \"tid\": "...)
	e.buf = strconv.AppendInt(e.buf, int64(tid), 10)
	if s != "" {
		e.buf = append(e.buf, ",\n   \"s\": "...)
		e.buf = AppendJSONString(e.buf, s)
	}
}

// firstArg opens the args object with its first key; arg appends each
// later key. Callers pass keys in sorted order, as encoding/json sorts
// map keys.
func (e *chromeEncoder) firstArg(key string) {
	e.buf = append(e.buf, ",\n   \"args\": {\n    \""...)
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, "\": "...)
}

func (e *chromeEncoder) arg(key string) {
	e.buf = append(e.buf, ",\n    \""...)
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, "\": "...)
}

// end closes the args object and the event.
func (e *chromeEncoder) end() {
	e.buf = append(e.buf, "\n   }\n  }"...)
}

// float appends f through AppendJSONFloat; the first non-finite value
// becomes e.err, and the document is dropped.
func (e *chromeEncoder) float(f float64) {
	var err error
	if e.buf, err = AppendJSONFloat(e.buf, f); err != nil && e.err == nil {
		e.err = err
	}
}

// AppendJSONFloat appends f as encoding/json encodes a float64: shortest
// 'f' form for 1e-6 <= |f| < 1e21 (and zero), shortest 'e' form
// otherwise with a negative exponent's leading zero dropped. NaN and ±Inf
// have no JSON form: for them dst comes back unchanged with the error
// json.Marshal returns.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f),
			Str:   strconv.FormatFloat(f, 'g', -1, 64),
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendJSONString appends s as the JSON string literal json.Marshal
// gives. Printable ASCII without the characters encoding/json escapes
// (quote, backslash, and the HTML-unsafe <, >, &) is copied; anything
// else — control bytes, U+2028/U+2029, invalid UTF-8 — is quoted by
// json.Marshal itself.
func AppendJSONString[T string | []byte](dst []byte, s T) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(string(s)) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
