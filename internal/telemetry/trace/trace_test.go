package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

func demand(mb float64) pp.Demand {
	return pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(mb), Reuse: pp.ReuseHigh}
}

func at(ms int) sim.Time { return sim.Time(ms) * sim.Time(sim.Millisecond) }

// TestCollectorSpanAssembly feeds a synthetic decision stream covering
// every lifecycle shape and checks the resulting spans.
func TestCollectorSpanAssembly(t *testing.T) {
	c := NewCollector()
	d := demand(4)

	// Period 1: immediate admit, clean end.
	c.Record(core.Event{At: at(0), Kind: core.EventBegin, ID: 1, Proc: 0, Phase: 0, Demand: d})
	c.Record(core.Event{At: at(0), Kind: core.EventAdmit, ID: 1, Proc: 0, Phase: 0, Demand: d})
	// Period 2: denied, woken later, then reclaimed.
	c.Record(core.Event{At: at(1), Kind: core.EventBegin, ID: 2, Proc: 1, Phase: 0, Demand: d})
	c.Record(core.Event{At: at(1), Kind: core.EventDeny, ID: 2, Proc: 1, Phase: 0, Demand: d})
	c.Record(core.Event{At: at(10), Kind: core.EventEnd, ID: 1, Proc: 0, Phase: 0, Demand: d})
	c.Record(core.Event{At: at(10), Kind: core.EventWake, ID: 2, Proc: 1, Phase: 0, Demand: d, Wait: 9 * sim.Millisecond})
	c.Record(core.Event{At: at(30), Kind: core.EventReclaim, ID: 2, Proc: 1, Phase: 0, Demand: d})
	// A late end for the reclaimed period: instant mark.
	c.Record(core.Event{At: at(31), Kind: core.EventLateEnd, Proc: 1, Phase: 0, Demand: d})
	// Period 3: still waiting when the run ends.
	c.Record(core.Event{At: at(5), Kind: core.EventBegin, ID: 3, Proc: 2, Phase: 1, Demand: d})
	c.Record(core.Event{At: at(5), Kind: core.EventDeny, ID: 3, Proc: 2, Phase: 1, Demand: d})
	c.Finish(at(40))

	spans := c.Spans()
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4:\n%+v", len(spans), spans)
	}

	s1 := spans[0]
	if s1.ID != 1 || s1.Outcome != "admit" || s1.Close != "end" {
		t.Fatalf("span 1 = %+v", s1)
	}
	if s1.Wait() != 0 || s1.Run() != 10*sim.Millisecond {
		t.Fatalf("span 1 wait/run = %v/%v", s1.Wait(), s1.Run())
	}

	s2 := spans[1]
	if s2.ID != 2 || s2.Outcome != "wake" || s2.Close != "reclaim" {
		t.Fatalf("span 2 = %+v", s2)
	}
	if s2.Wait() != 9*sim.Millisecond || s2.Run() != 20*sim.Millisecond {
		t.Fatalf("span 2 wait/run = %v/%v", s2.Wait(), s2.Run())
	}

	mark := spans[2]
	if mark.Outcome != "late-end" || mark.Close != "instant" {
		t.Fatalf("mark = %+v", mark)
	}

	s3 := spans[3]
	if s3.ID != 3 || s3.Outcome != "unfinished" || s3.Close != "open" {
		t.Fatalf("span 3 = %+v", s3)
	}
	if s3.Wait() != 35*sim.Millisecond || s3.Run() != 0 {
		t.Fatalf("span 3 wait/run = %v/%v", s3.Wait(), s3.Run())
	}
}

// TestCollectorRejectMarksUntracked checks the invalid-demand path: a
// begin followed by a reject marks the span's outcome and it still
// closes on its end event.
func TestCollectorRejectMarksUntracked(t *testing.T) {
	c := NewCollector()
	d := demand(0)
	c.Record(core.Event{At: at(0), Kind: core.EventBegin, ID: 7, Proc: 3, Phase: 2, Demand: d})
	c.Record(core.Event{At: at(0), Kind: core.EventReject, ID: 7, Proc: 3, Phase: 2, Demand: d})
	c.Record(core.Event{At: at(4), Kind: core.EventEnd, ID: 7, Proc: 3, Phase: 2, Demand: d})
	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].Outcome != "reject" || spans[0].Close != "end" {
		t.Fatalf("span = %+v", spans[0])
	}
	// A second reject on an already-classified period is a mark.
	c.Record(core.Event{At: at(5), Kind: core.EventReject, ID: 0, Proc: 3, Phase: 2, Demand: d})
	if got := c.Spans(); len(got) != 2 || got[1].Close != "instant" {
		t.Fatalf("expected instant mark, got %+v", got)
	}
}

// TestWriteChromeValidAndDeterministic renders a span set twice and
// parses the result as the Chrome trace-event object form.
func TestWriteChromeValidAndDeterministic(t *testing.T) {
	spans := []Span{
		{Rep: 0, ID: 1, Proc: 0, Phase: 0, Begin: at(0), Admit: at(0), End: at(10),
			Outcome: "admit", Close: "end", Demand: pp.MB(4), Load: pp.MB(4)},
		{Rep: 1, ID: 2, Proc: 1, Phase: 0, Begin: at(1), Admit: at(10), End: at(30),
			Outcome: "wake", Close: "end", Demand: pp.MB(6), Load: 0},
		{Rep: 0, Proc: 2, Phase: 1, Begin: at(2), Admit: at(2), End: at(2),
			Outcome: "late-end", Close: "instant", Demand: pp.MB(1)},
	}
	var b1, b2 bytes.Buffer
	if err := WriteChrome(&b1, spans); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b2, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("trace output is not deterministic")
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// Span 2 waited: wait slice + period slice. Span 1: period slice.
	// Span 3: instant. Total 4 events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4:\n%s", len(doc.TraceEvents), b1.String())
	}
	// The waiting span renders in rep 1's pid namespace.
	var sawWait, sawInstant bool
	for _, e := range doc.TraceEvents {
		switch {
		case strings.HasSuffix(e.Name, " wait"):
			sawWait = true
			if e.Pid != 1001 {
				t.Fatalf("wait slice pid = %d, want 1001 (rep 1, proc 1)", e.Pid)
			}
			if e.Dur != 9000 { // 9 ms in µs
				t.Fatalf("wait dur = %v µs, want 9000", e.Dur)
			}
		case e.Ph == "i":
			sawInstant = true
		}
	}
	if !sawWait || !sawInstant {
		t.Fatalf("missing wait or instant event:\n%s", b1.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
}

// TestWriteChromeEmpty writes an empty but valid document.
func TestWriteChromeEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := WriteChrome(&b, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatalf("missing traceEvents: %s", b.String())
	}
}

// TestCheckDocRefusesBrokenDocuments feeds the document check what a
// broken encoder could produce: a dropped comma between events, a
// truncated document, an unescaped newline inside a string, and a valid
// document whose event count disagrees with the encoder's.
func TestCheckDocRefusesBrokenDocuments(t *testing.T) {
	spans := []Span{
		{ID: 1, Begin: at(0), Admit: at(3), End: at(10), Outcome: "wake", Close: "end", Demand: pp.MB(4)},
		{ID: 2, Proc: 1, Begin: at(1), Admit: at(1), End: at(5), Outcome: "admit", Close: "end"},
	}
	var b bytes.Buffer
	if err := WriteChrome(&b, spans); err != nil {
		t.Fatal(err)
	}
	doc := b.Bytes()
	if err := checkDoc(doc, 3); err != nil {
		t.Fatalf("valid three-event document refused: %v", err)
	}
	noComma := bytes.Replace(doc, []byte("},\n  {"), []byte("}\n  {"), 1)
	newline := bytes.Replace(doc, []byte(`"proc0/phase0 wait"`), []byte("\"proc0/phase0\n  {wait\""), 1)
	for name, c := range map[string]struct {
		data   []byte
		events int
		want   string
	}{
		"dropped comma":  {noComma, 3, "does not re-parse"},
		"truncated":      {doc[:len(doc)-3], 3, "does not re-parse"},
		"raw newline":    {newline, 3, "does not re-parse"},
		"event miscount": {doc, 2, "lost events: 3 != 2"},
	} {
		if err := checkDoc(c.data, c.events); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, c.want)
		}
	}
}
