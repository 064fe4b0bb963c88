package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// The encoding/json exporter the appending encoder replaced, kept as its
// test oracle: spans become structs whose args are map[string]any, and
// the document is json.MarshalIndent-ed, round-trip checked and written
// once. WriteChrome and WriteChromeWithCounters must produce the same
// bytes and the same errors.

type oracleEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type oracleTrace struct {
	TraceEvents     []oracleEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// oracleEvents converts spans to trace events in span order.
func oracleEvents(spans []Span) []oracleEvent {
	events := make([]oracleEvent, 0, len(spans))
	for _, sp := range spans {
		pid := sp.Rep*1000 + sp.Proc
		name := fmt.Sprintf("proc%d/phase%d", sp.Proc, sp.Phase)
		if sp.Proc < 0 {
			// Governor ladder transitions: period-less marks with the
			// level in Phase; render them on their own track.
			name = "governor"
		}
		if sp.Close == "instant" {
			args := map[string]any{"demand_bytes": int64(sp.Demand)}
			if sp.Outcome == "place" || sp.Outcome == "steal" {
				// Domain decisions carry their target; other marks keep
				// their historical shape byte for byte.
				args["domain"] = sp.Domain
			}
			events = append(events, oracleEvent{
				Name: name + " " + sp.Outcome, Cat: "mark", Ph: "i",
				Ts: usec(sp.Begin), Pid: pid, Tid: sp.Phase, S: "t",
				Args: args,
			})
			continue
		}
		if w := sp.Wait(); w > 0 {
			events = append(events, oracleEvent{
				Name: name + " wait", Cat: "wait", Ph: "X",
				Ts: usec(sp.Begin), Dur: usec(w), Pid: pid, Tid: sp.Phase,
				Args: map[string]any{
					"demand_bytes": int64(sp.Demand),
					"outcome":      sp.Outcome,
				},
			})
		}
		if sp.Outcome == "unfinished" {
			continue
		}
		events = append(events, oracleEvent{
			Name: name, Cat: "period", Ph: "X",
			Ts: usec(sp.Admit), Dur: usec(sp.Run()), Pid: pid, Tid: sp.Phase,
			Args: map[string]any{
				"id":           int64(sp.ID),
				"demand_bytes": int64(sp.Demand),
				"outcome":      sp.Outcome,
				"close":        sp.Close,
				"wait_us":      usec(sp.Wait()),
				"load_bytes":   int64(sp.Load),
			},
		})
	}
	return events
}

// oracleWriteChromeWithCounters is WriteChromeWithCounters as the oracle
// encodes it; with no counters it is WriteChrome.
func oracleWriteChromeWithCounters(w io.Writer, spans []Span, counters []Counter) error {
	events := oracleEvents(spans)
	for _, c := range counters {
		events = append(events, oracleEvent{
			Name: c.Name, Cat: "counter", Ph: "C",
			Ts: usec(c.At), Pid: c.Pid,
			Args: map[string]any{"value": c.Value},
		})
	}
	return oracleWriteDoc(w, events)
}

func oracleWriteDoc(w io.Writer, events []oracleEvent) error {
	doc := oracleTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
	}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []oracleEvent{}
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data = append(data, '\n')
	var check struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &check); err != nil {
		return fmt.Errorf("trace: encoded document does not re-parse: %w", err)
	}
	if len(check.TraceEvents) != len(doc.TraceEvents) {
		return fmt.Errorf("trace: round-trip lost events: %d != %d",
			len(check.TraceEvents), len(doc.TraceEvents))
	}
	_, err = w.Write(data)
	return err
}

// Every outcome and close kind a Collector produces, plus names the
// string encoder must escape: markup, quotes, backslashes, control
// bytes, U+2028 and invalid UTF-8.
var (
	oracleOutcomes = []string{
		"admit", "wake", "fallback", "reject", "unfinished", "late-end", "gov-quarantine",
		"gov-degrade", "gov-recover", "gov-restore", "gov-reserve", "place", "steal",
		"evacuate", "domain-fail", "recover", "audit", "<b>&\"x\"", "",
	}
	oracleCloses = []string{"end", "reclaim", "open", "instant", "in\\stant\x01"}
	hostileNames = []string{
		"slo_burn_w0", "<script>&amp;", `"quoted"`, "back\\slash", "ctl\x00\x1f\x7f",
		"sep\u2028\u2029", "bad\xff\xc0", "",
	}
	// Picosecond steps: 0, 1 ps (1e-6 µs, encoding/json's 'f'/'e'
	// boundary), ns, µs, ms, s and hours.
	oracleSteps = []sim.Duration{0, 1, 1e3, 1e6, 1e9, 1e12, 3600e12}
)

// oracleInput decodes fuzz bytes into spans (8 bytes each) and counters.
// Span times run from 0 and 1 ps up to math.MaxInt64 ps (~9.2e12 µs);
// sim.Time cannot reach 1e21 µs, so encoding/json's exponent form is
// exercised through counter values, which also carry v's NaN and ±Inf.
func oracleInput(data []byte, name string, v float64) ([]Span, []Counter) {
	var spans []Span
	for ; len(data) >= 8; data = data[8:] {
		b := data[:8]
		step := oracleSteps[int(b[7])%len(oracleSteps)]
		sp := Span{
			Rep: int(b[7] >> 6), ID: pp.ID(b[4]), Proc: int(int8(b[2])) / 4, Phase: int(b[3] % 8),
			Outcome: oracleOutcomes[int(b[0])%len(oracleOutcomes)],
			Close:   oracleCloses[int(b[1])%len(oracleCloses)],
			Begin:   sim.Time(b[4]) * sim.Time(step),
			Demand:  pp.Bytes(b[5]) << (b[6] % 40), Load: pp.Bytes(b[6]) << 20,
			Domain: int(b[5] % 4),
		}
		sp.Admit = sp.Begin + sim.Time(b[5])*sim.Time(step)
		sp.End = sp.Admit + sim.Time(b[6])*sim.Time(step)
		if b[7]&8 != 0 {
			// Out-of-order times: Wait and Run clamp to zero.
			sp.Admit, sp.End = sp.Begin-1, sp.Begin-2
		}
		if b[7]&16 != 0 {
			sp.End = math.MaxInt64
		}
		spans = append(spans, sp)
	}
	values := []float64{v, v * 1e21, v * 1e-7, -v, 1 / v, 0}
	var counters []Counter
	for i, c := range data {
		counters = append(counters, Counter{
			Name:  name + hostileNames[int(c)%len(hostileNames)],
			At:    sim.Time(c) * sim.Time(oracleSteps[i%len(oracleSteps)]),
			Value: values[(int(c)+i)%len(values)],
			Pid:   int(c) * 1000,
		})
	}
	return spans, counters
}

// checkChromeAgainstOracle writes through both encoders and requires the
// same bytes and the same error; an error must leave w empty.
func checkChromeAgainstOracle(t *testing.T, spans []Span, counters []Counter) {
	t.Helper()
	var got, want bytes.Buffer
	gerr := WriteChromeWithCounters(&got, spans, counters)
	werr := oracleWriteChromeWithCounters(&want, spans, counters)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("WriteChromeWithCounters error %v, oracle %v", gerr, werr)
	}
	if gerr != nil && got.Len() != 0 {
		t.Fatalf("error %v but %d bytes written", gerr, got.Len())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.String(), want.String()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("encoder differs from the oracle at byte %d of %d/%d:\n got  %q\n want %q",
			i, len(g), len(w), g[i:min(i+120, len(g))], w[i:min(i+120, len(w))])
	}
	if len(counters) == 0 {
		var plain bytes.Buffer
		if err := WriteChrome(&plain, spans); err != nil || !bytes.Equal(plain.Bytes(), want.Bytes()) {
			t.Fatalf("WriteChrome differs from the oracle (err %v)", err)
		}
	}
}

func FuzzChromeMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, name string, v float64) {
		spans, counters := oracleInput(data, name, v)
		checkChromeAgainstOracle(t, spans, counters)
	})
}

// TestChromeMatchesOracle runs FuzzChromeMatchesOracle's check over
// every outcome and close kind, governor and domain marks, hostile
// counter names, finite and non-finite values, and the empty trace.
func TestChromeMatchesOracle(t *testing.T) {
	checkChromeAgainstOracle(t, nil, nil)
	var all []byte
	for o := range oracleOutcomes {
		for c := range oracleCloses {
			for _, proc := range []byte{0, 0xfc, 9} { // procs 0, -1, 2
				i := len(all) / 8
				all = append(all, byte(o), byte(c), proc, byte(i), byte(i*7), byte(i*13), byte(i*29), byte(i*31))
			}
		}
	}
	spans, _ := oracleInput(all, "", 0)
	checkChromeAgainstOracle(t, spans, nil)
	// Seven trailing bytes become counters with seven different names
	// and a mix of the values oracleInput derives from v.
	tail := append(all, 0, 1, 2, 3, 4, 5, 6)
	for _, v := range []float64{0, 1, 0.5, 2.75, 1e-7, 123456.789, 1e21, 5e-324, math.MaxFloat64} {
		spans, counters := oracleInput(tail, "burn", v)
		checkChromeAgainstOracle(t, spans, counters)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		spans, counters := oracleInput(tail, "burn", v)
		checkChromeAgainstOracle(t, spans, counters)
		if err := WriteChromeWithCounters(io.Discard, spans, counters); err == nil {
			t.Fatalf("value %v: no error", v)
		}
	}
}

// TestChromeConcurrentWriters writes documents of four sizes from four
// goroutines at once, as parallel jobs do, and requires each to match the
// oracle's: a pooled document buffer must carry nothing from one document
// into another.
func TestChromeConcurrentWriters(t *testing.T) {
	spans, counters := benchTrace()
	sizes := []int{0, 1, 37, len(spans)}
	want := make([][]byte, len(sizes))
	for k, n := range sizes {
		var b bytes.Buffer
		if err := oracleWriteChromeWithCounters(&b, spans[:n], counters[:2*n]); err != nil {
			t.Fatal(err)
		}
		want[k] = b.Bytes()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(sizes)
				var b bytes.Buffer
				if err := WriteChromeWithCounters(&b, spans[:sizes[k]], counters[:2*sizes[k]]); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(b.Bytes(), want[k]) {
					t.Errorf("goroutine %d, document %d (%d spans) differs from the oracle", g, i, sizes[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}
