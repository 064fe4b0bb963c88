package blame

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"rdasched/internal/sim"
)

var payloadRE = regexp.MustCompile(
	`(?s)<script type="application/json" id="rda-data">(.*?)</script>`)

// extractPayload pulls the embedded JSON out of a rendered report —
// the same extraction scripts/jsoncheck performs in CI.
func extractPayload(t *testing.T, doc string) []byte {
	t.Helper()
	m := payloadRE.FindStringSubmatch(doc)
	if m == nil {
		t.Fatal("report has no embedded rda-data payload")
	}
	return []byte(m[1])
}

func sampleReportAndSLO(t *testing.T) (*Report, *SLOResult) {
	t.Helper()
	r := runCollector(t, contendedWorkload())
	m, err := NewSLOMonitor(DefaultSLOConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.Record(admission(0, 0))
	m.Record(admission(sim.Time(sim.Second), 60*sim.Millisecond))
	return r, m.Result()
}

var urlRefRE = regexp.MustCompile(`url\(([^)]*)\)`)

// TestWriteHTMLSelfContained: one file, parseable embedded JSON, no
// external fetches of any kind. The only url() reference allowed is a
// fragment naming an element of the document itself, as the heatmap's
// grid pattern is.
func TestWriteHTMLSelfContained(t *testing.T) {
	rpt, slo := sampleReportAndSLO(t)
	meta := ReportMeta{Workload: "contended", Policy: "strict",
		Procs: []string{"hog", "hog", "small", "small"}}
	var buf bytes.Buffer
	if err := WriteHTML(&buf, meta, rpt, slo); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, external := range []string{"http://", "https://", "src=", "@import"} {
		if strings.Contains(doc, external) {
			t.Errorf("report references external resource: %q", external)
		}
	}
	refs := urlRefRE.FindAllStringSubmatch(doc, -1)
	if len(refs) == 0 {
		t.Error("report draws no patterned heatmap grid")
	}
	for _, ref := range refs {
		id, local := strings.CutPrefix(ref[1], "#")
		if !local || !strings.Contains(doc, `id="`+id+`"`) {
			t.Errorf("report references %q, not an element of its own", ref[0])
		}
	}
	var payload htmlPayload
	if err := json.Unmarshal(extractPayload(t, doc), &payload); err != nil {
		t.Fatalf("embedded payload does not parse: %v", err)
	}
	if payload.Blame == nil || payload.Blame.TotalWait != rpt.TotalWait {
		t.Fatal("payload lost the blame report")
	}
	if err := payload.Blame.Check(); err != nil {
		t.Fatalf("payload violates conservation after round-trip: %v", err)
	}
	if payload.SLO == nil || payload.SLO.Admissions != slo.Admissions {
		t.Fatal("payload lost the SLO result")
	}
	for _, want := range []string{"Interference matrix", "Longest waits", "burn rate", "<svg", "<table>"} {
		if !strings.Contains(doc, want) {
			t.Errorf("report missing section %q", want)
		}
	}
}

// TestWriteHTMLDeterministic: identical inputs render byte-identical
// documents.
func TestWriteHTMLDeterministic(t *testing.T) {
	rpt, slo := sampleReportAndSLO(t)
	meta := ReportMeta{Workload: "contended", Policy: "strict"}
	var a, b bytes.Buffer
	if err := WriteHTML(&a, meta, rpt, slo); err != nil {
		t.Fatal(err)
	}
	if err := WriteHTML(&b, meta, rpt, slo); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("re-rendering the same report changed bytes")
	}
}

// TestWriteHTMLEscaping: hostile names cannot break out of the payload
// script block or the markup.
func TestWriteHTMLEscaping(t *testing.T) {
	rpt := &Report{}
	meta := ReportMeta{
		Workload: `</script><script>alert(1)</script>`,
		Policy:   `<b onmouseover="x()">`,
	}
	var buf bytes.Buffer
	if err := WriteHTML(&buf, meta, rpt, nil); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if strings.Contains(doc, "<script>alert(1)") {
		t.Fatal("workload name escaped into live markup")
	}
	var payload htmlPayload
	if err := json.Unmarshal(extractPayload(t, doc), &payload); err != nil {
		t.Fatalf("payload with hostile names does not parse: %v", err)
	}
	if payload.Meta.Workload != meta.Workload {
		t.Fatal("escaping corrupted the payload round-trip")
	}
}

// TestWriteHTMLNilSLO: the report renders without an SLO section.
func TestWriteHTMLNilSLO(t *testing.T) {
	rpt := runCollector(t, contendedWorkload())
	var buf bytes.Buffer
	if err := WriteHTML(&buf, ReportMeta{Workload: "w", Policy: "p"}, rpt, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "SLO burn rate") {
		t.Fatal("nil SLO still rendered a burn section")
	}
}
