package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheck pins what the gate accepts and refuses: Chrome traces need a
// non-empty traceEvents array, other JSON only has to parse, and an HTML
// report needs an embedded payload that parses and has a blame section,
// and a heatmap with one titled cell <rect> per blame.matrix cell.
func TestCheck(t *testing.T) {
	const open = `<script type="application/json" id="rda-data">`
	// A two-cell report as WriteHTML draws it: the patterned grid, then
	// one titled <rect> per blamed cell.
	const grid = `<defs><pattern id="rda-grid" x="119" y="119" width="34" height="34" patternUnits="userSpaceOnUse">` +
		`<rect x="1" y="1" width="32" height="32" fill="none" stroke="#ddd"/></pattern></defs>` + "\n" +
		`<rect x="119" y="119" width="68" height="68" fill="url(#rda-grid)"/>` + "\n"
	const (
		cellAB  = `<rect x="154.0" y="120.0" width="32" height="32" fill="rgba(178,34,34,1.000)" stroke="#ddd"><title>a#0 → b#1: 0.000002 s</title></rect>` + "\n"
		cellBA  = `<rect x="120.0" y="154.0" width="32" height="32" fill="rgba(178,34,34,0.500)" stroke="#ddd"><title>b#1 → a#0: 0.000001 s</title></rect>` + "\n"
		zeroAA  = `<rect x="120.0" y="120.0" width="32" height="32" fill="rgba(178,34,34,0.000)" stroke="#ddd"><title>a#0 → a#0: 0.000000 s</title></rect>` + "\n"
		svgOpen = `<svg width="196" height="196" role="img" aria-label="interference heatmap">` + "\n" + grid
		matrix  = `{"meta": {}, "blame": {"matrix": [{"blocker_proc": 0, "waiter_proc": 1, "blamed_ps": 2000000}, {"blocker_proc": 1, "waiter_proc": 0, "blamed_ps": 1000000}]}}`
	)
	report := func(cells ...string) string {
		return "<html>" + svgOpen + strings.Join(cells, "") + "</svg>\n" + open + matrix + "</script></html>"
	}
	for _, tc := range []struct {
		name, file, body string
		wantErr          string // substring; "" means accepted
	}{
		{"valid trace", "t.json", `{"traceEvents": [{"name": "x", "ph": "X"}], "displayTimeUnit": "ms"}`, ""},
		{"empty traceEvents", "t.json", `{"traceEvents": [], "displayTimeUnit": "ms"}`, "traceEvents is empty"},
		{"non-array traceEvents", "t.json", `{"traceEvents": {"name": "x"}}`, "traceEvents is not an array"},
		{"malformed JSON", "t.json", `{"traceEvents": [`, "unexpected end of JSON input"},
		{"plain JSON object", "state.json", `{"now_ps": 5}`, ""},
		{"html with payload", "r.html", "<html>" + open + `{"meta": {}, "blame": {"denies": 0}}</script></html>`, ""},
		{"html without payload", "r.html", "<html><body>no data</body></html>", "no embedded rda-data JSON payload"},
		{"html malformed payload", "r.html", open + `{"blame": </script>`, "embedded payload"},
		{"html payload without blame", "r.html", open + `{"meta": {}, "slo": {}}</script>`, "no blame section"},
		{"html heatmap matches matrix", "r.html", report(cellAB, cellBA), ""},
		{"html heatmap missing a cell", "r.html", report(cellAB), "heatmap draws 1 titled cells for 2 blame.matrix cells"},
		{"html heatmap with a zero cell", "r.html", report(zeroAA, cellAB, cellBA), "heatmap draws 3 titled cells for 2 blame.matrix cells"},
		{"html matrix without heatmap", "r.html", "<html>" + open + matrix + "</script></html>", "heatmap draws 0 titled cells for 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.file)
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			err := check(path)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("check refused a valid file: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("check accepted it, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q, want one containing %q", err, tc.wantErr)
			}
		})
	}
	if err := check(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("check accepted a missing file")
	}
}
