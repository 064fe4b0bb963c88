package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheck pins what the gate accepts and refuses: Chrome traces need a
// non-empty traceEvents array, other JSON only has to parse, and an HTML
// report needs an embedded payload that parses and has a blame section.
func TestCheck(t *testing.T) {
	const open = `<script type="application/json" id="rda-data">`
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
