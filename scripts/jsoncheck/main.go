// Command jsoncheck validates that each argument file parses as JSON
// and, for Chrome trace-event documents, that the traceEvents array is
// present and non-empty. It exists so CI can validate exported traces
// with the Go toolchain alone.
//
// HTML observability reports (.html) are handled too: the embedded
// <script type="application/json" id="rda-data"> payload is extracted
// and validated instead of the document itself, and the interference
// heatmap must draw exactly one titled cell <rect> per cell of the
// payload's blame.matrix, which holds the blamed (nonzero) cells only.
//
// Usage: go run ./scripts/jsoncheck file.json... report.html...
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "jsoncheck: usage: jsoncheck file.json...")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		if err := check(path); err != nil {
			fmt.Fprintf(os.Stderr, "jsoncheck: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}

var (
	payloadRE = regexp.MustCompile(
		`(?s)<script type="application/json" id="rda-data">(.*?)</script>`)
	heatmapRE = regexp.MustCompile(`(?s)<svg [^>]*aria-label="interference heatmap">(.*?)</svg>`)
	cellRE    = regexp.MustCompile(`<rect [^>]*><title>`)
)

func check(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".html") {
		m := payloadRE.FindSubmatch(data)
		if m == nil {
			return fmt.Errorf("no embedded rda-data JSON payload")
		}
		var payload map[string]json.RawMessage
		if err := json.Unmarshal(m[1], &payload); err != nil {
			return fmt.Errorf("embedded payload: %w", err)
		}
		raw, ok := payload["blame"]
		if !ok {
			return fmt.Errorf("embedded payload has no blame section")
		}
		var blame struct {
			Matrix []json.RawMessage `json:"matrix"`
		}
		if err := json.Unmarshal(raw, &blame); err != nil {
			return fmt.Errorf("embedded blame section: %w", err)
		}
		cells := 0
		if m := heatmapRE.FindSubmatch(data); m != nil {
			cells = len(cellRE.FindAll(m[1], -1))
		}
		if cells != len(blame.Matrix) {
			return fmt.Errorf("heatmap draws %d titled cells for %d blame.matrix cells", cells, len(blame.Matrix))
		}
		fmt.Printf("%s: embedded payload with %d sections, %d heatmap cells\n", path, len(payload), cells)
		return nil
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if raw, ok := doc["traceEvents"]; ok {
		var events []json.RawMessage
		if err := json.Unmarshal(raw, &events); err != nil {
			return fmt.Errorf("traceEvents is not an array: %w", err)
		}
		if len(events) == 0 {
			return fmt.Errorf("traceEvents is empty")
		}
		fmt.Printf("%s: %d trace events\n", path, len(events))
		return nil
	}
	fmt.Printf("%s: valid JSON\n", path)
	return nil
}
