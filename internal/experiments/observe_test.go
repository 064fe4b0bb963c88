package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func observeOpts() Options {
	opt := Defaults()
	opt.Repetitions = 1
	opt.JitterFrac = 0
	opt.Scale = 0.1
	return opt
}

// TestObserveConservation: the E8 harness's blame reports satisfy the
// exact conservation invariant and actually attribute something — the
// skewed workload guarantees contention under both policies.
func TestObserveConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunObserve(observeOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if err := row.Blame.Check(); err != nil {
			t.Errorf("%s: %v", row.Policy, err)
		}
		if row.Policy == "strict" {
			if row.Blame.Denies == 0 || row.Blame.TotalBlamed == 0 {
				t.Errorf("strict run saw no attributable contention: %+v", row.Blame)
			}
			if len(row.Blame.Matrix) == 0 {
				t.Error("strict run produced an empty interference matrix")
			}
		}
		if row.SLO == nil || row.SLO.Admissions == 0 {
			t.Errorf("%s: SLO monitor recorded no admissions", row.Policy)
		}
	}
	// The rda_blame_* and rda_slo_* families must reach the merged
	// registry.
	var sb strings.Builder
	if err := res.Telemetry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"rda_blame_periods_total", "rda_blame_denies_total",
		"rda_blame_blocked_seconds", "rda_slo_admissions_total", "rda_slo_breaches_total"} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("merged registry missing family %s", fam)
		}
	}
	// Every family a real run publishes must satisfy the exposition
	// conventions (see telemetry.Lint).
	for _, err := range res.Telemetry.Lint() {
		t.Error(err)
	}
}

// TestGoldenE8 pins the rendered blame matrix, conservation totals,
// path split, and SLO verdict at a fixed seed.
func TestGoldenE8(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt, dir := withExports(t, observeOpts())
	res, err := RunObserve(opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e8", res.Table())
	checkObservedGolden(t, "e8", dir)
}

// TestDeterminismObserve: the E8 table is byte-identical for every
// worker count — the acceptance criterion behind "e8.golden identical
// across -jobs 1 and -jobs 4".
func TestDeterminismObserve(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	assertIdenticalAcrossJobs(t, "observe", func(opt Options) ([]string, error) {
		res, err := RunObserve(opt)
		if err != nil {
			return nil, err
		}
		return []string{res.Table().String()}, nil
	})
}

var obsPayloadRE = regexp.MustCompile(
	`(?s)<script type="application/json" id="rda-data">(.*?)</script>`)

// TestObsDirWritesReports: ObsDir produces one self-contained HTML
// report per cell whose embedded JSON parses, byte-identical across
// worker counts.
func TestObsDirWritesReports(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	render := func(jobs int) map[string][]byte {
		dir := t.TempDir()
		opt := observeOpts()
		opt.Jobs = jobs
		opt.ObsDir = dir
		if _, err := RunObserve(opt); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.html"))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(f)] = data
		}
		return out
	}
	ref := render(1)
	if len(ref) != len(ObservePolicies()) {
		t.Fatalf("got %d reports, want one per policy (%d)", len(ref), len(ObservePolicies()))
	}
	for name, doc := range ref {
		m := obsPayloadRE.FindSubmatch(doc)
		if m == nil {
			t.Fatalf("%s: no embedded rda-data payload", name)
		}
		var payload map[string]any
		if err := json.Unmarshal(m[1], &payload); err != nil {
			t.Fatalf("%s: embedded payload does not parse: %v", name, err)
		}
	}
	for name, doc := range render(4) {
		if !bytes.Equal(doc, ref[name]) {
			t.Errorf("%s differs between Jobs=1 and Jobs=4", name)
		}
	}
}
