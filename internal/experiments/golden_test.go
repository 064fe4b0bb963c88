package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rdasched/internal/report"
)

// Golden-file tests pin the rendered report.Table output for Table 1,
// Table 2, Figures 11 and 12, the cache calibration and E4–E9, so pure
// formatting drift (column widths, separators, headers) is caught
// separately from numeric drift in the model. Regenerate with:
//
//	go test ./internal/experiments -update

var update = flag.Bool("update", false, "rewrite testdata/*.golden files")

func checkGolden(t *testing.T, name string, tbl *report.Table) {
	t.Helper()
	got := tbl.String()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s rendering drifted from %s (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			name, path, got, want)
	}
}

func TestGoldenTable1(t *testing.T) {
	checkGolden(t, "table1", Table1())
}

func TestGoldenTable2(t *testing.T) {
	checkGolden(t, "table2", Table2Report())
}

// TestGoldenFig11 pins a figure table produced by an actual simulation:
// the granularity harness at a fixed seed with no jitter is fully
// deterministic, so the golden file covers both the renderer and the
// numeric pipeline end to end.
func TestGoldenFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := Defaults()
	opt.Repetitions = 1
	opt.JitterFrac = 0
	opt.Scale = 0.25
	res, err := RunGranularity(opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig11", res.Table())
}

// TestGoldenE4 pins the chaos table at a fixed seed: fault injection,
// lease reclamation, and fallback admission are all deterministic, so
// the full degradation table is reproducible byte for byte.
func TestGoldenE4(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := Defaults()
	opt.Repetitions = 1
	opt.JitterFrac = 0
	opt.Scale = 0.1
	res, err := RunChaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e4", res.Table())
}
