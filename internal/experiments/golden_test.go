package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rdasched/internal/report"
	"rdasched/internal/workloads"
)

// Golden-file tests pin the rendered report.Table output for Table 1,
// Table 2, Figures 7–13, the cache calibration and E4–E9, so pure
// formatting drift (column widths, separators, headers) is caught
// separately from numeric drift in the model. The E4–E9 golden runs also
// export their Chrome traces and HTML reports, whose digests
// testdata/observed.golden pins. Regenerate with:
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

// withExports points opt's trace and report exports at a fresh
// directory. Observation never changes a table, so a golden run can pin
// its exports as well at no extra harness run.
func withExports(t *testing.T, opt Options) (Options, string) {
	t.Helper()
	dir := t.TempDir()
	opt.TraceDir, opt.ObsDir = dir, dir
	return opt, dir
}

// observedGolden holds one "harness/file sha256" line per file the E4–E9
// golden runs export, sorted.
var observedGolden = filepath.Join("testdata", "observed.golden")

// checkObservedGolden compares the digest of every file in dir with the
// observed.golden lines under harness. With -update it rewrites only
// that harness's lines.
func checkObservedGolden(t *testing.T, harness, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s/%s %x", harness, e.Name(), sha256.Sum256(b)))
	}
	raw, err := os.ReadFile(observedGolden)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want, others []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, harness+"/"):
			want = append(want, line)
		default:
			others = append(others, line)
		}
	}
	if *update {
		all := append(others, got...)
		sort.Strings(all)
		if err := os.WriteFile(observedGolden, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s exports drifted from %s (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			harness, observedGolden, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestGoldenTable1(t *testing.T) {
	checkGolden(t, "table1", Table1())
}

func TestGoldenTable2(t *testing.T) {
	checkGolden(t, "table2", Table2Report())
}

// TestGoldenFigs7to10 pins the paper's headline comparison at full scale
// with the default jitter: every Table 2 workload under the default,
// strict and compromise policies, rendered as Figures 7–10.
func TestGoldenFigs7to10(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := RunPolicyComparison(workloads.Table2(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []int{7, 8, 9, 10} {
		tbl, err := FigureTable(fig, rows)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("fig%d", fig), tbl)
	}
}

// TestGoldenFig13 pins the LLC-interference sweep at full scale.
func TestGoldenFig13(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunInterference(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig13", res.Table())
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

// TestGoldenE4 pins the chaos table and its exports at a fixed seed:
// fault injection, lease reclamation, and fallback admission are all
// deterministic, so the full degradation table is reproducible byte for
// byte.
func TestGoldenE4(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := Defaults()
	opt.Repetitions = 1
	opt.JitterFrac = 0
	opt.Scale = 0.1
	opt, dir := withExports(t, opt)
	res, err := RunChaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e4", res.Table())
	checkObservedGolden(t, "e4", dir)
}
