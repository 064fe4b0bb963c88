package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    []Benchmark
		context map[string]string
		wantErr bool
	}{
		{
			name: "procs suffix stripped",
			in:   "BenchmarkFoo-8   100   123 ns/op",
			want: []Benchmark{{Name: "BenchmarkFoo", Procs: 8, Iterations: 100, Metrics: map[string]float64{"ns/op": 123}}},
		},
		{
			name: "no procs suffix",
			in:   "BenchmarkFoo   100   123 ns/op",
			want: []Benchmark{{Name: "BenchmarkFoo", Iterations: 100, Metrics: map[string]float64{"ns/op": 123}}},
		},
		{
			name: "sub-benchmark keeps inner dashes",
			in:   "BenchmarkHub/no-subscribers-2   5000   40.5 ns/op\nBenchmarkHub/no-subscribers   5000   40.5 ns/op",
			want: []Benchmark{
				{Name: "BenchmarkHub/no-subscribers", Procs: 2, Iterations: 5000, Metrics: map[string]float64{"ns/op": 40.5}},
				{Name: "BenchmarkHub/no-subscribers", Iterations: 5000, Metrics: map[string]float64{"ns/op": 40.5}},
			},
		},
		{
			name: "custom units",
			in:   "BenchmarkMachineReschedule/ready=12-2   20000   653.0 ns/op   0 allocs/event   653.0 ns/event   16 B/op",
			want: []Benchmark{{Name: "BenchmarkMachineReschedule/ready=12", Procs: 2, Iterations: 20000,
				Metrics: map[string]float64{"ns/op": 653, "allocs/event": 0, "ns/event": 653, "B/op": 16}}},
		},
		{
			name: "context lines",
			in: "goos: linux\ngoarch: amd64\npkg: rdasched/internal/sim\ncpu: Some CPU @ 2.0GHz\n" +
				"BenchmarkA-2   10   1 ns/op\npkg: rdasched/internal/core\nBenchmarkB-2   10   2 ns/op\nPASS\nok  \trdasched/internal/core\t0.1s",
			want: []Benchmark{
				{Name: "BenchmarkA", Package: "rdasched/internal/sim", Procs: 2, Iterations: 10, Metrics: map[string]float64{"ns/op": 1}},
				{Name: "BenchmarkB", Package: "rdasched/internal/core", Procs: 2, Iterations: 10, Metrics: map[string]float64{"ns/op": 2}},
			},
			context: map[string]string{"goos": "linux", "goarch": "amd64", "cpu": "Some CPU @ 2.0GHz"},
		},
		{
			name: "non-result lines skipped",
			in:   "BenchmarkFoo\n--- BENCH: BenchmarkFoo-2\nBenchmarkFoo-2   many   1 ns/op\nBenchmarkFoo-2   10   1 ns/op   2",
		},
		{
			name: "repeated lines fold into medians",
			in: "BenchmarkA-2   100   80 ns/op   5 B/op\nBenchmarkB-2   10   1 ns/op\n" +
				"BenchmarkA-2   100   60 ns/op   3 B/op\nBenchmarkA-2   300   70 ns/op   4 B/op   9 allocs/op\n" +
				"BenchmarkA   100   10 ns/op\nBenchmarkB-2   30   3 ns/op",
			want: []Benchmark{
				{Name: "BenchmarkA", Procs: 2, Iterations: 100, Runs: 3,
					Metrics: map[string]float64{"ns/op": 70, "B/op": 4, "allocs/op": 9},
					Spread:  map[string]float64{"ns/op": 20, "B/op": 2, "allocs/op": 0}},
				{Name: "BenchmarkB", Procs: 2, Iterations: 20, Runs: 2, Metrics: map[string]float64{"ns/op": 2},
					Spread: map[string]float64{"ns/op": 3}},
				{Name: "BenchmarkA", Iterations: 100, Metrics: map[string]float64{"ns/op": 10}},
			},
		},
		{
			name:    "bad metric value",
			in:      "BenchmarkFoo-2   10   fast ns/op",
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := parse(strings.NewReader(tc.in))
			if tc.wantErr {
				if err == nil {
					t.Fatal("parse accepted a malformed metric")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(doc.Benchmarks, tc.want) {
				t.Fatalf("benchmarks\n got %+v\nwant %+v", doc.Benchmarks, tc.want)
			}
			if tc.context == nil {
				tc.context = map[string]string{}
			}
			if !reflect.DeepEqual(doc.Context, tc.context) {
				t.Fatalf("context %v, want %v", doc.Context, tc.context)
			}
		})
	}
}

// writeDoc writes an artifact body to a temporary file and returns its
// path.
func writeDoc(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheck(t *testing.T) {
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"valid", `{"version":1,"benchmarks":[{"name":"BenchmarkA","iterations":10,"metrics":{"ns/op":1}}]}`, true},
		{"not json", `BenchmarkA 10 1 ns/op`, false},
		{"unknown field", `{"version":1,"extra":true,"benchmarks":[{"name":"BenchmarkA","iterations":10,"metrics":{"ns/op":1}}]}`, false},
		{"wrong version", `{"version":2,"benchmarks":[{"name":"BenchmarkA","iterations":10,"metrics":{"ns/op":1}}]}`, false},
		{"no benchmarks", `{"version":1,"benchmarks":[]}`, false},
		{"bad name", `{"version":1,"benchmarks":[{"name":"TestA","iterations":10,"metrics":{"ns/op":1}}]}`, false},
		{"zero iterations", `{"version":1,"benchmarks":[{"name":"BenchmarkA","iterations":0,"metrics":{"ns/op":1}}]}`, false},
		{"no ns/op", `{"version":1,"benchmarks":[{"name":"BenchmarkA","iterations":10,"metrics":{"B/op":1}}]}`, false},
		{"folded runs", `{"version":1,"benchmarks":[{"name":"BenchmarkA","iterations":10,"metrics":{"ns/op":1},"runs":5}]}`, true},
		{"negative runs", `{"version":1,"benchmarks":[{"name":"BenchmarkA","iterations":10,"metrics":{"ns/op":1},"runs":-1}]}`, false},
		{"spread", `{"version":1,"benchmarks":[{"name":"BenchmarkA","iterations":10,"metrics":{"ns/op":1},"runs":5,"spread":{"ns/op":0.5}}]}`, true},
		{"spread of one run", `{"version":1,"benchmarks":[{"name":"BenchmarkA","iterations":10,"metrics":{"ns/op":1},"spread":{"ns/op":0.5}}]}`, false},
		{"negative spread", `{"version":1,"benchmarks":[{"name":"BenchmarkA","iterations":10,"metrics":{"ns/op":1},"runs":5,"spread":{"ns/op":-1}}]}`, false},
		{"spread of unreported metric", `{"version":1,"benchmarks":[{"name":"BenchmarkA","iterations":10,"metrics":{"ns/op":1},"runs":5,"spread":{"B/op":1}}]}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := validate(writeDoc(t, tc.body))
			if tc.ok && (err != nil || n != 1) {
				t.Fatalf("valid artifact rejected: %d, %v", n, err)
			}
			if !tc.ok && err == nil {
				t.Fatal("malformed artifact accepted")
			}
		})
	}
	if _, err := validate(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing artifact accepted")
	}
}

// artifact renders a version-1 artifact with one benchmark per
// name → ns/op entry, all in package p.
func artifact(t *testing.T, ns map[string]float64) string {
	t.Helper()
	doc := Doc{Version: 1}
	for name, v := range ns {
		doc.Benchmarks = append(doc.Benchmarks, Benchmark{Name: name, Package: "p", Iterations: 1, Metrics: map[string]float64{"ns/op": v}})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return writeDoc(t, string(data))
}

func TestDiff(t *testing.T) {
	cases := []struct {
		name        string
		old, new    map[string]float64
		threshold   float64
		regressions int
		lines       []string // substrings the report must contain
	}{
		{"within threshold", map[string]float64{"BenchmarkA": 100}, map[string]float64{"BenchmarkA": 109}, 0.10, 0, []string{"ok "}},
		{"at threshold", map[string]float64{"BenchmarkA": 100}, map[string]float64{"BenchmarkA": 110}, 0.10, 0, []string{"ok "}},
		{"past threshold", map[string]float64{"BenchmarkA": 100}, map[string]float64{"BenchmarkA": 111}, 0.10, 1, []string{"REGRESSED", "+11.0%"}},
		{"looser threshold", map[string]float64{"BenchmarkA": 100}, map[string]float64{"BenchmarkA": 130}, 0.50, 0, []string{"ok "}},
		{"improved", map[string]float64{"BenchmarkA": 100}, map[string]float64{"BenchmarkA": 50}, 0.10, 0, []string{"improved"}},
		{"added", map[string]float64{"BenchmarkA": 100}, map[string]float64{"BenchmarkA": 100, "BenchmarkB": 1e9}, 0.10, 0, []string{"ADDED    BenchmarkB"}},
		{"removed", map[string]float64{"BenchmarkA": 100, "BenchmarkB": 1}, map[string]float64{"BenchmarkA": 100}, 0.10, 0, []string{"REMOVED  BenchmarkB"}},
		{"zero baseline", map[string]float64{"BenchmarkA": 0}, map[string]float64{"BenchmarkA": 100}, 0.10, 0, []string{"SKIP"}},
		{"counts every regression", map[string]float64{"BenchmarkA": 1, "BenchmarkB": 1}, map[string]float64{"BenchmarkA": 2, "BenchmarkB": 3}, 0.10, 2, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			n, err := diffArtifacts(&out, artifact(t, tc.old), artifact(t, tc.new), tc.threshold)
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.regressions {
				t.Fatalf("%d regressions, want %d:\n%s", n, tc.regressions, out.String())
			}
			for _, l := range tc.lines {
				if !strings.Contains(out.String(), l) {
					t.Fatalf("report lacks %q:\n%s", l, out.String())
				}
			}
		})
	}
}

func TestDiffRejectsBadArtifacts(t *testing.T) {
	good := artifact(t, map[string]float64{"BenchmarkA": 1})
	for name, bad := range map[string]string{
		"not json":      writeDoc(t, "{"),
		"wrong version": writeDoc(t, `{"version":3,"benchmarks":[]}`),
		"missing":       filepath.Join(t.TempDir(), "missing.json"),
	} {
		var out strings.Builder
		if _, err := diffArtifacts(&out, good, bad, 0.1); err == nil {
			t.Errorf("%s: new artifact accepted", name)
		}
		if _, err := diffArtifacts(&out, bad, good, 0.1); err == nil {
			t.Errorf("%s: old artifact accepted", name)
		}
	}
}

// TestDiffFoldsRepeatedRuns compares -count 3 output whose old and new
// medians are both 70 ns/op: the benchmark is compared once, median
// against median, whether the old artifact was folded by parse or still
// holds one entry per result line.
func TestDiffFoldsRepeatedRuns(t *testing.T) {
	fromText := func(text string) string {
		doc, err := parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return writeDoc(t, string(data))
	}
	oldText := "pkg: p\nBenchmarkA-2   10   80 ns/op\nBenchmarkA-2   10   70 ns/op\nBenchmarkA-2   10   60 ns/op\n"
	newPath := fromText("pkg: p\nBenchmarkA-2   10   70 ns/op\nBenchmarkA-2   10   70 ns/op\nBenchmarkA-2   10   70 ns/op\n")
	unfolded := writeDoc(t, `{"version":1,"benchmarks":[`+
		`{"name":"BenchmarkA","package":"p","procs":2,"iterations":10,"metrics":{"ns/op":80}},`+
		`{"name":"BenchmarkA","package":"p","procs":2,"iterations":10,"metrics":{"ns/op":70}},`+
		`{"name":"BenchmarkA","package":"p","procs":2,"iterations":10,"metrics":{"ns/op":60}}]}`)
	for name, oldPath := range map[string]string{"folded": fromText(oldText), "unfolded": unfolded} {
		var out strings.Builder
		n, err := diffArtifacts(&out, oldPath, newPath, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 || strings.Count(out.String(), "\n") != 1 || !strings.Contains(out.String(), "70.0 ->         70.0 ns/op") {
			t.Fatalf("%s old artifact: %d regressions, report:\n%s", name, n, out.String())
		}
	}
	if _, err := validate(newPath); err != nil {
		t.Fatalf("folded artifact fails -check: %v", err)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4), the one perfbench/stats.go uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{80, 60, 70}, 60, 70, 80},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 1, 3, 2, 6, 5, 8, 7, 10, 9}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(append([]float64(nil), tc.xs...))
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v, want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestDiffSpread compares folded entries: a median move past the
// threshold regresses only when it also exceeds both sides' ns/op
// spreads, and an entry from a single run contributes no spread.
func TestDiffSpread(t *testing.T) {
	entry := func(ns, iqr float64, runs int) string {
		b := Benchmark{Name: "BenchmarkA", Package: "p", Iterations: 1, Metrics: map[string]float64{"ns/op": ns}, Runs: runs}
		if runs > 1 {
			b.Spread = map[string]float64{"ns/op": iqr}
		}
		data, err := json.Marshal(Doc{Version: 1, Benchmarks: []Benchmark{b}})
		if err != nil {
			t.Fatal(err)
		}
		return writeDoc(t, string(data))
	}
	cases := []struct {
		name        string
		old, new    string
		regressions int
		verdict     string
	}{
		{"inside the old spread", entry(100, 30, 5), entry(115, 10, 5), 0, "spread "},
		{"inside the new spread", entry(100, 5, 5), entry(120, 50, 5), 0, "spread "},
		{"beyond both spreads", entry(100, 30, 5), entry(140, 10, 5), 1, "REGRESSED"},
		{"gain inside a spread", entry(100, 30, 5), entry(80, 10, 5), 0, "spread "},
		{"gain beyond both spreads", entry(100, 5, 5), entry(80, 5, 5), 0, "improved"},
		{"single old run", entry(100, 0, 1), entry(115, 10, 5), 1, "REGRESSED"},
		{"within threshold", entry(100, 0, 5), entry(105, 0, 5), 0, "ok "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			n, err := diffArtifacts(&out, tc.old, tc.new, 0.10)
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.regressions || !strings.HasPrefix(out.String(), tc.verdict) {
				t.Fatalf("%d regressions, want %d with verdict %q:\n%s", n, tc.regressions, tc.verdict, out.String())
			}
		})
	}
}
