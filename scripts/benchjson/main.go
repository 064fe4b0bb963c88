// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON artifact (BENCH_8.json) and validates such
// artifacts, so CI can publish and check benchmark numbers with the Go
// toolchain alone.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | go run ./scripts/benchjson -o BENCH_10.json
//	go run ./scripts/benchjson -check BENCH_10.json
//	go run ./scripts/benchjson -diff BENCH_8.json BENCH_10.json
//
// -diff compares two artifacts benchmark by benchmark and exits
// non-zero when any shared benchmark's median ns/op regressed by more
// than the -threshold (default 10%) and by more than the interquartile
// spread of either side (zero for an entry from a single run), so a
// move inside the run-to-run noise is reported but does not fail.
// Benchmarks present in only one artifact are reported but never fail
// the diff, so adding or retiring a benchmark does not break the gate.
//
// The converter reads benchmark result lines of the standard form
//
//	BenchmarkName-8   100   123456 ns/op   7 B/op   0 allocs/op   1.5 custom-unit
//
// and records every (value, unit) metric pair per benchmark. Repeated
// lines of one benchmark (go test -count N) fold into one entry holding
// each metric's median, its interquartile spread in "spread" (by the
// quartile method of perfbench/stats.go, Python's
// statistics.quantiles), and the number of lines in "runs". Context
// lines (goos/goarch/pkg/cpu) are carried along so the artifact is
// self-describing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Doc is the BENCH_8.json schema.
type Doc struct {
	Version    int               `json:"version"`
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

// Benchmark is one benchmark's result: the benchmark name (with the -N
// procs suffix stripped), its iteration count, and every reported
// metric. An entry folded from Runs > 1 result lines holds the median
// of each metric and of the iteration counts, and in Spread each
// metric's interquartile distance q3 − q1 in the metric's unit; Runs
// and Spread are omitted for a single line.
type Benchmark struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	Runs       int                `json:"runs,omitempty"`
	Spread     map[string]float64 `json:"spread,omitempty"`
}

func main() {
	var (
		out       = flag.String("o", "", "write the JSON artifact to this file (default stdout)")
		check     = flag.String("check", "", "validate an existing artifact instead of converting")
		diff      = flag.Bool("diff", false, "compare two artifacts (old new); exit non-zero on ns/op regressions past -threshold and both sides' spreads")
		threshold = flag.Float64("threshold", 0.10, "relative ns/op regression that fails -diff (0.10 = 10%)")
	)
	flag.Parse()

	if *check != "" {
		n, err := validate(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *check, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d benchmarks, valid\n", *check, n)
		return
	}
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two artifacts: old.json new.json")
			os.Exit(2)
		}
		regressions, err := diffArtifacts(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.0f%%\n",
				regressions, *threshold*100)
			os.Exit(1)
		}
		return
	}

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
	}
}

func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Version: 1, Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				if key == "pkg" {
					pkg = v
				} else {
					doc.Context[key] = v
				}
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name iterations metric unit [metric unit]... — at least one pair.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Package: pkg, Iterations: iters, Metrics: map[string]float64{}}
		b.Name = fields[0]
		if i := strings.LastIndex(b.Name, "-"); i > 0 {
			if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
				b.Name, b.Procs = b.Name[:i], procs
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value on %q", line)
			}
			b.Metrics[fields[i+1]] = v
		}
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	doc.Benchmarks = fold(doc.Benchmarks, func(b Benchmark) string {
		return fmt.Sprintf("%s.%s-%d", b.Package, b.Name, b.Procs)
	})
	return doc, nil
}

// fold merges the entries that share a key into one, in order of first
// appearance: each metric becomes the median over the entries that
// report it, its Spread the interquartile distance of those values,
// Iterations the median iteration count, and Runs the total number of
// result lines folded (an entry counts its own Runs, or 1). A lone
// entry keeps its own Spread.
func fold(bs []Benchmark, key func(Benchmark) string) []Benchmark {
	groups := map[string][]Benchmark{}
	var order []string
	for _, b := range bs {
		k := key(b)
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	var out []Benchmark
	for _, k := range order {
		g := groups[k]
		if len(g) == 1 {
			out = append(out, g[0])
			continue
		}
		b := g[0]
		b.Metrics = map[string]float64{}
		b.Spread = map[string]float64{}
		b.Runs = 0
		var iters []float64
		values := map[string][]float64{}
		for _, r := range g {
			b.Runs += max(r.Runs, 1)
			iters = append(iters, float64(r.Iterations))
			for unit, v := range r.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		b.Iterations = int64(median(iters))
		for unit, vs := range values {
			q1, _, q3 := quartiles(vs)
			b.Metrics[unit], b.Spread[unit] = median(vs), q3-q1
		}
		out = append(out, b)
	}
	return out
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count, as perfbench's statistics do. It sorts xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the three cut points of xs by the method of
// perfbench/stats.go, which is Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method). A single value is its own quartiles. It
// sorts xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	ld := len(xs)
	if ld == 1 {
		return xs[0], xs[0], xs[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// validate checks an artifact against the schema and returns its
// benchmark count.
func validate(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc Doc
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return 0, err
	}
	if doc.Version != 1 {
		return 0, fmt.Errorf("unsupported version %d", doc.Version)
	}
	if len(doc.Benchmarks) == 0 {
		return 0, fmt.Errorf("no benchmarks recorded")
	}
	for _, b := range doc.Benchmarks {
		if b.Name == "" || !strings.HasPrefix(b.Name, "Benchmark") {
			return 0, fmt.Errorf("bad benchmark name %q", b.Name)
		}
		if b.Iterations <= 0 {
			return 0, fmt.Errorf("%s: nonpositive iteration count %d", b.Name, b.Iterations)
		}
		if _, ok := b.Metrics["ns/op"]; !ok {
			return 0, fmt.Errorf("%s: no ns/op metric", b.Name)
		}
		if b.Runs < 0 {
			return 0, fmt.Errorf("%s: negative run count %d", b.Name, b.Runs)
		}
		if len(b.Spread) > 0 && b.Runs < 2 {
			return 0, fmt.Errorf("%s: a spread needs at least two runs, has %d", b.Name, b.Runs)
		}
		for unit, v := range b.Spread {
			if _, ok := b.Metrics[unit]; !ok {
				return 0, fmt.Errorf("%s: spread of %s, which it does not report", b.Name, unit)
			}
			if !(v >= 0) {
				return 0, fmt.Errorf("%s: %s spread %v, want ≥ 0", b.Name, unit, v)
			}
		}
	}
	return len(doc.Benchmarks), nil
}

// load reads and structurally validates one artifact for -diff.
func load(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Version != 1 {
		return nil, fmt.Errorf("%s: unsupported version %d", path, doc.Version)
	}
	// Entries that -diff would match by the same key count once.
	doc.Benchmarks = fold(doc.Benchmarks, key)
	return &doc, nil
}

// key identifies a benchmark across artifacts: same package, same name.
func key(b Benchmark) string { return b.Package + "." + b.Name }

// diffArtifacts writes a per-benchmark comparison of old vs new median
// ns/op to w and returns how many shared benchmarks regressed: their
// medians moved apart by more than the threshold and by more than each
// side's ns/op spread. A move past the threshold but inside a spread is
// listed as "spread" and counts as neither a regression nor a gain.
// Each (package, name) counts once, however many result lines either
// artifact holds for it. Benchmarks only present on one side are listed
// as added/removed and never count as regressions.
func diffArtifacts(w io.Writer, oldPath, newPath string, threshold float64) (int, error) {
	oldDoc, err := load(oldPath)
	if err != nil {
		return 0, err
	}
	newDoc, err := load(newPath)
	if err != nil {
		return 0, err
	}
	oldBy := make(map[string]Benchmark, len(oldDoc.Benchmarks))
	for _, b := range oldDoc.Benchmarks {
		oldBy[key(b)] = b
	}
	regressions := 0
	seen := make(map[string]bool, len(newDoc.Benchmarks))
	for _, nb := range newDoc.Benchmarks {
		seen[key(nb)] = true
		ob, ok := oldBy[key(nb)]
		if !ok {
			fmt.Fprintf(w, "ADDED    %-50s %12.1f ns/op\n", nb.Name, nb.Metrics["ns/op"])
			continue
		}
		oldNs, newNs := ob.Metrics["ns/op"], nb.Metrics["ns/op"]
		if oldNs <= 0 {
			fmt.Fprintf(w, "SKIP     %-50s old ns/op %g not comparable\n", nb.Name, oldNs)
			continue
		}
		delta := (newNs - oldNs) / oldNs
		oldIQR, newIQR := ob.Spread["ns/op"], nb.Spread["ns/op"]
		verdict := "ok"
		switch {
		case math.Abs(delta) <= threshold:
		case math.Abs(newNs-oldNs) <= max(oldIQR, newIQR):
			verdict = "spread"
		case delta > 0:
			verdict = "REGRESSED"
			regressions++
		default:
			verdict = "improved"
		}
		fmt.Fprintf(w, "%-8s %-50s %12.1f -> %12.1f ns/op  %+6.1f%%",
			verdict, nb.Name, oldNs, newNs, delta*100)
		if oldIQR > 0 || newIQR > 0 {
			fmt.Fprintf(w, "  (IQR %.1f, %.1f)", oldIQR, newIQR)
		}
		fmt.Fprintln(w)
	}
	for _, ob := range oldDoc.Benchmarks {
		if !seen[key(ob)] {
			fmt.Fprintf(w, "REMOVED  %-50s %12.1f ns/op\n", ob.Name, ob.Metrics["ns/op"])
		}
	}
	return regressions, nil
}
