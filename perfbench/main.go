// Command perfbench is the repository benchmark: it runs one workload of
// the paper's evaluation harnesses for a fixed wall time with tracing
// off and prints the end-to-end metrics, or, with --trace 1, reassembles
// the workload's cells with a timing decorator on every layer interface
// and prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash perfbench/run.sh --workload paper-figs --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --golden
//	bash perfbench/run.sh --compare a.jsonl b.jsonl
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line every run ends its output with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// specPath is the benchmark's declaration, read from the repository
// root: the per-layer metrics' units and the end-to-end bounds.
const specPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchSpec
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// layerResult turns a traced run's metrics into the result's metrics,
// with the units the spec declares. Every emitted metric must be
// declared, and every declared one emitted.
func layerResult(spec *benchSpec, m map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, d := range spec.PerLayer {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s is declared but the traced run does not report it", d.Name)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	for k := range m {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("the traced run reports %s, which %s does not declare", k, specPath)
		}
	}
	return out, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-figs, observed-sweep or trace-profile")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "wall seconds of timed iterations")
		traced  = flag.Int("trace", 0, "0 measures end-to-end metrics; 1 runs the traced per-layer pass")
		golden  = flag.Bool("golden", false, "re-render the committed goldens and compare them byte for byte")
		compare = flag.Bool("compare", false, "compare two files of result lines (arguments: first second) against the bounds in BENCHMARK.json")
	)
	flag.Parse()

	var err error
	switch {
	case *golden:
		err = goldenMode(filepath.Join("internal", "experiments", "testdata"))
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare takes two result files")
			break
		}
		err = compareMode(specPath, flag.Arg(0), flag.Arg(1), os.Stdout)
	default:
		err = benchMode(*name, *seed, *seconds, *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMode(name string, seed uint64, seconds float64, traced int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds %g must be positive", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", traced)
	}
	scratch, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	res := result{Metrics: map[string]metricValue{}}
	if traced == 1 {
		spec, err := loadSpec(specPath)
		if err != nil {
			return err
		}
		plan, err := tracedPlanFor(name, seed, scratch)
		if err != nil {
			return err
		}
		spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv", name, seed))
		m, attempted, failed, err := runTraced(plan, spans)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = attempted, failed
		if res.Metrics, err = layerResult(spec, m); err != nil {
			return err
		}
		fmt.Printf("perfbench: %s seed %d traced; spans in %s\n", name, seed, spans)
		for _, k := range sortedKeys(m) {
			fmt.Printf("%-22s %16.6f %s\n", k, m[k], res.Metrics[k].Unit)
		}
	} else {
		r, err := runBench(w, seed, seconds, scratch)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = r.attempted, r.failed
		fmt.Printf("perfbench: %s seed %d, %d timed iterations\n", name, seed, len(r.samples[1].values))
		fmt.Printf("%-12s %14s %-5s %14s %14s %4s\n", "metric", "median", "unit", "q1", "q3", "n")
		for _, s := range r.samples {
			med := median(s.values)
			q1, _, q3 := quartiles(s.values)
			res.Metrics[s.name] = metricValue{med, s.unit}
			fmt.Printf("%-12s %14.6f %-5s %14.6f %14.6f %4d\n", s.name, med, s.unit, q1, q3, len(s.values))
		}
		fmt.Printf("%-12s %14.6f %-5s (%d of %d harness calls failed)\n", "error_rate",
			float64(r.failed)/float64(r.attempted), "ratio", r.failed, r.attempted)
		fmt.Printf("iter_s per iteration: %.4f\n", r.samples[1].values)
		for i, c := range r.calls {
			fmt.Printf("digest %-20s %s\n", c, r.digests[i])
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func goldenMode(dir string) error {
	checked, errs := checkGoldens(dir)
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: golden:", err)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d of %d goldens differ", len(errs), checked)
	}
	fmt.Printf("perfbench: all %d goldens reproduced byte for byte\n", checked)
	return nil
}

// compareMode reads the end-to-end bounds from specPath and two files of
// result lines (one run per line, as the benchmark prints its last
// line), and reports each metric's medians, spreads and verdict.
func compareMode(specPath, aPath, bPath string, out io.Writer) error {
	def, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readResults(aPath)
	if err != nil {
		return err
	}
	b, err := readResults(bPath)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(out, "%-12s %12s %12s %8s %8s %8s %6s  %s\n", "metric", "median A", "median B", "spread A", "spread B", "worse", "bound", "verdict")
	for _, spec := range def.EndToEnd {
		v, err := compareRuns(spec, a[spec.Name], b[spec.Name])
		if err != nil {
			return err
		}
		verdict := "ok"
		if !v.SpreadOK {
			verdict = "spread over bound"
		}
		if !v.MedOK {
			verdict = "worse by more than bound"
		}
		if verdict != "ok" {
			bad++
		}
		fmt.Fprintf(out, "%-12s %12.6g %12.6g %8.4f %8.4f %8.4f %6.3f  %s\n",
			spec.Name, v.MedA, v.MedB, v.SpreadA, v.SpreadB, v.Worse, spec.Bound, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics out of bounds", bad)
	}
	return nil
}

// readResults collects each metric's values from a file of result
// lines; a line of a run that was not correct is an error.
func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: run was not correct", path, n)
		}
		for k, v := range r.Metrics {
			out[k] = append(out[k], v.Value)
		}
	}
	return out, sc.Err()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
