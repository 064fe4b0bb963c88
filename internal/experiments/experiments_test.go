package experiments

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rdasched/internal/proc"
	"rdasched/internal/workloads"
)

// fastOpts shrinks workloads so the whole evaluation suite runs in
// test-friendly time while preserving contention shapes.
func fastOpts() Options {
	o := Defaults()
	o.Repetitions = 1
	o.JitterFrac = 0
	o.Scale = 0.25
	return o
}

func TestRunPolicyComparisonShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ws := []proc.Workload{workloads.BLAS3(), workloads.WaterNsq()}
	rows, err := RunPolicyComparison(ws, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 2 workloads × 3 policies", len(rows))
	}
	get := func(w, p string) PolicyRow {
		for _, r := range rows {
			if r.Workload == w && r.Policy == p {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", w, p)
		return PolicyRow{}
	}
	// The headline shapes: for high-reuse workloads RDA strict beats the
	// default on system energy and DRAM energy.
	for _, w := range []string{"BLAS-3", "water_nsq"} {
		def, st := get(w, "default"), get(w, "strict")
		if st.Mean.SystemJ >= def.Mean.SystemJ {
			t.Errorf("%s: strict system energy %.1f not below default %.1f",
				w, st.Mean.SystemJ, def.Mean.SystemJ)
		}
		if st.Mean.DRAMJ >= def.Mean.DRAMJ {
			t.Errorf("%s: strict DRAM energy %.1f not below default %.1f",
				w, st.Mean.DRAMJ, def.Mean.DRAMJ)
		}
		if st.Mean.GFLOPSPerWatt <= def.Mean.GFLOPSPerWatt {
			t.Errorf("%s: strict efficiency %.4f not above default %.4f",
				w, st.Mean.GFLOPSPerWatt, def.Mean.GFLOPSPerWatt)
		}
	}
}

func TestFigureTables(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := RunPolicyComparison([]proc.Workload{workloads.WaterNsq()}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []int{7, 8, 9, 10} {
		tbl, err := FigureTable(fig, rows)
		if err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		if tbl.Rows() != 1 {
			t.Fatalf("figure %d rows = %d", fig, tbl.Rows())
		}
		if !strings.Contains(tbl.String(), "water_nsq") {
			t.Fatalf("figure %d missing workload row", fig)
		}
	}
	if _, err := FigureTable(11, rows); err == nil {
		t.Fatal("figure 11 accepted as policy comparison")
	}
}

func TestRunGranularityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := fastOpts()
	opt.Scale = 1 // granularity uses a single process; full size is fine
	res, err := RunGranularity(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Overhead must be ~0 for outer and grow monotonically with period
	// count — the Figure 11 shape.
	byLabel := map[string]GranularityPoint{}
	for _, p := range res.Points {
		byLabel[p.Label] = p
	}
	if o := byLabel["outer"].Overhead; o > 0.01 {
		t.Errorf("outer overhead = %.3f, want ~0", o)
	}
	if m := byLabel["middle"].Overhead; m < 0.10 || m > 0.30 {
		t.Errorf("middle overhead = %.3f, want ~0.19 (paper)", m)
	}
	if i := byLabel["inner"].Overhead; i < 0.45 || i > 0.75 {
		t.Errorf("inner overhead = %.3f, want ~0.59 (paper)", i)
	}
	if byLabel["middle"].Overhead <= byLabel["outer"].Overhead ||
		byLabel["inner"].Overhead <= byLabel["middle"].Overhead {
		t.Error("overhead not monotone in period count")
	}
	if res.Table().Rows() != 4 {
		t.Error("table rows wrong")
	}
}

func TestRunWSSPredictionAccuracyBand(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunWSSPrediction(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d, want 4 (Wnsq PP1/PP2, Ocp PP1/PP2)", len(res.Series))
	}
	for _, s := range res.Series {
		// The paper reports 80–95%; allow a modest band around it.
		if s.Accuracy < 0.75 || s.Accuracy > 0.97 {
			t.Errorf("%s PP%d accuracy %.2f outside the expected band", s.App, s.Period, s.Accuracy)
		}
		// Measured growth must be monotone.
		for i := 1; i < len(s.Measured); i++ {
			if s.Measured[i] <= s.Measured[i-1] {
				t.Errorf("%s PP%d not monotone at input %d", s.App, s.Period, i)
			}
		}
		if s.Loop == "" {
			t.Errorf("%s PP%d not attributed to a loop", s.App, s.Period)
		}
	}
	if res.Table().Rows() != 4 {
		t.Error("table rows wrong")
	}
	checkGolden(t, "fig12", res.Table())
}

func TestRunInterferenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunInterference(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 12 {
		t.Fatalf("points = %d, want 4 inputs × 3 levels", len(res.Points))
	}
	get := func(mol, inst int) float64 {
		for _, p := range res.Points {
			if p.Molecules == mol && p.Instances == inst {
				return p.GFLOPS
			}
		}
		t.Fatalf("missing point %d×%d", mol, inst)
		return 0
	}
	// Small inputs scale almost linearly 1→6→12.
	for _, mol := range []int{512, 3375} {
		if r := get(mol, 6) / get(mol, 1); r < 4.5 {
			t.Errorf("%d molecules: 6-instance scaling %.2fx too low", mol, r)
		}
		if r := get(mol, 12) / get(mol, 6); r < 1.7 {
			t.Errorf("%d molecules: 12/6 scaling %.2fx, want near-linear", mol, r)
		}
	}
	// 8000: scales to 6, collapses at 12 (the paper's 33 → 20 drop).
	if r := get(8000, 6) / get(8000, 1); r < 4.5 {
		t.Errorf("8000: 6-instance scaling %.2fx too low", r)
	}
	r12 := get(8000, 12) / get(8000, 6)
	if r12 > 1.35 {
		t.Errorf("8000: 12/6 scaling %.2fx shows no interference collapse", r12)
	}
	// 32768: memory bound — 12 instances buy far less than the ideal 2x.
	// (The paper measures full flatness; our latency-exposed model still
	// grants a modest gain. EXPERIMENTS.md discusses the gap.)
	if r := get(32768, 12) / get(32768, 6); r > 1.55 {
		t.Errorf("32768: 12/6 scaling %.2fx, want ≲1.55 (memory bound)", r)
	}
	// Interference also grows with data size at fixed concurrency.
	if get(32768, 6) >= get(8000, 6) {
		t.Error("32768 at 6 instances not slower than 8000 at 6")
	}
	if res.Table().Rows() != 4 {
		t.Error("table rows wrong")
	}
}

func TestTable1And2Render(t *testing.T) {
	t1 := Table1()
	if t1.Rows() < 6 || !strings.Contains(t1.String(), "15360") {
		t.Fatalf("table 1 wrong:\n%s", t1.String())
	}
	t2 := Table2Report()
	if t2.Rows() != 8 {
		t.Fatalf("table 2 rows = %d", t2.Rows())
	}
	for _, name := range workloads.Names() {
		if !strings.Contains(t2.String(), name) {
			t.Fatalf("table 2 missing %s", name)
		}
	}
}

func TestScaleWorkload(t *testing.T) {
	w := workloads.BLAS1()
	s := scaleWorkload(w, 0.25)
	if len(s.Procs) != len(w.Procs) {
		t.Fatalf("scaling changed process count: %d vs %d (contention must be preserved)",
			len(s.Procs), len(w.Procs))
	}
	if s.Procs[0].Program[0].Instr >= w.Procs[0].Program[0].Instr {
		t.Fatal("instructions not scaled")
	}
	// Scale 1 returns the workload unchanged.
	if got := scaleWorkload(w, 1); len(got.Procs) != len(w.Procs) {
		t.Fatal("scale 1 changed the workload")
	}
}

func TestOptionsNormalization(t *testing.T) {
	var o Options
	if err := o.Validate(); err != nil {
		t.Fatalf("zero Options refused: %v", err)
	}
	n := o.normalized()
	if n.Machine.Cores == 0 || n.Repetitions != 1 || n.Scale != 1 || n.Jobs != runtime.GOMAXPROCS(0) {
		t.Fatalf("normalized = %+v", n)
	}
}

// discard adapts a harness to the error it returns.
func discard[R any](run func(Options) (R, error)) func(Options) error {
	return func(o Options) error {
		_, err := run(o)
		return err
	}
}

// TestRunRefusesInvalidOptions calls every exported Run* with each
// out-of-range field and expects ErrInvalidOptions before any
// replication runs: the options start from Defaults() at full scale, so
// a harness that ran anyway would take seconds, and the export
// directories must not exist afterwards. The harness list is checked
// against the package source so a new Run* cannot skip it.
func TestRunRefusesInvalidOptions(t *testing.T) {
	runs := map[string]func(Options) error{
		"RunPolicyComparison": func(o Options) error {
			_, err := RunPolicyComparison(workloads.Table2(), o)
			return err
		},
		"RunGranularity":   discard(RunGranularity),
		"RunWSSPrediction": discard(RunWSSPrediction),
		"RunInterference":  discard(RunInterference),
		"RunPartitioning":  discard(RunPartitioning),
		"RunReserve":       discard(RunReserve),
		"RunBandwidth":     discard(RunBandwidth),
		"RunCalibration":   discard(RunCalibration),
		"RunFactorSweep":   discard(RunFactorSweep),
		"RunWaitProfile":   discard(RunWaitProfile),
		"RunChaos":         discard(RunChaos),
		"RunOverload":      discard(RunOverload),
		"RunDomains":       discard(RunDomains),
		"RunHeal":          discard(RunHeal),
		"RunObserve":       discard(RunObserve),
		"RunRevive":        discard(RunRevive),
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Run") {
				if _, ok := runs[fn.Name.Name]; !ok {
					t.Errorf("%s is not in this test's table", fn.Name.Name)
				}
			}
		}
	}

	bad := []struct {
		field string
		set   func(*Options)
	}{
		{"Scale", func(o *Options) { o.Scale = -0.5 }},
		{"Scale", func(o *Options) { o.Scale = 1.5 }},
		{"Scale", func(o *Options) { o.Scale = math.NaN() }},
		{"Repetitions", func(o *Options) { o.Repetitions = -1 }},
		{"Jobs", func(o *Options) { o.Jobs = -2 }},
		{"JitterFrac", func(o *Options) { o.JitterFrac = -0.01 }},
		{"JitterFrac", func(o *Options) { o.JitterFrac = 1 }},
	}
	for name, run := range runs {
		for _, b := range bad {
			dir := filepath.Join(t.TempDir(), "out")
			opt := Defaults()
			opt.TraceDir, opt.ObsDir = dir, dir
			b.set(&opt)
			err := run(opt)
			if !errors.Is(err, ErrInvalidOptions) || !strings.Contains(err.Error(), b.field) {
				t.Errorf("%s with a bad %s: got %v, want ErrInvalidOptions naming the field", name, b.field, err)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("%s with a bad %s created its export directory", name, b.field)
			}
		}
	}
}
