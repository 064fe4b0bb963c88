package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdasched/internal/core"
)

func quickOpts() Options {
	opt := Defaults()
	opt.Scale = 0.05
	opt.Repetitions = 2
	opt.Seed = 3
	return opt
}

func TestWaitProfile(t *testing.T) {
	res, err := RunWaitProfile(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 workloads × 2 policies)", len(res.Rows))
	}
	for _, row := range res.Rows {
		reg := row.Telemetry
		if reg == nil {
			t.Fatalf("%s/%s: no registry", row.Workload, row.Policy)
		}
		admits := reg.Counter(core.MetricAdmitted).Value()
		if admits == 0 {
			t.Fatalf("%s/%s: no admissions", row.Workload, row.Policy)
		}
		waits := reg.Histogram(core.MetricWaitSeconds)
		if waits.Count() != admits {
			t.Fatalf("%s/%s: wait histogram count %d != admits %d",
				row.Workload, row.Policy, waits.Count(), admits)
		}
		// The BLAS groups oversubscribe the LLC under both policies, so
		// the tail quantiles must show real waiting and be ordered.
		p50, p95, p99 := waits.Quantile(0.50), waits.Quantile(0.95), waits.Quantile(0.99)
		if p95 <= 0 {
			t.Fatalf("%s/%s: p95 wait is zero under an over-capacity mix", row.Workload, row.Policy)
		}
		if p50 > p95 || p95 > p99 || p99 > waits.Max() {
			t.Fatalf("%s/%s: quantiles out of order: p50=%v p95=%v p99=%v max=%v",
				row.Workload, row.Policy, p50, p95, p99, waits.Max())
		}
	}
	tbl := res.Table().String()
	for _, col := range []string{"p50 wait ms", "p95 wait ms", "p99 wait ms"} {
		if !strings.Contains(tbl, col) {
			t.Fatalf("table missing column %q:\n%s", col, tbl)
		}
	}
	// The merged registry sums the rows.
	var sum uint64
	for _, row := range res.Rows {
		sum += row.Telemetry.Counter(core.MetricAdmitted).Value()
	}
	if got := res.Merged.Counter(core.MetricAdmitted).Value(); got != sum {
		t.Fatalf("merged admits %d != row sum %d", got, sum)
	}
}

// TestChaosTelemetryMatchesStats checks satellite routing: the E4
// robustness counters published into the registry must agree with the
// per-row Stats-derived floats the table is built from.
func TestChaosTelemetryMatchesStats(t *testing.T) {
	opt := quickOpts()
	opt.Repetitions = 1
	res, err := RunChaos(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("chaos run carried no registry")
	}
	var reclaims, fallbacks, rejects float64
	for _, row := range res.Rows {
		reclaims += row.Mean.ReclaimedLeases
		fallbacks += row.Mean.FallbackAdmissions
		rejects += row.Mean.RejectedDemands
	}
	check := func(name string, want float64) {
		t.Helper()
		if got := float64(res.Telemetry.Counter(name).Value()); got != want {
			t.Errorf("%s = %v, registry disagrees with Stats sum %v", name, got, want)
		}
	}
	check(core.MetricReclaimed, reclaims)
	check(core.MetricFallbacks, fallbacks)
	check(core.MetricRejected, rejects)
	if res.Telemetry.Counter(core.MetricReclaimed).Value()+
		res.Telemetry.Counter(core.MetricFallbacks).Value() == 0 {
		t.Error("fault injection exercised no robustness path at all")
	}
}

// TestTraceDirWritesPerCellFiles checks Options.TraceDir: one valid,
// Jobs-independent Chrome trace file per measured cell.
func TestTraceDirWritesPerCellFiles(t *testing.T) {
	render := func(jobs int) map[string][]byte {
		dir := t.TempDir()
		opt := quickOpts()
		opt.Repetitions = 1
		opt.Jobs = jobs
		opt.TraceDir = dir
		if _, err := RunPartitioning(opt); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = b
		}
		return out
	}
	serial := render(1)
	if len(serial) != 2 {
		t.Fatalf("trace files = %d, want one per E1 variant: %v", len(serial), serial)
	}
	for name, b := range serial {
		if !strings.HasSuffix(name, ".json") {
			t.Fatalf("unexpected trace file name %q", name)
		}
		if !bytes.Contains(b, []byte(`"traceEvents"`)) {
			t.Fatalf("%s is not a trace document", name)
		}
	}
	parallel := render(4)
	for name, b := range serial {
		if !bytes.Equal(b, parallel[name]) {
			t.Fatalf("trace %s differs between Jobs=1 and Jobs=4", name)
		}
	}
}

// TestTraceDirSkipsDefaultCells: a default-policy cell has no scheduler
// and no spans, so TraceDir writes no file for it, and every file it does
// write has the non-empty traceEvents array scripts/jsoncheck requires.
func TestTraceDirSkipsDefaultCells(t *testing.T) {
	dir := t.TempDir()
	opt := quickOpts()
	opt.Repetitions = 1
	opt.TraceDir = dir
	if _, err := RunChaos(opt); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, c := range chaosConfigs() {
		if c.Policy != nil {
			want += len(ChaosRates)
		}
	}
	if len(entries) != want {
		t.Fatalf("trace files = %d, want one per scheduled cell (%d)", len(entries), want)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "default") {
			t.Errorf("default-policy cell wrote trace %s", e.Name())
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Errorf("%s: traceEvents is empty", e.Name())
		}
	}
}

func TestTraceFileName(t *testing.T) {
	for in, want := range map[string]string{
		"E1 0.5MB partition":        "e1-0.5mb-partition.json",
		"waits BLAS-3 under strict": "waits-blas-3-under-strict.json",
		"chaos strict rate 0.15":    "chaos-strict-rate-0.15.json",
	} {
		if got := traceFileName(in); got != want {
			t.Errorf("traceFileName(%q) = %q, want %q", in, got, want)
		}
	}
}
