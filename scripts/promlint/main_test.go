package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rdasched/internal/telemetry"
)

// TestLintRegistryExposition lints what a real telemetry.Registry
// renders: a counter, gauges holding a plain and an infinite value, and
// a histogram with its _bucket, _sum and _count series.
func TestLintRegistryExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("rda_decisions_total").Add(42)
	reg.Gauge("rda_waitlist_depth").Set(3.5)
	reg.Gauge("rda_slo_max_burn_w0").Set(math.Inf(1))
	h := reg.Histogram("rda_wait_seconds")
	for _, v := range []float64{0.001, 0.25, 4} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	families, errs := lint(&buf)
	if len(errs) != 0 || families != 4 {
		t.Fatalf("%d families, errors %v; want 4 and none:\n%s", families, errs, text)
	}
	if families, errs := lint(strings.NewReader("")); families != 0 || len(errs) != 0 {
		t.Fatalf("empty exposition: %d families, errors %v", families, errs)
	}
}

// TestLintRejections appends one bad line (or family) to a clean
// two-line exposition and requires exactly one error naming it.
func TestLintRejections(t *testing.T) {
	const clean = "# TYPE rda_ok_total counter\nrda_ok_total 1\n"
	cases := []struct {
		name, body, want string
	}{
		{"malformed TYPE", "# TYPE rda_x counter extra\n", `line 3: malformed TYPE declaration "# TYPE rda_x counter extra"`},
		{"duplicate TYPE", "# TYPE rda_ok_total gauge\n", `line 3: "rda_ok_total" declared twice (counter, then gauge)`},
		{"unknown type", "# TYPE rda_x summary\n", `line 3: "rda_x" has unknown type "summary"`},
		{"sample without value", "rda_ok_total\n", `line 3: malformed sample "rda_ok_total"`},
		{"labels closed before opened", "rda_ok_total}{ 1\n", `line 3: malformed sample "rda_ok_total}{ 1"`},
		{"non-numeric value", "\nrda_ok_total fast\n", `line 4: rda_ok_total has non-numeric value "fast"`},
		{"sample without TYPE", "rda_other_total 1\n", `line 3: sample "rda_other_total" has no TYPE declaration`},
		{"_bucket on a counter", "rda_ok_total_bucket{le=\"1\"} 1\n", `line 3: sample "rda_ok_total_bucket" has no TYPE declaration`},
		{"_sum on a gauge", "# TYPE rda_depth gauge\nrda_depth_sum 1\n", `line 4: sample "rda_depth_sum" has no TYPE declaration`},
		{"_count on a counter", "rda_ok_total_count 1\n", `line 3: sample "rda_ok_total_count" has no TYPE declaration`},
		{"Registry.Lint naming", "# TYPE rda_requests counter\nrda_requests 1\n", `counter "rda_requests": missing the conventional _total suffix`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, errs := lint(strings.NewReader(clean + c.body))
			if len(errs) != 1 || errs[0].Error() != c.want {
				t.Fatalf("errors %v, want exactly %q", errs, c.want)
			}
		})
	}
}
