package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := r.Counter("x_total").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth")
	g.Set(3)
	g.Set(2)
	if got := r.Gauge("depth").Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2 (last value wins)", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram()
	// 100 observations: 1..100. p50 falls in (32,64], p99 in (64,128].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 || h.Sum() != 5050 {
		t.Fatalf("count/sum = %d/%v, want 100/5050", h.Count(), h.Sum())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v, want 1/100", h.Min(), h.Max())
	}
	if got := h.Quantile(0.50); got != 64 {
		t.Fatalf("p50 = %v, want 64 (bucket upper bound)", got)
	}
	// p99's bucket is (64,128], but the bound is clamped to the max.
	if got := h.Quantile(0.99); got != 100 {
		t.Fatalf("p99 = %v, want 100 (clamped to max)", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("p100 = %v, want 100", got)
	}
}

func TestHistogramZeroAndPowerOfTwoEdges(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-3)
	h.Observe(1)   // frexp exponent 1: bucket [1, 2)
	h.Observe(2)   // bucket [2, 4)
	h.Observe(0.5) // bucket [0.5, 1)
	// Bucket.UpperBound is exclusive: value v lands in the bucket whose
	// bound is the smallest power of two strictly greater than v.
	bs := h.Buckets()
	want := []Bucket{{0, 2}, {1, 1}, {2, 1}, {4, 1}}
	if len(bs) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", bs, want)
	}
	for i, w := range want {
		if bs[i] != w {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, bs[i], w)
		}
	}
	if got := h.Quantile(0.2); got != 0 {
		t.Fatalf("p20 = %v, want 0 (zero bucket)", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 10; i++ {
		a.Observe(1)
		b.Observe(100)
	}
	a.Merge(b)
	if a.Count() != 20 || a.Sum() != 1010 {
		t.Fatalf("merged count/sum = %d/%v", a.Count(), a.Sum())
	}
	if a.Min() != 1 || a.Max() != 100 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	// Quantiles are bucket upper bounds: the ten 1s fill bucket [1,2).
	if got := a.Quantile(0.5); got != 2 {
		t.Fatalf("merged p50 = %v, want 2", got)
	}
}

func TestRegistryMergeDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("a_total").Add(2)
		r.Gauge("g").Set(1.5)
		r.Histogram("h_seconds").Observe(0.01)
		return r
	}
	m1, m2 := NewRegistry(), NewRegistry()
	for i := 0; i < 3; i++ {
		m1.Merge(build())
		m2.Merge(build())
	}
	var b1, b2 bytes.Buffer
	if err := m1.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := m2.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("merged expositions differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	if m1.Counter("a_total").Value() != 6 {
		t.Fatalf("merged counter = %d, want 6", m1.Counter("a_total").Value())
	}
	if m1.Histogram("h_seconds").Count() != 3 {
		t.Fatalf("merged hist count = %d, want 3", m1.Histogram("h_seconds").Count())
	}
	// Gauges merge by max.
	if m1.Gauge("g").Value() != 1.5 {
		t.Fatalf("merged gauge = %v, want 1.5", m1.Gauge("g").Value())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("rda_periods_admitted_total").Add(3)
	r.Gauge("rda_active_periods").Set(2)
	h := r.Histogram("rda_wait_seconds")
	h.Observe(0)
	h.Observe(0.75)
	h.Observe(3)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE rda_periods_admitted_total counter
rda_periods_admitted_total 3
# TYPE rda_active_periods gauge
rda_active_periods 2
# TYPE rda_wait_seconds histogram
rda_wait_seconds_bucket{le="0"} 1
rda_wait_seconds_bucket{le="1"} 2
rda_wait_seconds_bucket{le="4"} 3
rda_wait_seconds_bucket{le="+Inf"} 3
rda_wait_seconds_sum 3.75
rda_wait_seconds_count 3
`
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteJSONValidAndDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()
	r.Gauge("g").Set(math.Pi)
	for i := 1; i <= 8; i++ {
		r.Histogram("h").Observe(float64(i))
	}
	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("JSON exposition is not deterministic")
	}
	var decoded map[string]any
	if err := json.Unmarshal(b1.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b1.String())
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("missing %q in %s", key, b1.String())
		}
	}
	if !strings.Contains(b1.String(), `"p95"`) {
		t.Fatalf("missing quantiles in %s", b1.String())
	}
}

func TestEmptyRegistryExposition(t *testing.T) {
	r := NewRegistry()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty registry exposition = %q, want empty", b.String())
	}
	b.Reset()
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
}
