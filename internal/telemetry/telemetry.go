// Package telemetry is the scheduler observability substrate: a
// stdlib-only metrics registry (counters, gauges, log-bucketed
// histograms) with Prometheus text-exposition and JSON encoders, plus
// the trace subpackage's streaming decision spans.
//
// The registry is built for deterministic simulation first: every value
// derives from virtual-clock quantities and exposition iterates names
// in sorted order, so two runs that make the same decisions render
// byte-identical expositions. Parallel experiment replications
// (internal/runner) each own a private Registry; the harness merges
// them with Merge in job-index order, which keeps the aggregate a pure
// function of the job list exactly like every other experiment output.
//
// Writer contract: instruments are SINGLE-WRITER — exactly one
// goroutine (the simulation driving the scheduler) mutates a given
// registry's instruments, so written values stay a deterministic
// function of the decision stream. Reads, however, may come from
// anywhere at any time: the live introspection server (internal/obsrv)
// scrapes /metrics mid-run from an HTTP goroutine. Counter and Gauge
// are atomics, Histogram carries a mutex, and the instrument maps are
// guarded by the registry mutex, so a concurrent Snapshot (and the
// encoders, which render from one) observes a consistent, race-free
// image without ever blocking the writer for more than an instrument
// copy.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 instrument. Writes are
// single-writer (see the package comment); loads may race with them and
// are atomic.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 instrument (last value wins),
// stored as atomic bits so a concurrent scrape never reads a torn
// float.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds named instruments. Names follow Prometheus
// conventions (snake_case, unit-suffixed, counters end in _total).
// Lookups are get-or-create; hot paths should resolve instruments once
// and keep the pointers.
type Registry struct {
	mu       sync.Mutex // guards the maps (registration and iteration)
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named log-bucketed histogram, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a deep copy of the registry: fresh instruments
// holding the values observed at the call, with no aliasing back into
// r. It is safe to call from any goroutine while the writer keeps
// emitting — this is the path a mid-run /metrics scrape takes — and the
// copy is a plain single-owner registry the encoders can render without
// further synchronization.
func (r *Registry) Snapshot() *Registry {
	// Copy the instrument pointer maps under the registry lock (cheap),
	// then read each instrument outside it (counters and gauges are
	// atomic; histograms lock themselves), so the writer is never stalled
	// behind an exposition render.
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	out := NewRegistry()
	for n, c := range counters {
		cc := &Counter{}
		cc.v.Store(c.Value())
		out.counters[n] = cc
	}
	for n, g := range gauges {
		gg := &Gauge{}
		gg.Set(g.Value())
		out.gauges[n] = gg
	}
	for n, h := range hists {
		out.hists[n] = h.clone()
	}
	return out
}

// Merge folds other into r: counters and histograms add, gauges take
// the maximum (the only order-free combination for instantaneous
// values; the gauges here — waitlist depth, active periods — are
// "high-water" readings where max is also the useful aggregate).
// Callers merging per-job registries must do so in job-index order so
// that even float rounding is deterministic. Merge reads other through
// a snapshot, so it tolerates other still being written.
func (r *Registry) Merge(other *Registry) {
	if other == nil {
		return
	}
	snap := other.Snapshot()
	for name, c := range snap.counters {
		r.Counter(name).Add(c.Value())
	}
	for name, g := range snap.gauges {
		rg := r.Gauge(name)
		if v := g.Value(); v > rg.Value() {
			rg.Set(v)
		}
	}
	for name, h := range snap.hists {
		r.Histogram(name).Merge(h)
	}
}

// counterNames, gaugeNames, histNames return sorted name lists — the
// iteration order every encoder uses.
func (r *Registry) counterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.counters)
}

func (r *Registry) gaugeNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.gauges)
}

func (r *Registry) histNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.hists)
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
