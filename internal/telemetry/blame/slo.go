package blame

import (
	"fmt"

	"rdasched/internal/core"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
	"rdasched/internal/telemetry/trace"
)

// SLO layer: an admission-latency objective evaluated over the virtual
// clock with multi-window burn-rate alerting (the SRE-workbook shape:
// alert when the error budget burns faster than AlertBurn in *every*
// window, so short spikes and long smolders both must agree before an
// alert fires). Deterministic like everything else here — windows
// slide on virtual time, no wall clock anywhere.

// SLOConfig defines an admission-latency objective.
type SLOConfig struct {
	// Objective is the latency bound: an admission is good when the
	// period waited at most this long before running.
	Objective sim.Duration
	// Target is the objective's target good fraction (e.g. 0.95: 95% of
	// admissions within Objective). The error budget is 1 - Target.
	Target float64
	// Windows are the burn-rate evaluation windows (virtual time),
	// shortest first by convention.
	Windows []sim.Duration
	// AlertBurn is the burn-rate threshold: an alert fires when every
	// window's burn rate reaches it.
	AlertBurn float64
}

// DefaultSLOConfig targets 95% of admissions within 50 virtual
// milliseconds, alerting at 2x budget burn over 1s and 5s windows.
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		Objective: 50 * sim.Millisecond,
		Target:    0.95,
		Windows:   []sim.Duration{1 * sim.Second, 5 * sim.Second},
		AlertBurn: 2,
	}
}

// Validate rejects configurations the monitor cannot evaluate.
func (c SLOConfig) Validate() error {
	if c.Objective < 0 {
		return fmt.Errorf("blame: negative SLO objective %v", c.Objective)
	}
	if c.Target <= 0 || c.Target >= 1 {
		return fmt.Errorf("blame: SLO target %v outside (0, 1)", c.Target)
	}
	if len(c.Windows) == 0 {
		return fmt.Errorf("blame: SLO needs at least one burn window")
	}
	for _, w := range c.Windows {
		if w <= 0 {
			return fmt.Errorf("blame: non-positive SLO window %v", w)
		}
	}
	if c.AlertBurn <= 0 {
		return fmt.Errorf("blame: non-positive SLO alert burn %v", c.AlertBurn)
	}
	return nil
}

// BurnSample is the burn rate per window right after one admission.
type BurnSample struct {
	Rep  int       `json:"rep"`
	At   sim.Time  `json:"at_ps"`
	Burn []float64 `json:"burn"`
}

// SLOResult is the monitor's aggregated output.
type SLOResult struct {
	Config SLOConfig `json:"config"`
	// Admissions counts periods that reached running (admit, wake, or
	// fallback); Breaches those whose wait exceeded the objective.
	Admissions uint64 `json:"admissions"`
	Breaches   uint64 `json:"breaches"`
	// Alerts counts edge-triggered multi-window alert firings.
	Alerts uint64 `json:"alerts"`
	// MaxBurn is the highest burn rate seen per window.
	MaxBurn []float64 `json:"max_burn"`
	// Samples is the burn-rate timeline, one sample per admission,
	// ordered by (Rep, At).
	Samples []BurnSample `json:"samples"`
}

// Merge folds other into r in repetition order: counts add, per-window
// maxima take the max, timelines concatenate.
func (r *SLOResult) Merge(other *SLOResult) {
	if other == nil {
		return
	}
	if len(r.MaxBurn) == 0 {
		r.Config = other.Config
		r.MaxBurn = make([]float64, len(other.MaxBurn))
	}
	r.Admissions += other.Admissions
	r.Breaches += other.Breaches
	r.Alerts += other.Alerts
	for i, b := range other.MaxBurn {
		if i < len(r.MaxBurn) && b > r.MaxBurn[i] {
			r.MaxBurn[i] = b
		}
	}
	r.Samples = append(r.Samples, other.Samples...)
}

// Metric family names published by SLOResult.Publish. The per-window
// burn gauges are max-burn readings, which is exactly the "high-water"
// semantic Registry.Merge gives gauges.
const (
	MetricSLOAdmissions = "rda_slo_admissions_total"
	MetricSLOBreaches   = "rda_slo_breaches_total"
	MetricSLOAlerts     = "rda_slo_alerts_total"
	// MetricSLOBurnPrefix + window index names each gauge, e.g.
	// rda_slo_max_burn_w0.
	MetricSLOBurnPrefix = "rda_slo_max_burn_w"
)

// Publish writes the result's aggregates into a telemetry registry.
func (r *SLOResult) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter(MetricSLOAdmissions).Add(r.Admissions)
	reg.Counter(MetricSLOBreaches).Add(r.Breaches)
	reg.Counter(MetricSLOAlerts).Add(r.Alerts)
	for i, b := range r.MaxBurn {
		g := reg.Gauge(fmt.Sprintf("%s%d", MetricSLOBurnPrefix, i))
		if b > g.Value() {
			g.Set(b)
		}
	}
}

// sloSample is one admission in the sliding windows.
type sloSample struct {
	at  sim.Time
	bad bool
}

// SLOMonitor consumes the decision stream and evaluates the objective.
// It implements core.EventSink; subscribe it with AddSink.
type SLOMonitor struct {
	cfg     SLOConfig
	samples []sloSample
	// head[i] indexes the oldest sample still inside window i; heads
	// only advance, so the whole run costs O(samples × windows).
	head     []int
	burn     []float64
	bad      []uint64 // bad samples currently inside window i
	res      SLOResult
	alerting bool
}

// NewSLOMonitor returns a monitor for the given (validated) config.
func NewSLOMonitor(cfg SLOConfig) (*SLOMonitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SLOMonitor{
		cfg:  cfg,
		head: make([]int, len(cfg.Windows)),
		burn: make([]float64, len(cfg.Windows)),
		bad:  make([]uint64, len(cfg.Windows)),
		res:  SLOResult{Config: cfg, MaxBurn: make([]float64, len(cfg.Windows))},
	}, nil
}

// Record implements core.EventSink: every decision that starts a period
// running — immediate admit, wake, or fallback — is one SLI sample
// with the period's wait (zero for immediate admits) judged against
// the objective.
func (m *SLOMonitor) Record(e core.Event) {
	switch e.Kind {
	case core.EventAdmit, core.EventWake, core.EventFallback:
	default:
		return
	}
	bad := e.Wait > m.cfg.Objective
	m.samples = append(m.samples, sloSample{at: e.At, bad: bad})
	m.res.Admissions++
	if bad {
		m.res.Breaches++
		for i := range m.bad {
			m.bad[i]++
		}
	}
	alert := true
	for i, w := range m.cfg.Windows {
		cutoff := e.At.DurationSince(sim.Time(0)) - w
		for m.head[i] < len(m.samples)-1 &&
			m.samples[m.head[i]].at.DurationSince(sim.Time(0)) < cutoff {
			if m.samples[m.head[i]].bad {
				m.bad[i]--
			}
			m.head[i]++
		}
		n := len(m.samples) - m.head[i]
		badFrac := float64(m.bad[i]) / float64(n)
		m.burn[i] = badFrac / (1 - m.cfg.Target)
		if m.burn[i] > m.res.MaxBurn[i] {
			m.res.MaxBurn[i] = m.burn[i]
		}
		if m.burn[i] < m.cfg.AlertBurn {
			alert = false
		}
	}
	if alert && !m.alerting {
		m.res.Alerts++
	}
	m.alerting = alert
	m.res.Samples = append(m.res.Samples, BurnSample{
		At: e.At, Burn: append([]float64(nil), m.burn...),
	})
}

// Result returns the monitor's output so far.
func (m *SLOMonitor) Result() *SLOResult {
	out := m.res
	out.MaxBurn = append([]float64(nil), m.res.MaxBurn...)
	out.Samples = append([]BurnSample(nil), m.res.Samples...)
	return &out
}

// TraceCounters renders the burn-rate timeline as Perfetto counter
// tracks, one track per window, grouped with the replication's span
// process group (rep*1000, matching the trace package's pid scheme).
func (r *SLOResult) TraceCounters() []trace.Counter {
	out := make([]trace.Counter, 0, len(r.Samples)*len(r.Config.Windows))
	var names []string // names[i] is window i's track, formatted once
	for _, s := range r.Samples {
		for i, b := range s.Burn {
			for len(names) <= i {
				names = append(names, fmt.Sprintf("slo_burn_w%d", len(names)))
			}
			out = append(out, trace.Counter{
				Name: names[i],
				At:   s.At, Value: b, Pid: s.Rep * 1000,
			})
		}
	}
	return out
}
