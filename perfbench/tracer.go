package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"rdasched/internal/core"
	"rdasched/internal/machine"
	"rdasched/internal/memtrace"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// layer is the part of the system a span's time belongs to. Every traced
// cell is one experiments span; the decorators below open the others
// around the calls the benchmark makes, or the layers make, across each
// layer's public interface.
type layer uint8

const (
	layerExperiments layer = iota // harness-side code: input transforms, assembly, result collection
	layerMachine                  // machine.Run (engine dispatch included) and core's wake-ups into it
	layerCore                     // gate decisions: EnterPhase and ExitPhase
	layerUpkeep                   // the rest of core: timer callbacks, fault injection and recovery, gate construction, quiesce
	layerSinks                    // decision-stream observers and their end-of-run reports
	layerReport                   // Chrome trace and HTML report exporters, with their writes
	layerPersist                  // journal appends, snapshots, checkpoint open and close
	layerProfiler                 // profiler.Profile, including the memtrace stream it drains
	layerCache                    // set-associative hierarchy replays
	numLayers
)

var layerNames = [numLayers]string{"experiments", "machine", "core", "core-upkeep", "sinks", "report", "persist", "profiler", "cache"}

// span is one closed interval of a layer, in the tracer's clock units.
type span struct {
	id, parent int32 // parent -1 for a root
	layer      layer
	start, end int64
}

type frame struct {
	id    int32
	layer layer
	start int64
	child int64 // clock units covered by closed child spans
}

// tracer keeps a stack of open spans and each layer's self total: a
// span's duration minus the part its child spans cover. The clock is
// monotonic nanoseconds in the timing pass and cumulative heap bytes
// allocated in the allocation pass, so the same spans give self time in
// one and self allocation in the other.
type tracer struct {
	clock  func() int64
	stack  []frame
	nextID int32
	self   [numLayers]int64
	keep   bool // record closed spans (timing pass only)
	spans  []span
}

func newTimeTracer() *tracer {
	base := time.Now()
	return &tracer{clock: func() int64 { return int64(time.Since(base)) }, keep: true}
}

func newAllocTracer() *tracer {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	return &tracer{clock: func() int64 {
		metrics.Read(s)
		return int64(s[0].Value.Uint64())
	}}
}

func (t *tracer) begin(l layer) {
	t.stack = append(t.stack, frame{id: t.nextID, layer: l, start: t.clock()})
	t.nextID++
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() int64 {
	now := t.clock()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	t.self[f.layer] += d - f.child
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].id
	}
	if t.keep {
		t.spans = append(t.spans, span{id: f.id, parent: parent, layer: f.layer, start: f.start, end: now})
	}
	return d
}

// in runs fn as one span of layer l.
func (t *tracer) in(l layer, fn func()) {
	t.begin(l)
	fn()
	t.end()
}

// writeSpans writes the recorded spans as CSV, one line per span.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,parent,layer,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", s.id, s.parent, layerNames[s.layer], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counts are the work counters the decorators keep, taken at the same
// boundaries as the spans.
type counts struct {
	machineRuns  int64
	events       int64
	queuePeak    int
	enters       int64
	denies       int64
	exits        int64
	wakes        int64
	timerFires   int64
	records      int64
	replays      int64
	replayClock  int64 // tracer clock units inside Replay calls
	persistBytes int64
	reportBytes  int64
	refs         int64
	accesses     int64
	// When recording (timing pass only), times holds every fired event's
	// time in order and runStarts the index where each machine run's
	// events begin; sim.step_ns replays them.
	recordTimes bool
	times       []sim.Time
	runStarts   []int
}

// runs splits the recorded event times by machine run.
func (c *counts) runs() [][]sim.Time {
	var out [][]sim.Time
	for i, start := range c.runStarts {
		end := len(c.times)
		if i+1 < len(c.runStarts) {
			end = c.runStarts[i+1]
		}
		out = append(out, c.times[start:end])
	}
	return out
}

// stepHook counts engine events and the queue's high-water mark.
func (c *counts) stepHook(eng *sim.Engine) func(sim.Time) {
	if c.recordTimes {
		c.runStarts = append(c.runStarts, len(c.times))
	}
	return func(now sim.Time) {
		c.events++
		if p := eng.Pending(); p > c.queuePeak {
			c.queuePeak = p
		}
		if c.recordTimes {
			c.times = append(c.times, now)
		}
	}
}

// tracedGate times every admission decision the machine asks of core.
type tracedGate struct {
	g  machine.Gate
	tr *tracer
	c  *counts
}

func (g *tracedGate) EnterPhase(t *machine.Thread, i int, ph *proc.Phase) bool {
	g.tr.begin(layerCore)
	ok := g.g.EnterPhase(t, i, ph)
	g.tr.end()
	g.c.enters++
	if !ok {
		g.c.denies++
	}
	return ok
}

func (g *tracedGate) ExitPhase(t *machine.Thread, i int, ph *proc.Phase) {
	g.tr.begin(layerCore)
	g.g.ExitPhase(t, i, ph)
	g.tr.end()
	g.c.exits++
}

// tracedWaker attributes core's wake-ups back to the machine.
type tracedWaker struct {
	w  core.Waker
	tr *tracer
	c  *counts
}

func (w tracedWaker) Unblock(t *machine.Thread) {
	w.tr.begin(layerMachine)
	w.w.Unblock(t)
	w.tr.end()
	w.c.wakes++
}

// tracedTimer wraps every callback core arms on the engine (leases,
// admission deadlines, governor and recovery ticks).
type tracedTimer struct {
	t  core.Timer
	tr *tracer
	c  *counts
}

func (t tracedTimer) After(d sim.Duration, fn func()) *sim.Event {
	return t.t.After(d, func() {
		t.c.timerFires++
		t.tr.begin(layerUpkeep)
		fn()
		t.tr.end()
	})
}

func (t tracedTimer) Cancel(ev *sim.Event) { t.t.Cancel(ev) }

// tracedSink times one decision-stream observer.
type tracedSink struct {
	s  core.EventSink
	tr *tracer
	c  *counts
}

func (s *tracedSink) Record(e core.Event) {
	s.tr.begin(layerSinks)
	s.s.Record(e)
	s.tr.end()
	s.c.records++
}

// tracedBlameSink also forwards blocker snapshots: core delivers them
// only to sinks that implement core.BlameSink, so a wrapper without
// RecordDeny would silently starve the blame collector.
type tracedBlameSink struct {
	tracedSink
	b core.BlameSink
}

func (s *tracedBlameSink) RecordDeny(e core.Event, blockers []core.Blocker) {
	s.tr.begin(layerSinks)
	s.b.RecordDeny(e, blockers)
	s.tr.end()
	s.c.records++
}

func traceSink(s core.EventSink, tr *tracer, c *counts) core.EventSink {
	ts := tracedSink{s: s, tr: tr, c: c}
	if b, ok := s.(core.BlameSink); ok {
		return &tracedBlameSink{tracedSink: ts, b: b}
	}
	return &ts
}

// tracedReplay times the admission journal's appends.
type tracedReplay struct {
	r  core.ReplaySink
	tr *tracer
	c  *counts
}

func (r *tracedReplay) Replay(rec core.ReplayRecord) {
	r.tr.begin(layerPersist)
	r.r.Replay(rec)
	r.c.replayClock += r.tr.end()
	r.c.replays++
}

// countedStream counts the references the profiler pulls. It takes no
// clock reading: per-reference cost comes from draining an identical
// stream alone, since a clock read per reference would cost more than
// the reference.
type countedStream struct {
	s memtrace.Stream
	n int64
}

func (s *countedStream) Next() (memtrace.Ref, bool) {
	r, ok := s.s.Next()
	if ok {
		s.n++
	}
	return r, ok
}

// countedWriter counts the bytes a report exporter writes.
type countedWriter struct {
	w io.Writer
	n *int64
}

func (w countedWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	*w.n += int64(n)
	return n, err
}
