package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"

	"rdasched/internal/report"
)

// Set-up builds inputs in microseconds, too briefly for one clock
// reading to time steadily, so it is timed in batches: each batch repeats
// set-up until setupBatchSeconds have passed and yields the mean time of
// one set-up, and setup_s is the median over setupBatches batches.
// Collection is paused inside a batch and forced between batches: a
// collection's cost depends on the whole heap, not on the set-up that
// happens to trigger it, and with it inside, batch means spread by half
// their median.
const (
	setupBatches      = 101
	setupBatchSeconds = 0.002
)

// sample is one end-to-end metric's per-repetition values within a run.
type sample struct {
	name, unit string
	values     []float64
}

// runResult is what one benchmark run measured.
type runResult struct {
	samples   []sample
	attempted int
	failed    int
	// calls and digests name each harness call and the hash of the
	// tables its first iteration rendered.
	calls, digests []string
}

// digestChecker enforces the output check: each call's rendered tables
// must hash the same in every iteration, and match the committed digest
// when the seed has one.
type digestChecker struct {
	committed []string // per call; nil when the seed has none
	first     []string
}

func newDigestChecker(workload string, seed uint64, calls int) *digestChecker {
	return &digestChecker{committed: committedDigests[workload][seed], first: make([]string, calls)}
}

// check records call i's digest and returns an error if it disagrees
// with the committed digest or with the first iteration's.
func (d *digestChecker) check(i int, name, digest string) error {
	if d.committed != nil && digest != d.committed[i] {
		return fmt.Errorf("%s: tables hash %s, committed digest is %s", name, digest, d.committed[i])
	}
	if d.first[i] == "" {
		d.first[i] = digest
		return nil
	}
	if digest != d.first[i] {
		return fmt.Errorf("%s: tables hash %s, first iteration hashed %s", name, digest, d.first[i])
	}
	return nil
}

// digest hashes a call's rendered tables, in order.
func digest(tables []*report.Table) string {
	h := sha256.New()
	for _, t := range tables {
		h.Write([]byte(t.String()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runCall runs one harness call, turning a panic into an error.
func runCall(c call) (tables []*report.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s panicked: %v", c.name, r)
		}
	}()
	tables, err = c.run()
	if err != nil {
		err = fmt.Errorf("%s: %w", c.name, err)
	}
	return tables, err
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runBench times the workload's set-up in batches, runs one untimed
// warm-up iteration, then iterates for the given wall seconds (at least
// one timed iteration), checking every call's output as it goes.
func runBench(w workload, seed uint64, seconds float64, scratch string) (*runResult, error) {
	res := &runResult{}
	fail := func(err error) {
		res.attempted++
		if err != nil {
			res.failed++
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}

	obsDir, err := os.MkdirTemp(scratch, "obs-")
	if err != nil {
		return nil, err
	}
	var in *inputs
	setups := make([]float64, setupBatches)
	gcPercent := debug.SetGCPercent(-1)
	for k := range setups {
		runtime.GC()
		n := 0
		t0 := time.Now()
		for n == 0 || time.Since(t0).Seconds() < setupBatchSeconds {
			if in, err = w.setup(seed, obsDir); err != nil {
				debug.SetGCPercent(gcPercent)
				return nil, fmt.Errorf("set-up: %w", err)
			}
			n++
		}
		setups[k] = time.Since(t0).Seconds() / float64(n)
	}
	debug.SetGCPercent(gcPercent)
	runtime.GC()

	dc := newDigestChecker(w.name, seed, len(in.calls))
	// iterate runs every call once and returns the summed host seconds
	// and heap bytes of the calls alone. Between calls, untimed, it
	// checks the call's output and the trace files it wrote.
	iterate := func() (secs, allocMB float64, err error) {
		seen := map[string]bool{}
		for i, c := range in.calls {
			a0 := heapAllocs()
			t0 := time.Now()
			tables, err := runCall(c)
			secs += time.Since(t0).Seconds()
			allocMB += float64(heapAllocs()-a0) / 1e6
			if err == nil {
				err = dc.check(i, c.name, digest(tables))
			}
			if err == nil && in.obsDir != "" {
				err = checkTraceFiles(in.obsDir, seen, c.name)
			}
			fail(err)
		}
		if in.obsDir != "" {
			if err := emptyDir(in.obsDir); err != nil {
				return 0, 0, err
			}
		}
		return secs, allocMB, nil
	}

	if _, _, err := iterate(); err != nil {
		return nil, err
	}
	var iters, allocs []float64
	start := time.Now()
	for len(iters) == 0 || time.Since(start).Seconds() < seconds {
		s, a, err := iterate()
		if err != nil {
			return nil, err
		}
		iters = append(iters, s)
		allocs = append(allocs, a)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	if in.reference != nil {
		for i, c := range in.reference() {
			tables, err := runCall(c)
			if err == nil {
				if d := digest(tables); d != dc.first[i] {
					err = fmt.Errorf("%s: tables without observers hash %s, with observers %s", c.name, d, dc.first[i])
				}
			}
			fail(err)
		}
	}
	for _, c := range in.calls {
		res.calls = append(res.calls, c.name)
	}
	res.digests = dc.first
	res.samples = []sample{
		{"setup_s", "s", setups},
		{"iter_s", "s", iters},
		{"alloc_mb", "MB", allocs},
		{"max_rss_mb", "MB", []float64{rss}},
	}
	return res, nil
}

// checkTraceFiles parses every trace file in dir that appeared since the
// last call; the observed sweep writes one Chrome trace per cell.
func checkTraceFiles(dir string, seen map[string]bool, call string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if seen[name] {
			continue
		}
		seen[name] = true
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if !json.Valid(b) {
			return fmt.Errorf("%s: trace file %s is not valid JSON", call, name)
		}
	}
	return nil
}
