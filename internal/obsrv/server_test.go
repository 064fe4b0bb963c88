// Integration tests for the introspection server wired to real runs.
// External test package: these drive internal/perf, which itself
// imports obsrv, so an in-package test would be an import cycle.
package obsrv_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rdasched/internal/core"
	"rdasched/internal/machine"
	"rdasched/internal/obsrv"
	"rdasched/internal/perf"
	"rdasched/internal/proc"
	"rdasched/internal/workloads"
)

// quickRun is a small scheduled configuration that still emits a real
// decision stream: water_nsq at 5% scale under RDA:Strict with
// telemetry and blame attached.
func quickRun(srv *obsrv.Server, pace float64) (proc.Workload, perf.RunConfig) {
	w := proc.ScaleInstr(workloads.WaterNsq(), 0.05)
	return w, perf.RunConfig{
		Machine:   machine.DefaultConfig(),
		Policy:    core.StrictPolicy{},
		Telemetry: true,
		Blame:     true,
		Seed:      1,
		Obsrv:     srv,
		Pace:      pace,
	}
}

func serve(t *testing.T) *obsrv.Server {
	t.Helper()
	srv, err := obsrv.Serve(obsrv.Config{Addr: "127.0.0.1:0", StatePeriod: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// A connection the client dialed but never sent a request on
		// stays StateNew on the server, and Shutdown only treats it as
		// idle after 5 s, the whole timeout below. Close the client's
		// idle connections first so a loaded machine cannot hit that.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestScrapeDuringRun is the tentpole's race-safety claim end to end:
// while a real run executes, concurrent goroutines hammer /metrics,
// /state, and /healthz. Under -race this proves a live scrape never
// races the engine; the assertions prove the responses are real
// expositions, not error pages.
func TestScrapeDuringRun(t *testing.T) {
	srv := serve(t)
	w, rc := quickRun(srv, 0)

	runDone := make(chan error, 1)
	go func() {
		_, _, err := perf.Run(w, rc)
		runDone <- err
	}()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	sawMetrics := make(chan string, 1)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := get(t, srv.URL()+"/metrics")
				if code != http.StatusOK {
					t.Errorf("/metrics -> %d", code)
					return
				}
				select {
				case sawMetrics <- body:
				default:
				}
				get(t, srv.URL()+"/state")
				get(t, srv.URL()+"/healthz")
			}
		}()
	}
	if err := <-runDone; err != nil {
		t.Errorf("run: %v", err)
	}
	// Take a /metrics body before stopping the scrapers: on a loaded
	// machine the run can end before any scraper's first request
	// returns, and a stopped scraper sends nothing.
	body := <-sawMetrics
	close(stop)
	wg.Wait()

	for _, want := range []string{"# TYPE", "rda_obsrv_scrapes_total", "rda_obsrv_dropped_events_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body[:min(len(body), 400)])
		}
	}

	// After the run, the final state and blame snapshots are published
	// unconditionally and must parse as JSON objects.
	for _, ep := range []string{"/state", "/blame"} {
		code, body := get(t, srv.URL()+ep)
		if code != http.StatusOK {
			t.Fatalf("%s -> %d after run", ep, code)
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(body), &obj); err != nil {
			t.Fatalf("%s is not a JSON object: %v", ep, err)
		}
	}
	code, body := get(t, srv.URL()+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "rdasched") {
		t.Fatalf("/healthz -> %d %q", code, body)
	}
	if code, _ := get(t, srv.URL()+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz -> %d after run started", code)
	}
}

// TestObservedRunOutputIdentical is the no-observer-effect guarantee:
// a run watched through the server — scraped, streamed to a slow
// /events reader, state-published — reports byte-identical metrics and
// telemetry to the same run with no server attached.
func TestObservedRunOutputIdentical(t *testing.T) {
	w := proc.ScaleInstr(workloads.WaterNsq(), 0.05)
	base := perf.RunConfig{
		Machine:   machine.DefaultConfig(),
		Policy:    core.StrictPolicy{},
		Telemetry: true,
		Blame:     true,
		Seed:      1,
	}
	plainMean, _, err := perf.Run(w, base)
	if err != nil {
		t.Fatal(err)
	}

	srv := serve(t)
	// A deliberately tiny, never-drained subscriber ring: the run must
	// drop events for it rather than change behaviour.
	resp, err := http.Get(srv.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	observed := base
	observed.Obsrv = srv
	obsMean, _, err := perf.Run(w, observed)
	if err != nil {
		t.Fatal(err)
	}

	pj, err := json.Marshal(plainMean)
	if err != nil {
		t.Fatal(err)
	}
	oj, err := json.Marshal(obsMean)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, oj) {
		t.Fatalf("observed run metrics differ from unobserved:\nplain: %s\nobserved: %s", pj, oj)
	}
	var pexp, oexp bytes.Buffer
	if err := plainMean.Telemetry.WritePrometheus(&pexp); err != nil {
		t.Fatal(err)
	}
	if err := obsMean.Telemetry.WritePrometheus(&oexp); err != nil {
		t.Fatal(err)
	}
	if pexp.String() != oexp.String() {
		t.Fatal("observed run telemetry exposition differs from unobserved")
	}
}

// TestEventsStream reads the SSE stream during a paced run and checks
// the frames are well-formed (id/event/data triplets carrying the wire
// JSON), and that disconnecting unsubscribes from the hub.
func TestEventsStream(t *testing.T) {
	srv := serve(t)
	w, rc := quickRun(srv, 0)

	// Connect before starting the run so the subscription exists when
	// the decision stream begins; the deadline bounds the whole test if
	// frames never arrive.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL()+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	runDone := make(chan error, 1)
	go func() {
		_, _, err := perf.Run(w, rc)
		runDone <- err
	}()

	sc := bufio.NewScanner(resp.Body)
	frames := 0
	for sc.Scan() && frames < 5 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var we struct {
			Kind string  `json:"kind"`
			AtS  float64 `json:"at_s"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &we); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		if we.Kind == "" {
			t.Fatalf("SSE event with empty kind: %q", line)
		}
		frames++
	}
	if frames < 5 {
		t.Fatalf("read %d SSE frames, want 5 (scan err %v)", frames, sc.Err())
	}

	// Disconnect; the handler must unsubscribe promptly.
	cancel()
	deadline := time.After(5 * time.Second)
	for srv.Hub().Subscribers() != 0 {
		select {
		case <-deadline:
			t.Fatalf("subscriber not removed after disconnect (have %d)", srv.Hub().Subscribers())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := <-runDone; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestCloseDrainsEventStream: shutting the server down while an SSE
// reader is connected must terminate the stream and return, never
// deadlock on the open handler.
func TestCloseDrainsEventStream(t *testing.T) {
	srv, err := obsrv.Serve(obsrv.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Publish a few events that sit in the subscriber's ring; Close must
	// still flush them to the reader before ending the stream.
	for i := 0; i < 3; i++ {
		srv.Hub().Record(core.Event{Kind: core.EventAdmit, Proc: i})
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed <- srv.Close(ctx)
	}()
	body, readErr := io.ReadAll(resp.Body) // ends when the handler returns
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked on an open SSE stream")
	}
	if readErr == nil && strings.Count(string(body), "data: ") != 3 {
		t.Fatalf("drained stream carried %d events, want 3:\n%s", strings.Count(string(body), "data: "), body)
	}
}

// TestStopRequest: RequestStop mid-run halts the engine at the next
// event and perf reports the clean-stop sentinel, not a generic halt.
func TestStopRequest(t *testing.T) {
	srv := serve(t)
	// Heavy pacing guarantees the run is still in flight when the stop
	// lands (1 virtual second per wall second; the workload runs many
	// virtual seconds).
	w, rc := quickRun(srv, 1)

	runDone := make(chan error, 1)
	go func() {
		_, _, err := perf.Run(w, rc)
		runDone <- err
	}()
	time.Sleep(50 * time.Millisecond)
	srv.RequestStop()
	select {
	case err := <-runDone:
		if !errors.Is(err, perf.ErrStopped) {
			t.Fatalf("stopped run returned %v, want perf.ErrStopped", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not honor the stop request")
	}
	if !srv.StopRequested() {
		t.Fatal("StopRequested not latched")
	}
}

// TestReadyzGate: /readyz is 503 until the run flips it.
func TestReadyzGate(t *testing.T) {
	srv := serve(t)
	if code, _ := get(t, srv.URL()+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before run -> %d, want 503", code)
	}
	if code, _ := get(t, srv.URL()+"/state"); code != http.StatusServiceUnavailable {
		t.Fatalf("/state before any publish -> %d, want 503", code)
	}
	srv.SetReady(true)
	if code, _ := get(t, srv.URL()+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after SetReady -> %d, want 200", code)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
