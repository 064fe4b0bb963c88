package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/proc"
	"rdasched/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/timeline.golden")

// TestTimelineGolden pins -timeline's output, the busy-core bars and
// the scheduler's last decisions, for one SPLASH-2 and one BLAS-3
// workload under every policy at -scale 0.2. Regenerate with:
//
//	go test ./cmd/rdasched -run TimelineGolden -update
func TestTimelineGolden(t *testing.T) {
	var got bytes.Buffer
	for _, name := range []string{"water_nsq", "BLAS-3"} {
		for _, policy := range []string{"default", "strict", "compromise"} {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w = proc.ScaleInstr(w, 0.2)
			var pol core.Policy
			if policy != "default" {
				if pol, err = core.PolicyByName(policy); err != nil {
					t.Fatal(err)
				}
			}
			fmt.Fprintf(&got, "== -workload %s -policy %s -scale 0.2 -timeline\n", name, policy)
			if err := runTimeline(&got, w, pol); err != nil {
				t.Fatalf("%s %s: %v", name, policy, err)
			}
		}
	}
	path := filepath.Join("testdata", "timeline.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-timeline output drifted from %s (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			path, got.Bytes(), want)
	}
}

// TestValidateFlags pins the CLI's numeric-range checks. The -scale
// check in particular regresses a real bug: the CLI used to apply
// scaling only when 0 < scale < 1 and silently run the full workload
// for anything else, so `-scale 10` looked like a very slow quick run.
func TestValidateFlags(t *testing.T) {
	type in struct {
		scale, jitter                       float64
		reps, jobs                          int
		domFaults, sloMS, ckptEvery, killAt float64
		listen, pace                        string
	}
	nan := math.NaN()
	valid := in{scale: 1, jitter: 0.02, reps: 4, jobs: 1, pace: "max"}
	cases := []struct {
		name    string
		in      in
		wantErr string // substring; empty means valid
	}{
		{"defaults", valid, ""},
		{"quick-run", in{scale: 0.05, reps: 1, jobs: 4, domFaults: 0.5, sloMS: 25, ckptEvery: 0.5, killAt: 1.5, pace: "max"}, ""},
		{"live-watch", in{scale: 1, reps: 1, jobs: 1, listen: ":8080", pace: "10x"}, ""},
		{"listen-any-port", in{scale: 1, reps: 1, jobs: 1, listen: "127.0.0.1:0", pace: "1x"}, ""},
		{"pace-fractional", in{scale: 1, reps: 1, jobs: 1, pace: "0.5x"}, ""},
		{"scale-zero", in{scale: 0, reps: 1, jobs: 1, pace: "max"}, "-scale"},
		{"scale-negative", in{scale: -1, reps: 1, jobs: 1, pace: "max"}, "-scale"},
		{"scale-above-one", in{scale: 10, reps: 1, jobs: 1, pace: "max"}, "-scale"},
		{"scale-nan", in{scale: nan, reps: 1, jobs: 1, pace: "max"}, "-scale"},
		{"jitter-negative", in{scale: 1, jitter: -0.1, reps: 1, jobs: 1, pace: "max"}, "-jitter"},
		{"jitter-one", in{scale: 1, jitter: 1, reps: 1, jobs: 1, pace: "max"}, "-jitter"},
		{"jitter-nan", in{scale: 1, jitter: nan, reps: 1, jobs: 1, pace: "max"}, "-jitter"},
		{"reps-zero", in{scale: 1, reps: 0, jobs: 1, pace: "max"}, "-reps"},
		{"jobs-zero", in{scale: 1, reps: 1, jobs: 0, pace: "max"}, "-jobs"},
		{"domain-faults-negative", in{scale: 1, reps: 1, jobs: 1, domFaults: -1, pace: "max"}, "-domain-faults"},
		{"domain-faults-nan", in{scale: 1, reps: 1, jobs: 1, domFaults: nan, pace: "max"}, "-domain-faults"},
		{"slo-negative", in{scale: 1, reps: 1, jobs: 1, sloMS: -50, pace: "max"}, "-slo-ms"},
		{"slo-nan", in{scale: 1, reps: 1, jobs: 1, sloMS: nan, pace: "max"}, "-slo-ms"},
		{"checkpoint-every-negative", in{scale: 1, reps: 1, jobs: 1, ckptEvery: -1, pace: "max"}, "-checkpoint-every"},
		{"checkpoint-every-nan", in{scale: 1, reps: 1, jobs: 1, ckptEvery: nan, pace: "max"}, "-checkpoint-every"},
		{"kill-at-negative", in{scale: 1, reps: 1, jobs: 1, killAt: -2, pace: "max"}, "-kill-at"},
		{"kill-at-nan", in{scale: 1, reps: 1, jobs: 1, killAt: nan, pace: "max"}, "-kill-at"},
		// Past ~9.2e6 s the int64 picoseconds wrap negative.
		{"kill-at-overflow", in{scale: 1, reps: 1, jobs: 1, killAt: 1e7, pace: "max"}, "-kill-at"},
		{"checkpoint-every-overflow", in{scale: 1, reps: 1, jobs: 1, ckptEvery: 1e7, pace: "max"}, "-checkpoint-every"},
		{"domain-faults-heal-overflow", in{scale: 1, reps: 1, jobs: 1, domFaults: 5e6, pace: "max"}, "-domain-faults"},
		{"listen-no-port", in{scale: 1, reps: 1, jobs: 1, listen: "localhost", pace: "max"}, "-listen"},
		{"listen-garbage", in{scale: 1, reps: 1, jobs: 1, listen: "http://:8080", pace: "max"}, "-listen"},
		{"pace-zero", in{scale: 1, reps: 1, jobs: 1, pace: "0x"}, "-pace"},
		{"pace-negative", in{scale: 1, reps: 1, jobs: 1, pace: "-2x"}, "-pace"},
		{"pace-garbage", in{scale: 1, reps: 1, jobs: 1, pace: "fast"}, "-pace"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.in.scale, tc.in.jitter, tc.in.reps, tc.in.jobs,
				tc.in.domFaults, tc.in.sloMS, tc.in.ckptEvery, tc.in.killAt, tc.in.listen, tc.in.pace)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.wantErr)
			}
		})
	}
}

// flags is every flag the CLI defines.
var flags = []string{
	"workload", "policy", "reps", "jitter", "seed", "scale", "list", "all",
	"json", "timeline", "trace", "metrics", "jobs", "governor", "domains",
	"domain-faults", "obs-dir", "slo-ms", "checkpoint-dir", "checkpoint-every",
	"restore", "kill-at", "listen", "pace", "version", "cpuprofile", "memprofile",
}

// TestRefuse pins the mode table: each mode accepts exactly the flags
// its run reads and refuses every other flag by name, and a measured
// run refuses the four flags that only act alongside another one.
func TestRefuse(t *testing.T) {
	want := map[string][]string{
		"version":  nil,
		"list":     {"cpuprofile", "memprofile"},
		"all":      {"reps", "jitter", "seed", "scale", "cpuprofile", "memprofile"},
		"timeline": {"workload", "policy", "scale", "cpuprofile", "memprofile"},
	}
	if len(modes) != len(want) {
		t.Fatalf("%d modes, want %d", len(modes), len(want))
	}
	for mode, reads := range want {
		set := map[string]string{mode: "true"}
		for _, f := range reads {
			set[f] = "x"
		}
		if err := refuse(set); err != nil {
			t.Errorf("-%s with every flag it reads: %v", mode, err)
		}
		for _, f := range flags {
			if f == mode || slices.Contains(reads, f) {
				continue
			}
			err := refuse(map[string]string{mode: "true", f: "x"})
			if err == nil || !strings.HasPrefix(err.Error(), "-"+f+":") {
				t.Errorf("-%s -%s: %v, want the flag refused by name", mode, f, err)
			}
		}
	}

	cases := []struct {
		set     map[string]string
		wantErr string // the refused flag; empty means accepted
	}{
		{map[string]string{}, ""},
		{map[string]string{"workload": "water_nsq", "policy": "strict", "metrics": "true", "trace": "t.json"}, ""},
		{map[string]string{"list": "true", "all": "true"}, "-all:"},
		{map[string]string{"version": "true"}, ""},
		{map[string]string{"version": "true", "trace": "vt.json", "workload": "nope"}, "-trace:"},
		{map[string]string{"version": "true", "list": "true"}, "-list:"},
		{map[string]string{"all": "true", "timeline": "true"}, "-timeline:"},
		{map[string]string{"timeline": "false", "metrics": "true"}, ""},
		{map[string]string{"slo-ms": "20"}, "-slo-ms:"},
		{map[string]string{"slo-ms": "20", "obs-dir": ""}, "-slo-ms:"},
		{map[string]string{"slo-ms": "20", "obs-dir": "D"}, ""},
		{map[string]string{"checkpoint-every": "0.5"}, "-checkpoint-every:"},
		{map[string]string{"checkpoint-every": "0.5", "checkpoint-dir": "D"}, ""},
		{map[string]string{"kill-at": "0.07"}, "-kill-at:"},
		{map[string]string{"kill-at": "0.07", "checkpoint-dir": ""}, "-kill-at:"},
		{map[string]string{"kill-at": "0.01", "restore": "ck"}, "-kill-at:"},
		{map[string]string{"kill-at": "0.07", "checkpoint-dir": "D", "checkpoint-every": "0.02"}, ""},
		{map[string]string{"restore": "D", "reps": "7"}, "-reps 7:"},
		{map[string]string{"restore": "D", "reps": "1"}, ""},
		{map[string]string{"restore": "D"}, ""},
		{map[string]string{"reps": "7"}, ""},
	}
	for _, tc := range cases {
		err := refuse(tc.set)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%v refused: %v", tc.set, err)
		case tc.wantErr != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.wantErr)):
			t.Errorf("%v: %v, want it refused as %q", tc.set, err, tc.wantErr)
		}
	}
}
