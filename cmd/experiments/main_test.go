package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestValidateFlags pins the CLI's numeric-range checks: every rejected
// combination must fail loudly (the old behaviour silently ignored
// out-of-range values) and every sane one must pass.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		scale   float64
		jitter  float64
		reps    int
		jobs    int
		listen  string
		pace    string
		wantErr string // substring; empty means valid
	}{
		{"defaults", 1, 0.02, 4, 8, "", "max", ""},
		{"quick-run", 0.05, 0, 1, 1, "", "max", ""},
		{"live-watch", 1, 0.02, 4, 1, ":8080", "10x", ""},
		{"scale-zero", 0, 0.02, 4, 1, "", "max", "-scale"},
		{"scale-negative", -0.5, 0.02, 4, 1, "", "max", "-scale"},
		{"scale-above-one", 2, 0.02, 4, 1, "", "max", "-scale"},
		{"scale-nan", math.NaN(), 0.02, 4, 1, "", "max", "-scale"},
		{"jitter-negative", 1, -0.01, 4, 1, "", "max", "-jitter"},
		{"jitter-one", 1, 1, 4, 1, "", "max", "-jitter"},
		{"jitter-above-one", 1, 1.5, 4, 1, "", "max", "-jitter"},
		{"jitter-nan", 1, math.NaN(), 4, 1, "", "max", "-jitter"},
		{"reps-zero", 1, 0.02, 0, 1, "", "max", "-reps"},
		{"reps-negative", 1, 0.02, -3, 1, "", "max", "-reps"},
		{"jobs-zero", 1, 0.02, 4, 0, "", "max", "-jobs"},
		{"listen-no-port", 1, 0.02, 4, 1, "localhost", "max", "-listen"},
		{"pace-zero", 1, 0.02, 4, 1, "", "0x", "-pace"},
		{"pace-garbage", 1, 0.02, 4, 1, "", "quick", "-pace"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.scale, tc.jitter, tc.reps, tc.jobs, tc.listen, tc.pace)
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

// TestSelectTasks resolves every name the mode flags accept to its
// harness without running any: Tables 1–2, Figures 7–13, the six
// extensions and E4–E9 under both names.
func TestSelectTasks(t *testing.T) {
	cases := []struct {
		mode, name, want string // want: the task's String
	}{
		{"table", "1", "-table 1"},
		{"table", "2", "-table 2"},
		{"fig", "7", "-fig 7"},
		{"fig", "8", "-fig 8"},
		{"fig", "9", "-fig 9"},
		{"fig", "10", "-fig 10"},
		{"fig", "11", "-fig 11"},
		{"fig", "12", "-fig 12"},
		{"fig", "13", "-fig 13"},
		{"ext", "partitioning", "-ext partitioning"},
		{"ext", "reserve", "-ext reserve"},
		{"ext", "bandwidth", "-ext bandwidth"},
		{"ext", "calibration", "-ext calibration"},
		{"ext", "factor", "-ext factor"},
		{"ext", "waits", "-ext waits"},
	}
	for i, alias := range []string{"chaos", "overload", "domains", "heal", "observe", "revive"} {
		e := fmt.Sprintf("e%d", i+4)
		cases = append(cases,
			struct{ mode, name, want string }{"experiment", e, "-experiment " + e},
			struct{ mode, name, want string }{"experiment", alias, "-experiment " + alias})
	}
	for _, tc := range cases {
		tasks, err := selectTasks(false, map[string]string{tc.mode: tc.name})
		if err != nil {
			t.Errorf("-%s %s: %v", tc.mode, tc.name, err)
			continue
		}
		if len(tasks) != 1 || tasks[0].String() != tc.want || tasks[0].h.mode != tc.mode ||
			!slices.Contains(tasks[0].h.names, tc.name) {
			t.Errorf("-%s %s selected %v, want %s", tc.mode, tc.name, tasks, tc.want)
		}
	}
	// An alias selects the same harness as its canonical name, and every
	// figure of 7–10 the one shared sweep.
	for _, same := range [][2]map[string]string{
		{{"experiment": "e4"}, {"experiment": "chaos"}},
		{{"experiment": "e9"}, {"experiment": "revive"}},
		{{"fig": "7"}, {"fig": "10"}},
	} {
		a, errA := selectTasks(false, same[0])
		b, errB := selectTasks(false, same[1])
		if errA != nil || errB != nil || a[0].h != b[0].h {
			t.Errorf("%v and %v select different harnesses (%v, %v)", same[0], same[1], errA, errB)
		}
	}

	for _, tc := range []struct {
		all     bool
		set     map[string]string
		wantErr string
	}{
		{false, nil, "pass -all"},
		{false, map[string]string{"table": "3"}, `unknown -table "3"`},
		{false, map[string]string{"fig": "14"}, `unknown -fig "14"`},
		{false, map[string]string{"ext": "nope"}, `unknown -ext "nope"`},
		{false, map[string]string{"experiment": "e10"}, `unknown -experiment "e10"`},
		{false, map[string]string{"fig": "7", "ext": "waits"}, "-fig and -ext are exclusive"},
		{true, map[string]string{"experiment": "e4"}, "-all and -experiment are exclusive"},
		{false, map[string]string{"version": "true", "fig": "7", "trace-dir": "D"}, "-fig: -version reads no other flag"},
		{false, map[string]string{"version": "true", "fig": "nope"}, "-fig: -version reads no other flag"},
		{false, map[string]string{"version": "true", "scale": "0.5"}, "-scale: -version reads no other flag"},
		{true, map[string]string{"version": "true", "all": "true"}, "-all: -version reads no other flag"},
	} {
		if _, err := selectTasks(tc.all, tc.set); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("selectTasks(%v, %v) = %v, want an error containing %q", tc.all, tc.set, err, tc.wantErr)
		}
	}
	// -version alone runs no harness; -version=false is no mode at all.
	if tasks, err := selectTasks(false, map[string]string{"version": "true"}); err != nil || len(tasks) != 0 {
		t.Errorf("-version selected %v, %v; want nothing", tasks, err)
	}
	if tasks, err := selectTasks(false, map[string]string{"version": "false", "table": "1"}); err != nil || len(tasks) != 1 {
		t.Errorf("-version=false -table 1 selected %v, %v; want Table 1", tasks, err)
	}
}

// TestSelectAll pins -all's run order: both tables, one Figures 7–10
// sweep that prints all four, then the remaining figures, the
// extensions and E4–E9.
func TestSelectAll(t *testing.T) {
	tasks, err := selectTasks(true, map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, task := range tasks {
		got = append(got, task.String())
		if task.pick != "" {
			t.Errorf("%s: pick %q under -all, want every figure it renders", task, task.pick)
		}
	}
	want := []string{
		"-table 1", "-table 2", "-fig 7/8/9/10", "-fig 11", "-fig 12", "-fig 13",
		"-ext partitioning", "-ext reserve", "-ext bandwidth", "-ext calibration", "-ext factor", "-ext waits",
		"-experiment e4/chaos", "-experiment e5/overload", "-experiment e6/domains",
		"-experiment e7/heal", "-experiment e8/observe", "-experiment e9/revive",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("-all selects\n%v\nwant\n%v", got, want)
	}
}

// TestRefuse checks the output flags against the selected harness: a
// flag the harness cannot honour is refused with a message naming the
// flag and the harness, and every combination the docs and CI use is
// accepted.
func TestRefuse(t *testing.T) {
	cases := []struct {
		mode, name string
		flags      []string
		wantErr    string // the refused flag; empty means accepted
	}{
		{"fig", "12", []string{"-obs-dir"}, "-obs-dir"},
		{"fig", "12", []string{"-trace-dir"}, "-trace-dir"},
		{"fig", "12", []string{"-obs-dir", "-trace-dir"}, "-trace-dir"},
		{"ext", "calibration", []string{"-obs-dir"}, "-obs-dir"},
		{"experiment", "e9", []string{"-obs-dir"}, "-obs-dir"},
		{"experiment", "e9", []string{"-trace-dir"}, "-trace-dir"},
		{"experiment", "revive", []string{"-listen"}, "-listen"},
		{"fig", "13", []string{"-trace-dir"}, "-trace-dir"},
		{"fig", "7", []string{"-metrics"}, "-metrics"},
		{"table", "1", []string{"-listen"}, "-listen"},
		{"fig", "12", []string{"-pace"}, "-pace"},
		{"ext", "factor", []string{"-metrics"}, "-metrics"},

		{"experiment", "e4", []string{"-trace-dir", "-obs-dir"}, ""},
		{"experiment", "e7", []string{"-trace-dir", "-metrics"}, ""},
		{"experiment", "e8", []string{"-obs-dir", "-metrics"}, ""},
		{"experiment", "e6", []string{"-listen", "-pace"}, ""},
		{"experiment", "e9", []string{"-metrics"}, ""},
		{"ext", "waits", []string{"-metrics"}, ""},
		{"fig", "13", []string{"-obs-dir", "-listen", "-pace"}, ""},
		{"fig", "9", []string{"-trace-dir", "-obs-dir", "-listen", "-pace"}, ""},
		{"fig", "12", nil, ""},
	}
	for _, tc := range cases {
		tasks, err := selectTasks(false, map[string]string{tc.mode: tc.name})
		if err != nil {
			t.Fatal(err)
		}
		given := map[string]bool{}
		for _, f := range tc.flags {
			given[f] = true
		}
		err = refuse(tasks, given)
		harness := "-" + tc.mode + " " + tc.name
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s %v refused: %v", harness, tc.flags, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s %v accepted", harness, tc.flags)
		case tc.wantErr != "" && !(strings.Contains(err.Error(), tc.wantErr) && strings.Contains(err.Error(), harness)):
			t.Errorf("%s %v: error %q does not name %s and %s", harness, tc.flags, err, tc.wantErr, harness)
		}
	}
	all, err := selectTasks(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	every := map[string]bool{}
	for _, f := range outputFlags {
		every[f.flag] = true
	}
	if err := refuse(all, every); err != nil {
		t.Errorf("-all refused an output flag: %v", err)
	}
}
