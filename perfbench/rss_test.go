package main

import (
	"strings"
	"testing"
)

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  812344 kB\nVmHWM:\t   80892 kB\nVmRSS:\t   80000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil {
		t.Fatal(err)
	}
	if want := 80892 * 1024 / 1e6; got != want {
		t.Errorf("parseVmHWM = %v MB, want %v", got, want)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) should fail", bad)
		}
	}
}

func TestPeakRSSReadsThisProcess(t *testing.T) {
	mb, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	// A running Go test binary is resident in at least a megabyte and,
	// on these tests, far below a gigabyte.
	if mb < 1 || mb > 1000 {
		t.Errorf("peak RSS %v MB is not plausible for this process", mb)
	}
}
