package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// peakRSSMB returns the process's peak resident set size in MB (1e6
// bytes), from the VmHWM line of /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM extracts the VmHWM ("high water mark") field of a
// /proc/<pid>/status document, which the kernel prints in kB.
func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("peak rss: malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return float64(kb) * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line")
}
