// Command ppprof runs the §2.4 profiler over a synthetic application
// trace (the PIN-instrumentation stand-in), prints the per-window
// statistics on request, and reports the detected progress periods with
// the demand each would declare via pp_begin.
//
// Usage:
//
//	ppprof -app water_nsq -input 8000
//	ppprof -app ocean_cp -input 514 -windows
//	ppprof -app water_nsq -dump trace.rdat        # capture the trace
//	ppprof -load trace.rdat -app water_nsq        # profile a captured trace
package main

import (
	"flag"
	"fmt"
	"os"

	"rdasched/internal/memtrace"
	"rdasched/internal/profiler"
	"rdasched/internal/report"
	"rdasched/internal/workloads"
)

func main() {
	var (
		app     = flag.String("app", "water_nsq", "application to profile: water_nsq or ocean_cp")
		input   = flag.Int("input", 0, "input size (molecules or cells); 0 = the app's 1x default")
		seed    = flag.Uint64("seed", 1, "trace seed")
		windows = flag.Bool("windows", false, "also print per-window statistics")
		dump    = flag.String("dump", "", "write the generated trace to this file (RDAT format) and exit")
		load    = flag.String("load", "", "profile a previously dumped trace instead of generating one")
	)
	flag.Parse()
	if *dump != "" && *load != "" {
		fmt.Fprintln(os.Stderr, "ppprof: -dump and -load cannot be combined")
		os.Exit(2)
	}

	var (
		stream memtrace.Stream
		bin    *profiler.Binary
	)
	switch *app {
	case "water_nsq":
		if *input == 0 {
			*input = workloads.WaterNsqInputs[0]
		}
		stream, bin = workloads.WaterNsqTrace(*input, *seed)
	case "ocean_cp":
		if *input == 0 {
			*input = workloads.OceanInputs[0]
		}
		stream, bin = workloads.OceanTrace(*input, *seed)
	default:
		fmt.Fprintf(os.Stderr, "ppprof: unknown app %q (want water_nsq or ocean_cp)\n", *app)
		os.Exit(2)
	}

	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fatal(err)
		}
		n, err := memtrace.WriteStream(f, stream)
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d trace records to %s\n", n, *dump)
		return
	}
	var fs *memtrace.FileStream
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if fs, err = memtrace.NewFileStream(f); err != nil {
			fatal(err)
		}
		stream = fs
	}

	cfg := workloads.Fig12ProfilerConfig()
	wins, err := profiler.Windows(stream, cfg)
	if err != nil {
		fatal(err)
	}
	// A torn trace ends the stream early: fail before printing anything.
	if fs != nil && fs.Err() != nil {
		fatal(fs.Err())
	}
	if *windows {
		t := report.NewTable(fmt.Sprintf("windows (%d instructions each)", cfg.WindowInstr),
			"window", "footprint", "WSS", "reuse", "top JMP site")
		for _, w := range wins {
			t.AddRow(fmt.Sprintf("%d", w.Index), w.Footprint.String(), w.WSS.String(),
				fmt.Sprintf("%.1f", w.ReuseRatio), fmt.Sprintf("%d", w.TopSite))
		}
		fmt.Print(t.String())
		fmt.Println()
	}

	periods, err := profiler.DetectPeriods(wins, cfg)
	if err != nil {
		fatal(err)
	}
	profiler.Annotate(periods, bin)

	t := report.NewTable(
		fmt.Sprintf("progress periods of %s at input %d", *app, *input),
		"period", "windows", "instructions", "loop", "declared demand")
	for i, p := range periods {
		loop := "?"
		if p.LoopID >= 0 {
			loop = bin.Name(p.LoopID)
		}
		t.AddRow(fmt.Sprintf("PP%d", i+1),
			fmt.Sprintf("%d-%d", p.FirstWindow, p.LastWindow),
			fmt.Sprintf("%d", p.Instr()),
			loop,
			p.Demand().String())
	}
	fmt.Print(t.String())
	fmt.Printf("\nInsert pp_begin/pp_end around each loop above to let the RDA scheduler gate it.\n")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppprof:", err)
	os.Exit(1)
}
