package main

import (
	"fmt"
	"os"
	"path/filepath"

	"rdasched/internal/experiments"
	"rdasched/internal/report"
)

// goldenCase re-renders one committed golden at the options its test
// pins: one repetition, no jitter, seed 1, a quarter scale for Fig 11
// and a tenth for E4–E9.
type goldenCase struct {
	name   string
	render func() ([]*report.Table, error)
}

func goldenOptions(scale float64) experiments.Options {
	opt := experiments.Defaults()
	opt.Repetitions = 1
	opt.JitterFrac = 0
	opt.Scale = scale
	opt.Jobs = 1
	return opt
}

var goldenCases = []goldenCase{
	{"table1", func() ([]*report.Table, error) { return []*report.Table{experiments.Table1()}, nil }},
	{"table2", func() ([]*report.Table, error) { return []*report.Table{experiments.Table2Report()}, nil }},
	{"fig11", one(experiments.RunGranularity, goldenOptions(0.25))},
	{"e4", one(experiments.RunChaos, goldenOptions(0.1))},
	{"e5", one(experiments.RunOverload, goldenOptions(0.1))},
	{"e6", one(experiments.RunDomains, goldenOptions(0.1))},
	{"e7", one(experiments.RunHeal, goldenOptions(0.1))},
	{"e8", one(experiments.RunObserve, goldenOptions(0.1))},
	{"e9", one(experiments.RunRevive, goldenOptions(0.1))},
}

// checkGoldens re-renders every golden and compares it byte for byte
// with dir/<name>.golden, which it only reads. It returns one error per
// golden that differs or cannot be rendered.
func checkGoldens(dir string) (checked int, errs []error) {
	for _, g := range goldenCases {
		checked++
		want, err := os.ReadFile(filepath.Join(dir, g.name+".golden"))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		tables, err := g.render()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", g.name, err))
			continue
		}
		if got := tables[0].String(); got != string(want) {
			errs = append(errs, fmt.Errorf("%s: rendering differs from %s.golden:\n--- got ---\n%s--- want ---\n%s",
				g.name, g.name, got, want))
		}
	}
	return checked, errs
}
