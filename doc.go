// Package rdasched is a reproduction of "Improving Resource Utilization
// through Demand Aware Process Scheduling" (Nesterenko, Yi, Rao — ICPP
// 2018) in Go: a progress-period API, a demand-aware scheduling
// extension over a simulated Linux-default scheduler, a trace-driven
// profiler that discovers progress periods, and harnesses that regenerate
// every table and figure of the paper's evaluation.
//
// See README.md for the tour, DESIGN.md for the system inventory and the
// simulation substitutions, and EXPERIMENTS.md for paper-vs-measured
// results. The implementation lives under internal/; the runnable
// surfaces are cmd/rdasched, cmd/ppprof, cmd/experiments, and the
// examples/ programs. This package exports nothing: its tests hold one
// benchmark per table and figure (bench_test.go).
package rdasched
