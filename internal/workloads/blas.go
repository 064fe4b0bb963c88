// Package workloads defines the eight workloads of Table 2 — three BLAS
// kernel groups and five SPLASH-2 applications — as proc.Workload phase
// descriptions, plus the input-scaled variants used by Figures 12 and 13.
//
// Phase parameters are derived from the kernels' arithmetic (the level-3
// flop counts come from internal/blas.Level3Flops): instruction counts from
// flop counts and per-element instruction estimates, working-set sizes
// and reuse levels straight from Table 2, and streaming fractions from
// each kernel's operand structure (a dgemv streams its matrix and reuses
// its vector; a blocked dgemm reuses nearly everything it touches).
package workloads

import (
	"fmt"

	"rdasched/internal/blas"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
)

// Table2ProcCount is the process count of every BLAS workload in Table 2.
const Table2ProcCount = 96

// blasKernel describes one BLAS kernel's workload-model parameters.
type blasKernel struct {
	name  string
	level int
	// wss is the Table 2 working-set size.
	wss pp.Bytes
	// reuse is the Table 2 reuse level of the working set.
	reuse pp.Reuse
	// instr is the dynamic instruction count of one kernel run (a single
	// progress period: "each BLAS kernel as a whole is considered as a
	// single progress period").
	instr float64
	// flopsPerInstr, accessesPerInstr, privateHitFrac, streamFrac are the
	// phase performance parameters.
	flopsPerInstr    float64
	accessesPerInstr float64
	privateHitFrac   float64
	streamFrac       float64
}

// blasKernels returns the twelve kernels with derived parameters.
//
// Derivations (per element of the innermost loop):
//
//   - level 1 (daxpy-like): 2 loads + 1 store + ~2 flops + ~3 loop/index
//     instructions → ~6 instr/elem, api ≈ 0.5, flops/instr ≈ 0.33. The
//     sweep is pure streaming (StreamFrac 1): spatial locality gives a
//     high private-hit fraction (7 of 8 consecutive doubles share a
//     64-byte line) but no temporal reuse at LLC level. The 0.6 MB
//     vectors are swept repeatedly, so the kernel still *occupies* its
//     working set (Table 2 lists 0.6 MB) without profiting from it much.
//   - level 2 (dgemv-like): the n-element vector (0.6 MB → n = 78643…
//     here the vector is the declared working set) is reused across all
//     matrix rows, while the n×n matrix streams from memory once per
//     sweep; ~85% of LLC-reaching accesses are matrix stream.
//   - level 3 (blocked dgemm-like): panels are blocked to fit in cache;
//     almost all LLC-reaching accesses hit resident panel data
//     (StreamFrac 0.05), flops/instr ≈ 0.5 with fused multiply-adds.
//
// Instruction counts target the paper's kernel scale (dgemm at n = 512:
// 2n³ = 268 Mflop → ~537 M instructions at 0.5 flops/instr; level-1/2
// kernels are repeated to run long enough to schedule meaningfully).
func blasKernels() []blasKernel {
	const (
		l1Elems  = 78643 // 0.6 MB of float64
		l1Sweeps = 200
		l2N      = 1100 // streamed matrix ~9.7 MB, vector 8.8 KB…0.6 MB panel
		l2Sweeps = 24
		l3N      = 512
	)
	l1Instr := 6.0 * l1Elems * l1Sweeps
	l2Instr := 5.0 * l2N * l2N * l2Sweeps
	mk3 := func(name string, wssMB float64) blasKernel {
		return blasKernel{
			name: name, level: 3, wss: pp.MB(wssMB), reuse: pp.ReuseHigh,
			instr:         2 * blas.Level3Flops("dgemm", l3N), // ~0.5 flops/instr
			flopsPerInstr: 0.5, accessesPerInstr: 0.3, privateHitFrac: 0.85, streamFrac: 0.05,
		}
	}
	return []blasKernel{
		{name: "daxpy", level: 1, wss: pp.MB(0.6), reuse: pp.ReuseLow, instr: l1Instr,
			flopsPerInstr: 0.33, accessesPerInstr: 0.5, privateHitFrac: 0.875, streamFrac: 1.0},
		{name: "dcopy", level: 1, wss: pp.MB(0.6), reuse: pp.ReuseLow, instr: l1Instr,
			flopsPerInstr: 0, accessesPerInstr: 0.55, privateHitFrac: 0.875, streamFrac: 1.0},
		{name: "dscal", level: 1, wss: pp.MB(0.6), reuse: pp.ReuseLow, instr: l1Instr,
			flopsPerInstr: 0.2, accessesPerInstr: 0.45, privateHitFrac: 0.875, streamFrac: 1.0},
		{name: "dswap", level: 1, wss: pp.MB(0.6), reuse: pp.ReuseLow, instr: l1Instr,
			flopsPerInstr: 0, accessesPerInstr: 0.6, privateHitFrac: 0.875, streamFrac: 1.0},

		{name: "dgemvN", level: 2, wss: pp.MB(0.6), reuse: pp.ReuseMed, instr: l2Instr,
			flopsPerInstr: 0.4, accessesPerInstr: 0.4, privateHitFrac: 0.8, streamFrac: 0.85},
		{name: "dgemvT", level: 2, wss: pp.MB(0.6), reuse: pp.ReuseMed, instr: l2Instr,
			flopsPerInstr: 0.4, accessesPerInstr: 0.42, privateHitFrac: 0.8, streamFrac: 0.85},
		{name: "dtrmv", level: 2, wss: pp.MB(0.6), reuse: pp.ReuseMed, instr: l2Instr / 2,
			flopsPerInstr: 0.4, accessesPerInstr: 0.4, privateHitFrac: 0.8, streamFrac: 0.85},
		{name: "dtrsv", level: 2, wss: pp.MB(0.6), reuse: pp.ReuseMed, instr: l2Instr / 2,
			flopsPerInstr: 0.35, accessesPerInstr: 0.4, privateHitFrac: 0.8, streamFrac: 0.85},

		mk3("dgemm", 1.6),
		func() blasKernel { k := mk3("dsyrk", 2.4); k.instr = 2 * blas.Level3Flops("dsyrk", l3N); return k }(),
		func() blasKernel { k := mk3("dtrmm(ru)", 2.4); k.instr = 2 * blas.Level3Flops("dtrmm", l3N); return k }(),
		func() blasKernel { k := mk3("dtrsm(ru)", 3.2); k.instr = 2 * blas.Level3Flops("dtrsm", l3N); return k }(),
	}
}

// kernelSpec converts one kernel into a single-threaded process with one
// declared progress period, bracketed by tiny undeclared setup/teardown
// phases (initializeMatrices / displayResult in the paper's Figure 4).
func kernelSpec(k blasKernel) proc.Spec {
	setup := proc.Phase{
		Name: k.name + "-init", Instr: k.instr * 0.01, WSS: k.wss, Reuse: pp.ReuseLow,
		AccessesPerInstr: 0.4, PrivateHitFrac: 0.9, StreamFrac: 1.0, FlopsPerInstr: 0,
	}
	kernel := proc.Phase{
		Name: k.name, Instr: k.instr, WSS: k.wss, Reuse: k.reuse,
		AccessesPerInstr: k.accessesPerInstr, PrivateHitFrac: k.privateHitFrac,
		StreamFrac: k.streamFrac, FlopsPerInstr: k.flopsPerInstr,
		Declared: true,
	}
	teardown := proc.Phase{
		Name: k.name + "-fini", Instr: k.instr * 0.005, WSS: pp.KB(64), Reuse: pp.ReuseLow,
		AccessesPerInstr: 0.2, PrivateHitFrac: 0.95, StreamFrac: 1.0, FlopsPerInstr: 0,
	}
	return proc.Spec{Name: k.name, Threads: 1, Program: proc.Program{setup, kernel, teardown}}
}

// blasGroup builds one of the three BLAS workloads: Table2ProcCount
// processes split evenly over the group's four kernels.
func blasGroup(level int, name string) proc.Workload {
	var kernels []blasKernel
	for _, k := range blasKernels() {
		if k.level == level {
			kernels = append(kernels, k)
		}
	}
	perKernel := Table2ProcCount / len(kernels)
	w := proc.Workload{Name: name}
	for _, k := range kernels {
		w.Procs = append(w.Procs, proc.Replicate(kernelSpec(k), perKernel)...)
	}
	return w
}

// BLAS1 is the level-1 workload: 96 single-threaded processes running
// daxpy, dcopy, dscal, dswap (24 each); 0.6 MB working sets, low reuse.
func BLAS1() proc.Workload { return blasGroup(1, "BLAS-1") }

// BLAS2 is the level-2 workload: dgemvN, dgemvT, dtrmv, dtrsv; 0.6 MB
// working sets, medium reuse.
func BLAS2() proc.Workload { return blasGroup(2, "BLAS-2") }

// BLAS3 is the level-3 workload: dgemm, dsyrk, dtrmm(ru), dtrsm(ru);
// 1.6–3.2 MB working sets, high reuse.
func BLAS3() proc.Workload { return blasGroup(3, "BLAS-3") }

// DgemmGranularity builds the Figure 11 experiment: a single dgemm
// process whose computation is split into the given number of
// equal-sized progress periods (1 = outermost loop, 512 = middle loop,
// 512² = innermost loop), or zero periods (no progress tracking at all).
// The periods are identical, so the program is one declared phase with
// Repeat set to the period count.
func DgemmGranularity(periods int) (proc.Workload, error) {
	var k blasKernel
	for _, c := range blasKernels() {
		if c.name == "dgemm" {
			k = c
		}
	}
	if periods < 0 {
		return proc.Workload{}, fmt.Errorf("workloads: negative period count %d", periods)
	}
	ph := kernelSpec(k).Program[1]
	ph.Declared = false
	if periods > 0 {
		ph = proc.Phase{
			Name: "dgemm-slice", Instr: k.instr / float64(periods), WSS: k.wss, Reuse: k.reuse,
			AccessesPerInstr: k.accessesPerInstr, PrivateHitFrac: k.privateHitFrac,
			StreamFrac: k.streamFrac, FlopsPerInstr: k.flopsPerInstr, Declared: true,
			Repeat: periods,
		}
	}
	return proc.Workload{
		Name:  fmt.Sprintf("dgemm-granularity-%d", periods),
		Procs: []proc.Spec{{Name: "dgemm", Threads: 1, Program: proc.Program{ph}}},
	}, nil
}
