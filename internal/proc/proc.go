// Package proc defines the static description of simulated programs: a
// process is a set of threads, each executing a sequence of phases. A
// phase is the unit at which resource behaviour is constant — exactly the
// granularity the paper's progress periods capture. Phases carry the
// physical truth (working set, reuse, compute intensity); whether a phase
// is *declared* to the scheduler as a progress period is a separate bit,
// which is what lets the same workload run under the default scheduler
// (no declarations honoured) and under RDA.
package proc

import (
	"fmt"

	"rdasched/internal/pp"
)

// Phase is a duration of execution with constant resource behaviour.
type Phase struct {
	// Name labels the phase in reports ("dgemm", "slave2-pp1", ...).
	Name string
	// Instr is the phase length in dynamic instructions.
	Instr float64
	// WSS is the phase's working-set size (physical truth; the declared
	// demand equals this for declared phases, matching the paper's
	// profiler-derived annotations).
	WSS pp.Bytes
	// Reuse is the temporal-locality level of the working set.
	Reuse pp.Reuse
	// AccessesPerInstr is the fraction of instructions that reference
	// memory (loads+stores per instruction).
	AccessesPerInstr float64
	// PrivateHitFrac is the fraction of memory accesses absorbed by the
	// private L1/L2 (they never reach the shared LLC).
	PrivateHitFrac float64
	// StreamFrac is the fraction of LLC-reaching accesses that stream
	// through data *outside* the resident working set and therefore miss
	// regardless of residency (e.g. the matrix operand of dgemv: the
	// reused vector is the working set, the matrix is streamed). Residency
	// only helps the remaining (1-StreamFrac) accesses.
	StreamFrac float64
	// FlopsPerInstr is floating-point operations per instruction.
	FlopsPerInstr float64
	// Declared marks the phase as a progress period: the thread calls
	// pp_begin/pp_end around it. Undeclared phases run under the default
	// OS policy (the scheduler "ignores processes that have not provided
	// progress period information").
	Declared bool
	// BarrierAfter makes all threads of the process rendezvous when this
	// phase completes before any starts the next phase (SPLASH-2-style
	// barrier between computation steps; the paper requires barriers to
	// sit *outside* progress periods, which this field expresses).
	BarrierAfter bool
	// CachePartition, when positive, confines the phase to a cache
	// partition of that many bytes — the first extension in the paper's
	// future work (§6): a streaming application whose working set exceeds
	// the LLC "would fetch most data from main memory regardless", so it
	// is fenced into a small partition. The scheduler charges only the
	// partition against the load table, and the machine model keeps at
	// most that much of the phase's data resident.
	CachePartition pp.Bytes
	// BWDemand, when positive, additionally declares a memory-bandwidth
	// demand of that many bytes per second for the period — the paper's
	// "configurable to allow multiple hardware resources to be targeted".
	// The scheduling predicate then gates on the ResourceMemBW load table
	// as well, which keeps the co-scheduled set under the DRAM roofline
	// instead of wasting core power past bandwidth saturation.
	BWDemand float64
	// DeclaredWSS, when positive, is the working-set size the phase
	// *declares* to pp_begin instead of its physical WSS — a misbehaving
	// or badly profiled application lying to the admission layer
	// (internal/faults injects these). The machine model always uses the
	// physical WSS; only the scheduler sees the lie.
	DeclaredWSS pp.Bytes
	// LeakEnd marks a declared phase whose pp_end call is never made: the
	// period's demand stays registered with the resource monitor until a
	// lease reclaims it. Fault injection only.
	LeakEnd bool
	// CrashFrac, when in (0, 1], makes every thread of the process die
	// after executing that fraction of this phase's instructions — inside
	// the progress period, without a pp_end and without reaching later
	// phases or barriers. Fault injection only.
	CrashFrac float64
	// Repeat, when above 1, runs the phase that many times back to back:
	// the program behaves exactly as if the phase were listed Repeat
	// times in a row. Each repetition is its own phase to the machine and
	// the scheduler — a separate progress period when Declared, with its
	// own virtual phase index (see Cursor), boundary overhead, barrier and
	// crash point. 0 and 1 both mean once. Per-phase transformations
	// (jitter, scaling, fault plans) apply to the phase as a whole, so
	// every repetition gets the same one. It lets a workload with
	// hundreds of thousands of identical periods (Figure 11's innermost
	// loop) stay one Phase instead of one copy per period.
	Repeat int
}

// Repeats returns how many times the phase runs: Repeat, or 1 when
// Repeat is 0.
func (ph *Phase) Repeats() int {
	if ph.Repeat > 1 {
		return ph.Repeat
	}
	return 1
}

// OccupancyBytes returns how much LLC the phase can actually occupy: its
// working set, capped by its cache partition when one is assigned.
func (ph *Phase) OccupancyBytes() pp.Bytes {
	if ph.CachePartition > 0 && ph.CachePartition < ph.WSS {
		return ph.CachePartition
	}
	return ph.WSS
}

// Demand returns the pp.Demand the thread declares for this phase: the
// occupancy it will hold in the LLC (partition-capped), or the DeclaredWSS
// lie when fault injection planted one.
func (ph *Phase) Demand() pp.Demand {
	ws := ph.OccupancyBytes()
	if ph.DeclaredWSS > 0 {
		ws = ph.DeclaredWSS
	}
	return pp.Demand{Resource: pp.ResourceLLC, WorkingSet: ws, Reuse: ph.Reuse}
}

// AppendDemands appends every resource demand the phase declares to ds
// and returns the extended slice: the LLC occupancy always, plus a
// memory-bandwidth demand when BWDemand is set. Callers refill a buffer
// they own, so declaring a period allocates nothing.
func (ph *Phase) AppendDemands(ds []pp.Demand) []pp.Demand {
	ds = append(ds, ph.Demand())
	if ph.BWDemand > 0 {
		ds = append(ds, pp.Demand{
			Resource:   pp.ResourceMemBW,
			WorkingSet: pp.Bytes(ph.BWDemand),
			Reuse:      ph.Reuse,
		})
	}
	return ds
}

// Validate checks a phase is physically sensible. Every float bound is
// written so that NaN fails it.
func (ph *Phase) Validate() error {
	switch {
	case !(ph.Instr > 0):
		return fmt.Errorf("proc: phase %q has non-positive length %v", ph.Name, ph.Instr)
	case ph.WSS < 0:
		return fmt.Errorf("proc: phase %q has negative working set", ph.Name)
	case !unit(ph.AccessesPerInstr):
		return fmt.Errorf("proc: phase %q accesses/instr %v outside [0,1]", ph.Name, ph.AccessesPerInstr)
	case !unit(ph.PrivateHitFrac):
		return fmt.Errorf("proc: phase %q private hit fraction %v outside [0,1]", ph.Name, ph.PrivateHitFrac)
	case !unit(ph.StreamFrac):
		return fmt.Errorf("proc: phase %q stream fraction %v outside [0,1]", ph.Name, ph.StreamFrac)
	case !(ph.FlopsPerInstr >= 0):
		return fmt.Errorf("proc: phase %q flops/instr %v not >= 0", ph.Name, ph.FlopsPerInstr)
	case !ph.Reuse.Valid():
		return fmt.Errorf("proc: phase %q invalid reuse", ph.Name)
	case ph.CachePartition < 0:
		return fmt.Errorf("proc: phase %q negative cache partition", ph.Name)
	case !(ph.BWDemand >= 0):
		return fmt.Errorf("proc: phase %q bandwidth demand %v not >= 0", ph.Name, ph.BWDemand)
	case ph.DeclaredWSS < 0:
		return fmt.Errorf("proc: phase %q negative declared working set", ph.Name)
	case !unit(ph.CrashFrac):
		return fmt.Errorf("proc: phase %q crash fraction %v outside [0,1]", ph.Name, ph.CrashFrac)
	case ph.Repeat < 0:
		return fmt.Errorf("proc: phase %q negative repeat count %d", ph.Name, ph.Repeat)
	}
	return nil
}

// unit reports whether x lies in [0, 1]; NaN does not.
func unit(x float64) bool { return x >= 0 && x <= 1 }

// Program is the phase sequence one thread executes.
type Program []Phase

// Validate checks every phase.
func (p Program) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("proc: empty program")
	}
	for i := range p {
		if err := p[i].Validate(); err != nil {
			return fmt.Errorf("phase %d: %w", i, err)
		}
	}
	return nil
}

// TotalInstr sums instruction counts across phases, repetitions
// included.
func (p Program) TotalInstr() float64 {
	var sum float64
	for i := range p {
		sum += p[i].Instr * float64(p[i].Repeats())
	}
	return sum
}

// DeclaredCount returns the number of declared (progress period) phases
// the program runs, repetitions included.
func (p Program) DeclaredCount() int {
	n := 0
	for i := range p {
		if p[i].Declared {
			n += p[i].Repeats()
		}
	}
	return n
}

// Cursor is a position in the phase sequence a Program executes, in
// which a phase with Repeat n occupies n consecutive virtual phase
// indices. Everything that steps through a program at run time uses it,
// so a repeated phase is indistinguishable from n listed copies. The
// zero Cursor is at the first phase.
type Cursor struct {
	// Index is the virtual phase index: the phase's position in the
	// program with every repetition listed out. Gates, barriers and
	// admission keys use it.
	Index int
	// Slot is the current phase's index in the Program.
	Slot int
	// rep counts the finished repetitions of Program[Slot].
	rep int
}

// Next steps c past its current phase in p and reports whether a phase
// remains.
func (c *Cursor) Next(p Program) bool {
	c.Index++
	if c.rep++; c.rep < p[c.Slot].Repeats() {
		return true
	}
	c.rep = 0
	c.Slot++
	return c.Slot < len(p)
}

// Spec describes one process: how many threads and what each runs. All
// threads run the same program (the SPMD shape of every workload in the
// paper); per-thread variation comes from the machine's execution, not
// the spec.
type Spec struct {
	// Name labels the process in reports.
	Name string
	// Threads is the thread count (Table 2's "# Threads / Proc").
	Threads int
	// Program is the per-thread phase sequence.
	Program Program
	// TaskPool marks the process as using a task-pool programming model:
	// per §3.4 the scheduler pauses the whole pool when one member cannot
	// run, by admitting the pool's aggregate demand atomically.
	TaskPool bool
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Threads <= 0 {
		return fmt.Errorf("proc: spec %q has %d threads", s.Name, s.Threads)
	}
	if err := s.Program.Validate(); err != nil {
		return fmt.Errorf("proc: spec %q: %w", s.Name, err)
	}
	return nil
}

// Workload is a named multiprogrammed mix: a list of process specs,
// each possibly instantiated multiple times.
type Workload struct {
	Name  string
	Procs []Spec
}

// Validate checks every spec.
func (w Workload) Validate() error {
	if len(w.Procs) == 0 {
		return fmt.Errorf("proc: workload %q has no processes", w.Name)
	}
	for _, s := range w.Procs {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("workload %q: %w", w.Name, err)
		}
	}
	return nil
}

// Clone returns a deep copy of the spec (the program slice is not
// shared), so callers can mutate phases without affecting siblings.
func (s Spec) Clone() Spec {
	c := s
	c.Program = make(Program, len(s.Program))
	copy(c.Program, s.Program)
	return c
}

// Replicate returns n independent copies of spec with -%d name suffixes,
// the way the paper launches 96 instances of a BLAS kernel. Each copy
// owns its program: mutating one replica's phases never affects another.
func Replicate(spec Spec, n int) []Spec {
	out := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		c := spec.Clone()
		c.Name = fmt.Sprintf("%s-%d", spec.Name, i)
		out = append(out, c)
	}
	return out
}

// MapPhases returns a deep copy of w with fn applied to every phase of
// the copy, visiting the specs in order and each spec's phases in
// order, so a transform that draws random numbers draws them in that
// order.
func (w Workload) MapPhases(fn func(*Phase)) Workload {
	out := Workload{Name: w.Name, Procs: make([]Spec, len(w.Procs))}
	for i, s := range w.Procs {
		c := s.Clone()
		for j := range c.Program {
			fn(&c.Program[j])
		}
		out.Procs[i] = c
	}
	return out
}

// ScaleInstr returns a copy of the workload with every phase's
// instruction count multiplied by f — shorter runs with identical
// contention structure (process counts, threads, working sets).
func ScaleInstr(w Workload, f float64) Workload {
	return w.MapPhases(func(ph *Phase) { ph.Instr *= f })
}
