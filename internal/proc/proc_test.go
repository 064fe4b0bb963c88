package proc

import (
	"fmt"
	"strings"
	"testing"

	"rdasched/internal/pp"
)

func validPhase() Phase {
	return Phase{
		Name:             "k",
		Instr:            1e6,
		WSS:              pp.MB(1),
		Reuse:            pp.ReuseHigh,
		AccessesPerInstr: 0.3,
		PrivateHitFrac:   0.8,
		FlopsPerInstr:    0.5,
		Declared:         true,
	}
}

func TestPhaseValidate(t *testing.T) {
	good := validPhase()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid phase rejected: %v", err)
	}
	mut := []func(*Phase){
		func(p *Phase) { p.Instr = 0 },
		func(p *Phase) { p.WSS = -1 },
		func(p *Phase) { p.AccessesPerInstr = 1.5 },
		func(p *Phase) { p.AccessesPerInstr = -0.1 },
		func(p *Phase) { p.PrivateHitFrac = 2 },
		func(p *Phase) { p.FlopsPerInstr = -1 },
		func(p *Phase) { p.Reuse = pp.Reuse(9) },
		func(p *Phase) { p.Repeat = -1 },
	}
	for i, m := range mut {
		p := validPhase()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPhaseDemand(t *testing.T) {
	p := validPhase()
	d := p.Demand()
	if d.Resource != pp.ResourceLLC || d.WorkingSet != p.WSS || d.Reuse != p.Reuse {
		t.Fatalf("Demand = %+v", d)
	}
}

func TestProgramTotals(t *testing.T) {
	prog := Program{
		{Name: "a", Instr: 100, FlopsPerInstr: 0.5, Reuse: pp.ReuseLow},
		{Name: "b", Instr: 300, FlopsPerInstr: 1.0, Reuse: pp.ReuseLow, Declared: true},
	}
	if got := prog.TotalInstr(); got != 400 {
		t.Fatalf("TotalInstr = %v", got)
	}
	if got := prog.DeclaredCount(); got != 1 {
		t.Fatalf("DeclaredCount = %v", got)
	}
}

func TestRepeatedProgram(t *testing.T) {
	prog := Program{
		{Name: "a", Instr: 100, FlopsPerInstr: 0.5, Reuse: pp.ReuseLow},
		{Name: "b", Instr: 300, FlopsPerInstr: 1.0, Reuse: pp.ReuseLow, Declared: true, Repeat: 3},
		{Name: "c", Instr: 10, Reuse: pp.ReuseLow, Repeat: 1},
	}
	if got := prog.TotalInstr(); got != 1010 {
		t.Fatalf("TotalInstr = %v", got)
	}
	if got := prog.DeclaredCount(); got != 3 {
		t.Fatalf("DeclaredCount = %v", got)
	}
	// The cursor walks the listed-out program: a, b, b, b, c.
	var c Cursor
	var slots []int
	for {
		if c.Index != len(slots) {
			t.Fatalf("virtual index %d at step %d", c.Index, len(slots))
		}
		slots = append(slots, c.Slot)
		if !c.Next(prog) {
			break
		}
	}
	if got := fmt.Sprint(slots); got != "[0 1 1 1 2]" {
		t.Fatalf("cursor visited slots %s", got)
	}
}

func TestProgramValidate(t *testing.T) {
	if err := (Program{}).Validate(); err == nil {
		t.Fatal("empty program accepted")
	}
	bad := Program{validPhase(), {Name: "broken", Instr: -5}}
	err := bad.Validate()
	if err == nil {
		t.Fatal("bad program accepted")
	}
	if !strings.Contains(err.Error(), "phase 1") {
		t.Fatalf("error does not locate phase: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	s := Spec{Name: "p", Threads: 2, Program: Program{validPhase()}}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	s.Threads = 0
	if err := s.Validate(); err == nil {
		t.Fatal("zero-thread spec accepted")
	}
}

func TestWorkloadValidateAndTotals(t *testing.T) {
	w := Workload{
		Name: "mix",
		Procs: []Spec{
			{Name: "a", Threads: 2, Program: Program{validPhase()}},
			{Name: "b", Threads: 3, Program: Program{validPhase()}},
		},
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	if err := (Workload{Name: "empty"}).Validate(); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestReplicate(t *testing.T) {
	base := Spec{Name: "daxpy", Threads: 1, Program: Program{validPhase()}}
	specs := Replicate(base, 96)
	if len(specs) != 96 {
		t.Fatalf("replicated %d", len(specs))
	}
	if specs[0].Name != "daxpy-0" || specs[95].Name != "daxpy-95" {
		t.Fatalf("names: %q, %q", specs[0].Name, specs[95].Name)
	}
	// Copies must be independent.
	specs[0].Threads = 99
	if specs[1].Threads != 1 {
		t.Fatal("replicas share state")
	}
}

func TestDemandsMultiResource(t *testing.T) {
	ph := validPhase()
	ds := ph.AppendDemands(nil)
	if len(ds) != 1 || ds[0].Resource != pp.ResourceLLC {
		t.Fatalf("demands = %v, want single LLC demand", ds)
	}
	ph.BWDemand = 5e9
	ds = ph.AppendDemands(ds[:0])
	if len(ds) != 2 {
		t.Fatalf("demands = %v, want LLC + bandwidth", ds)
	}
	if ds[1].Resource != pp.ResourceMemBW || ds[1].WorkingSet != pp.Bytes(5e9) {
		t.Fatalf("bandwidth demand = %v", ds[1])
	}
	for _, d := range ds {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPhaseValidateExtensions(t *testing.T) {
	p := validPhase()
	p.CachePartition = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative partition accepted")
	}
	p = validPhase()
	p.BWDemand = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative bandwidth demand accepted")
	}
}

func TestOccupancyBytesCases(t *testing.T) {
	p := validPhase() // WSS = 1 MB
	if p.OccupancyBytes() != p.WSS {
		t.Fatal("unpartitioned occupancy != WSS")
	}
	p.CachePartition = pp.KB(256)
	if p.OccupancyBytes() != pp.KB(256) {
		t.Fatal("partition did not cap occupancy")
	}
	p.CachePartition = pp.MB(10)
	if p.OccupancyBytes() != p.WSS {
		t.Fatal("oversized partition did not fall back to WSS")
	}
}

func TestEffectiveWeight(t *testing.T) {
	s := Spec{Name: "w", Threads: 1, Program: Program{validPhase()}}
	if s.EffectiveWeight() != 1 {
		t.Fatalf("default weight = %v", s.EffectiveWeight())
	}
	s.Weight = 2.5
	if s.EffectiveWeight() != 2.5 {
		t.Fatalf("weight = %v", s.EffectiveWeight())
	}
	s.Weight = -1
	if err := s.Validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestScaleInstr(t *testing.T) {
	w := Workload{Name: "w", Procs: Replicate(Spec{Name: "p", Threads: 2, Program: Program{validPhase()}}, 3)}
	s := ScaleInstr(w, 0.5)
	if len(s.Procs) != 3 {
		t.Fatal("process count changed")
	}
	if s.Procs[0].Program[0].Instr != w.Procs[0].Program[0].Instr/2 {
		t.Fatal("instructions not halved")
	}
	// Original untouched (deep copy).
	if w.Procs[0].Program[0].Instr != 1e6 {
		t.Fatal("ScaleInstr mutated its input")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Spec{Name: "p", Threads: 1, Program: Program{validPhase()}}
	c := s.Clone()
	c.Program[0].Instr = 42
	if s.Program[0].Instr == 42 {
		t.Fatal("Clone shares program storage")
	}
}
