package workloads

import (
	"math"
	"strings"
	"testing"

	"rdasched/internal/pp"
	"rdasched/internal/proc"
)

func TestTable2Inventory(t *testing.T) {
	ws := Table2()
	if len(ws) != 8 {
		t.Fatalf("Table2 has %d workloads, want 8", len(ws))
	}
	wantNames := []string{"BLAS-1", "BLAS-2", "BLAS-3", "water_sp", "water_nsq", "ocean_cp", "raytrace", "volrend"}
	for i, w := range ws {
		if w.Name != wantNames[i] {
			t.Errorf("workload %d = %q, want %q", i, w.Name, wantNames[i])
		}
		if err := w.Validate(); err != nil {
			t.Errorf("workload %q invalid: %v", w.Name, err)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	// Process/thread counts straight from Table 2.
	shapes := map[string]struct{ procs, threads int }{
		"BLAS-1":    {96, 1},
		"BLAS-2":    {96, 1},
		"BLAS-3":    {96, 1},
		"water_sp":  {12, 2},
		"water_nsq": {12, 2},
		"ocean_cp":  {48, 2},
		"raytrace":  {48, 4},
		"volrend":   {48, 4},
	}
	for _, w := range Table2() {
		want := shapes[w.Name]
		if len(w.Procs) != want.procs {
			t.Errorf("%s: %d procs, want %d", w.Name, len(w.Procs), want.procs)
		}
		for _, s := range w.Procs {
			if s.Threads != want.threads {
				t.Errorf("%s: %d threads/proc, want %d", w.Name, s.Threads, want.threads)
			}
		}
	}
}

func TestBLASWorkingSetSizes(t *testing.T) {
	// Table 2: BLAS-3 working sets are 1.6, 2.4, 2.4, 3.2 MB; level 1/2
	// all 0.6 MB. Every declared phase's WSS must match and fit the LLC.
	llc := pp.Bytes(15360 * pp.KiB)
	checkWSS := func(w proc.Workload, wants []pp.Bytes) {
		seen := map[pp.Bytes]bool{}
		for _, s := range w.Procs {
			for _, ph := range s.Program {
				if !ph.Declared {
					continue
				}
				seen[ph.WSS] = true
				if ph.WSS > llc {
					t.Errorf("%s/%s working set %v exceeds LLC", w.Name, ph.Name, ph.WSS)
				}
			}
		}
		for _, want := range wants {
			if !seen[want] {
				t.Errorf("%s missing declared working set %v (saw %v)", w.Name, want, seen)
			}
		}
	}
	checkWSS(BLAS1(), []pp.Bytes{pp.MB(0.6)})
	checkWSS(BLAS2(), []pp.Bytes{pp.MB(0.6)})
	checkWSS(BLAS3(), []pp.Bytes{pp.MB(1.6), pp.MB(2.4), pp.MB(3.2)})
}

func TestBLASReuseLevels(t *testing.T) {
	reuseOf := func(w proc.Workload) pp.Reuse {
		for _, s := range w.Procs {
			for _, ph := range s.Program {
				if ph.Declared {
					return ph.Reuse
				}
			}
		}
		t.Fatalf("%s has no declared phase", w.Name)
		return 0
	}
	if reuseOf(BLAS1()) != pp.ReuseLow {
		t.Error("BLAS-1 reuse should be low")
	}
	if reuseOf(BLAS2()) != pp.ReuseMed {
		t.Error("BLAS-2 reuse should be med")
	}
	if reuseOf(BLAS3()) != pp.ReuseHigh {
		t.Error("BLAS-3 reuse should be high")
	}
}

func TestSplashPeriodCounts(t *testing.T) {
	counts := map[string]int{
		"water_sp": 4, "water_nsq": 3, "ocean_cp": 4, "raytrace": 2, "volrend": 2,
	}
	for _, w := range Table2()[3:] {
		want := counts[w.Name]
		got := w.Procs[0].Program.DeclaredCount()
		if got != want {
			t.Errorf("%s: %d declared periods, want %d (Table 2)", w.Name, got, want)
		}
	}
}

func TestSplashBarriersOutsidePeriods(t *testing.T) {
	// §3.4: no blocking synchronization inside progress periods — barriers
	// must only sit on undeclared phases.
	for _, w := range Table2()[3:] {
		for _, ph := range w.Procs[0].Program {
			if ph.Declared && ph.BarrierAfter {
				t.Errorf("%s/%s: barrier inside a declared period", w.Name, ph.Name)
			}
		}
	}
}

func TestTaskPoolFlags(t *testing.T) {
	for _, w := range Table2() {
		want := w.Name == "raytrace" || w.Name == "volrend"
		if got := w.Procs[0].TaskPool; got != want {
			t.Errorf("%s: TaskPool = %v, want %v", w.Name, got, want)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("water_nsq")
	if err != nil || w.Name != "water_nsq" {
		t.Fatalf("ByName: %v, %v", w.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	} else if !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if len(Names()) != 8 {
		t.Fatal("Names() wrong length")
	}
}

func TestDgemmGranularity(t *testing.T) {
	// 512*512 is Figure 11's innermost-loop count: one repeated phase.
	for _, n := range []int{0, 1, 512, 512 * 512} {
		w, err := DgemmGranularity(n)
		if err != nil {
			t.Fatalf("DgemmGranularity(%d): %v", n, err)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("granularity %d invalid: %v", n, err)
		}
		prog := w.Procs[0].Program
		declared := prog.DeclaredCount()
		wantDeclared := n
		if got := declared; got != wantDeclared {
			t.Fatalf("granularity %d: %d declared phases", n, got)
		}
		// Total kernel instructions constant across granularities.
		if n > 0 {
			w1, _ := DgemmGranularity(1)
			if math.Abs(prog.TotalInstr()-w1.Procs[0].Program.TotalInstr())/w1.Procs[0].Program.TotalInstr() > 1e-9 {
				t.Fatalf("granularity %d changed total work", n)
			}
		}
	}
	if _, err := DgemmGranularity(-1); err == nil {
		t.Fatal("negative granularity accepted")
	}
}

func TestWSSGrowthLogarithmic(t *testing.T) {
	// The WSS curves must be monotonically increasing but sublinear:
	// doubling the input must grow WSS by far less than 2x.
	for _, ppIdx := range []int{1, 2} {
		prev := pp.Bytes(0)
		for _, m := range WaterNsqInputs {
			w := WaterNsqPPWSS(ppIdx, m)
			if w <= prev {
				t.Fatalf("wnsq PP%d WSS not increasing at %d molecules", ppIdx, m)
			}
			prev = w
		}
		growth := float64(WaterNsqPPWSS(ppIdx, 64000)) / float64(WaterNsqPPWSS(ppIdx, 8000))
		if growth >= 4.5 {
			t.Fatalf("wnsq PP%d grows %vx over an 8x input — not sublinear", ppIdx, growth)
		}
		prev = 0
		for _, c := range OceanInputs {
			w := OceanPPWSS(ppIdx, c)
			if w <= prev {
				t.Fatalf("ocean PP%d WSS not increasing at %d cells", ppIdx, c)
			}
			prev = w
		}
	}
}

func TestWSSMatchesTable2Scale(t *testing.T) {
	// Ocean PP1 at the default 514-cell input should be near Table 2's
	// 2.1 MB entry.
	got := OceanPPWSS(1, 514).MiBf()
	if got < 1.8 || got > 2.6 {
		t.Fatalf("ocean PP1 at 1x = %.2f MB, want ~2.1", got)
	}
	got = OceanPPWSS(2, 514).MiBf()
	if got < 0.6 || got > 1.0 {
		t.Fatalf("ocean PP2 at 1x = %.2f MB, want ~0.76", got)
	}
}

func TestFig13Premise(t *testing.T) {
	// At 8000 molecules: 6 instances fit the 15 MB LLC, 12 do not.
	llc := pp.Bytes(15360 * pp.KiB)
	w := WaterNsqPPWSS(1, 8000)
	if 6*w > llc {
		t.Fatalf("6 × PP1(8000) = %v exceeds LLC — Figure 13 premise broken", 6*w)
	}
	if 12*w <= llc {
		t.Fatalf("12 × PP1(8000) = %v fits LLC — Figure 13 premise broken", 12*w)
	}
	// At 32768 molecules even 6 oversubscribe.
	w = WaterNsqPPWSS(1, 32768)
	if 6*w <= llc {
		t.Fatalf("6 × PP1(32768) = %v fits LLC — expected memory-bound regime", 6*w)
	}
}

func TestWaterNsqLargestPP(t *testing.T) {
	w, err := WaterNsqLargestPP(8000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.Procs) != 6 {
		t.Fatalf("instances = %d", len(w.Procs))
	}
	// Work scales quadratically with molecules.
	w2, _ := WaterNsqLargestPP(16000, 6)
	r := w2.Procs[0].Program.TotalInstr() / w.Procs[0].Program.TotalInstr()
	if math.Abs(r-4) > 1e-9 {
		t.Fatalf("instruction scaling = %v, want 4 (quadratic)", r)
	}
	if _, err := WaterNsqLargestPP(0, 1); err == nil {
		t.Fatal("zero molecules accepted")
	}
	if _, err := WaterNsqLargestPP(100, 0); err == nil {
		t.Fatal("zero instances accepted")
	}
}

func TestWSSPanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	WaterNsqPPWSS(3, 8000)
}

func TestBLASGroupKernelSplit(t *testing.T) {
	w := BLAS1()
	kinds := map[string]int{}
	for _, s := range w.Procs {
		// Names look like "daxpy-17".
		base := s.Name[:strings.LastIndex(s.Name, "-")]
		kinds[base]++
	}
	if len(kinds) != 4 {
		t.Fatalf("BLAS-1 has %d kernel kinds, want 4 (%v)", len(kinds), kinds)
	}
	for k, n := range kinds {
		if n != 24 {
			t.Fatalf("kernel %s has %d instances, want 24", k, n)
		}
	}
}

func TestStreamingMixShape(t *testing.T) {
	for _, partition := range []pp.Bytes{0, pp.MB(0.5)} {
		w := StreamingMix(partition)
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(w.Procs) != 22 {
			t.Fatalf("procs = %d, want 6 streamers + 16 dgemms", len(w.Procs))
		}
		streamers := 0
		for _, s := range w.Procs {
			ph := s.Program[0]
			if ph.WSS == pp.MB(24) {
				streamers++
				if ph.CachePartition != partition {
					t.Fatalf("streamer partition = %v, want %v", ph.CachePartition, partition)
				}
				if !ph.Declared {
					t.Fatal("streamer phase not declared")
				}
			}
		}
		if streamers != 6 {
			t.Fatalf("streamers = %d", streamers)
		}
	}
}

func TestUnmanagedMixShape(t *testing.T) {
	w := UnmanagedMix()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	hogs, managed := 0, 0
	for _, s := range w.Procs {
		if s.Program.DeclaredCount() == 0 {
			hogs++
		} else {
			managed++
		}
	}
	if hogs != 2 || managed != 24 {
		t.Fatalf("hogs=%d managed=%d, want 2/24", hogs, managed)
	}
}
