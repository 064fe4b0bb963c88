package profiler

import (
	"reflect"
	"runtime"
	"testing"

	"rdasched/internal/memtrace"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// oracleWindows is the original Windows: a map from entry to touch
// count, cleared at every window boundary and walked at every flush to
// count footprint and working-set entries. It is kept as the
// differential oracle for the flat touch table.
func oracleWindows(s memtrace.Stream, cfg Config) ([]WindowStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var out []WindowStats
	touches := make(map[uint64]uint32)
	jumps := make(map[int]uint64)
	var cur WindowStats
	cur.TopSite = -1
	windowEnd := cfg.WindowInstr

	flush := func(end uint64) {
		cur.EndInstr = end
		var fpEntries, wssEntries int
		var total uint64
		for _, n := range touches {
			fpEntries++
			total += uint64(n)
			if int(n) >= cfg.MinTouches {
				wssEntries++
			}
		}
		cur.Footprint = pp.Bytes(fpEntries) * cfg.EntryBytes
		cur.WSS = pp.Bytes(wssEntries) * cfg.EntryBytes
		if fpEntries > 0 {
			cur.ReuseRatio = float64(total) / float64(fpEntries)
		}
		top, topCount := -1, uint64(0)
		for site, n := range jumps {
			if n > topCount || (n == topCount && site < top) {
				top, topCount = site, n
			}
		}
		cur.TopSite = top
		out = append(out, cur)

		cur = WindowStats{Index: cur.Index + 1, StartInstr: end, TopSite: -1}
		clear(touches)
		clear(jumps)
	}

	var lastInstr uint64
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		lastInstr = r.Instr
		for r.Instr >= windowEnd {
			flush(windowEnd)
			windowEnd += cfg.WindowInstr
		}
		if r.IsJump {
			jumps[r.JumpSite]++
			continue
		}
		cur.Refs++
		touches[r.Addr/uint64(cfg.EntryBytes)]++
	}
	if cur.Refs > 0 || len(jumps) > 0 || len(touches) > 0 {
		flush(lastInstr + 1)
	}
	return out, nil
}

// randomProfile draws a phase list and a profiler configuration from
// rng: small windows, entry sizes from 1 B to 4 KiB, hot sets from
// nothing to 1 MiB and cold streams up to 64 MiB, so windows range from
// fully reused to fully streamed and the touch table grows, refills and
// sits half empty.
func randomProfile(rng *sim.RNG) ([]memtrace.PhaseSpec, Config) {
	phases := make([]memtrace.PhaseSpec, 1+rng.Intn(4))
	for i := range phases {
		phases[i] = memtrace.PhaseSpec{
			Instr:        uint64(1 + rng.Intn(40_000)),
			RefsPerInstr: rng.Float64(),
			HotBytes:     pp.Bytes(rng.Intn(1 << 20)),
			ColdBytes:    pp.Bytes(rng.Intn(64 << 20)),
			HotFrac:      rng.Float64(),
			Site:         rng.Intn(6) - 1,
			JumpEvery:    uint64(rng.Intn(3000)),
			ColdStride:   uint64(rng.Intn(1024)),
		}
	}
	window := uint64(1 + rng.Intn(10_000))
	cfg := Config{
		WindowInstr:    window,
		MinPeriodInstr: window * uint64(1+rng.Intn(4)),
		EntryBytes:     pp.Bytes(1 + rng.Intn(4096)),
		MinTouches:     1 + rng.Intn(8),
		SimilarityTol:  0.05 + 0.9*rng.Float64(),
		ReuseTolFactor: 1 + 4*rng.Float64(),
	}
	return phases, cfg
}

// nextOnly hides a stream's Read method, so Windows takes the stream
// through Next.
type nextOnly struct{ s memtrace.Stream }

func (n nextOnly) Next() (memtrace.Ref, bool) { return n.s.Next() }

// checkWindowsAgainstOracle runs the oracle and Windows, once reading
// batches and once through Next alone, over identical streams and fails
// unless the results are deeply equal.
func checkWindowsAgainstOracle(t *testing.T, seed uint64) {
	t.Helper()
	phases, cfg := randomProfile(sim.NewRNG(seed))
	want, err := oracleWindows(memtrace.NewPhasedStream(seed, phases...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name   string
		stream memtrace.Stream
	}{
		{"read", memtrace.NewPhasedStream(seed, phases...)},
		{"next", nextOnly{memtrace.NewPhasedStream(seed, phases...)}},
	} {
		got, err := Windows(s.stream, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if i < len(want) && got[i] != want[i] {
					t.Fatalf("%s seed %d %+v: window %d = %+v, oracle %+v", s.name, seed, cfg, i, got[i], want[i])
				}
			}
			t.Fatalf("%s seed %d %+v: %d windows, oracle %d", s.name, seed, cfg, len(got), len(want))
		}
	}
}

// FuzzWindowsMatchesOracle compares Windows with the original map-based
// implementation on random phase lists and configurations.
func FuzzWindowsMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkWindowsAgainstOracle(t, seed)
	})
}

// TestWindowsMatchesOracle sweeps fixed seeds through the same check as
// FuzzWindowsMatchesOracle, and the Fig 12-shaped windows of
// hotPhase at the default configuration.
func TestWindowsMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		checkWindowsAgainstOracle(t, seed)
	}
	cfg := DefaultConfig()
	cfg.WindowInstr, cfg.MinPeriodInstr = 100_000, 400_000
	phases := []memtrace.PhaseSpec{
		hotPhase("a", 300_000, 256*pp.KiB, 1),
		{Name: "stream", Instr: 300_000, RefsPerInstr: 0.5, ColdBytes: 64 * pp.MiB, Site: 2},
		hotPhase("b", 300_000, 16*pp.KiB, 3),
	}
	got, err := Windows(memtrace.NewPhasedStream(1, phases...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleWindows(memtrace.NewPhasedStream(1, phases...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windows differ from the oracle:\n got %+v\nwant %+v", got, want)
	}
}

// sparseStream returns n references to n distinct entries that share no
// 16-entry run, the worst case for the touch table's memory: every
// reference is a new, isolated entry.
func sparseStream(n uint64, entry pp.Bytes) memtrace.Stream {
	var i uint64
	return memtrace.NewFuncStream(func() (memtrace.Ref, bool) {
		if i == n {
			return memtrace.Ref{}, false
		}
		r := memtrace.Ref{Instr: i, Addr: i * 1000 * uint64(entry)}
		i++
		return r, true
	})
}

// TestSparseTableMemory bounds the touch table's allocation on a stream
// of isolated entries at twice what the oracle's map allocates for the
// same stream.
func TestSparseTableMemory(t *testing.T) {
	const n = 200_000
	cfg := DefaultConfig()
	cfg.WindowInstr, cfg.MinPeriodInstr = n, n
	allocated := func(windows func(memtrace.Stream, Config) ([]WindowStats, error)) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		wins, err := windows(sparseStream(n, cfg.EntryBytes), cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(wins) != 1 || wins[0].Footprint != n*cfg.EntryBytes {
			t.Fatalf("windows = %+v, want one window of %d entries", wins, n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	table, oracle := allocated(Windows), allocated(oracleWindows)
	t.Logf("%d isolated entries: table %.1f B/entry, map %.1f B/entry",
		n, float64(table)/n, float64(oracle)/n)
	if table > 2*oracle {
		t.Fatalf("touch table allocated %d B, more than twice the map's %d B", table, oracle)
	}
}
