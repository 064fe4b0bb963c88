package core

import (
	"reflect"
	"sort"
	"testing"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// mapRegistry is the period registry as the scheduler kept it before
// registry.go: open periods keyed by (process, phase), thread residency
// keyed by thread ID and parked task pools keyed by process ID, each in
// its own map. It is the differential oracle for registry.
type mapRegistry struct {
	active map[periodKey]*period
	inside map[int]periodKey
	parked map[int]bool
}

func newMapRegistry() *mapRegistry {
	return &mapRegistry{
		active: make(map[periodKey]*period),
		inside: make(map[int]periodKey),
		parked: make(map[int]bool),
	}
}

func (m *mapRegistry) get(key periodKey) *period { return m.active[key] }

func (m *mapRegistry) open(key periodKey) *period {
	per := &period{key: key}
	m.active[key] = per
	return per
}

func (m *mapRegistry) add(per *period)    { m.active[per.key] = per }
func (m *mapRegistry) remove(per *period) { delete(m.active, per.key) }

func (m *mapRegistry) insideOf(tid int) (periodKey, bool) {
	k, ok := m.inside[tid]
	return k, ok
}

func (m *mapRegistry) enter(tid int, key periodKey) { m.inside[tid] = key }

func (m *mapRegistry) leave(tid int, key periodKey) bool {
	if in, ok := m.inside[tid]; ok && in == key {
		delete(m.inside, tid)
		return true
	}
	return false
}

func (m *mapRegistry) handOver(dst *mapRegistry, key periodKey) {
	var tids []int
	for tid, k := range m.inside {
		if k == key {
			tids = append(tids, tid)
		}
	}
	for _, tid := range tids {
		delete(m.inside, tid)
		dst.inside[tid] = key
	}
}

func (m *mapRegistry) park(proc int)   { m.parked[proc] = true }
func (m *mapRegistry) unpark(proc int) { delete(m.parked, proc) }

// export is exportDomain's registry half as it read the maps.
func (m *mapRegistry) export(d *DomainState) {
	for _, per := range m.active {
		d.Periods = append(d.Periods, exportPeriod(per))
	}
	sort.Slice(d.Periods, func(i, j int) bool { return d.Periods[i].ID < d.Periods[j].ID })
	for p := range m.parked {
		d.Parked = append(d.Parked, p)
	}
	sort.Ints(d.Parked)
	for tid, k := range m.inside {
		d.Inside = append(d.Inside, InsideEntry{Thread: tid, Proc: k.procID, Phase: k.phaseIdx})
	}
	sort.Slice(d.Inside, func(i, j int) bool { return d.Inside[i].Thread < d.Inside[j].Thread })
}

// The ID ranges the differential check draws from: past slotFloor, so
// the slot tables grow mid-run, and now and then up to oracleFar times
// further, past every slot allocated so far.
const (
	oracleProcs   = 12
	oraclePhases  = 4
	oracleThreads = 20
	oracleFar     = 4
)

// randomPeriodFields returns a setter that gives a just-opened period a
// random subset of fields, the same on either registry. Fields it skips
// must read zero, which catches a recycled period carrying state over.
func randomPeriodFields(rng *sim.RNG, id pp.ID) func(*period) {
	var ds []pp.Demand
	for n := 1 + rng.Intn(2); n > 0; n-- {
		ds = append(ds, pp.Demand{Resource: pp.Resource(rng.Intn(pp.NumResources)),
			WorkingSet: pp.Bytes(1 + rng.Intn(1<<20)), Reuse: pp.Reuse(rng.Intn(3))})
	}
	bits := rng.Uint64()
	bit := func(i uint) bool { return bits>>i&1 == 1 }
	refs, ticket := rng.Intn(4), uint64(1+rng.Intn(100))
	at := sim.Time(1 + rng.Intn(1e6))
	return func(per *period) {
		per.id = id
		per.demands = append(per.demands, ds...)
		per.taskPool = bit(0)
		per.admitted = bit(1)
		per.untracked = bit(2)
		per.evacuated = bit(3)
		if bit(4) {
			per.refs = refs
		}
		if bit(5) {
			per.ticket = ticket
			per.enqueuedAt = at
		}
		if bit(6) {
			per.admittedAt = at
		}
	}
}

// checkRegistryAgainstOracle drives two registries (two shards) and two
// oracles through the same random operations and compares every lookup
// and the canonical export after each step.
func checkRegistryAgainstOracle(t *testing.T, seed uint64, steps int) {
	t.Helper()
	rng := sim.NewRNG(seed)
	var got [2]registry
	want := [2]*mapRegistry{newMapRegistry(), newMapRegistry()}
	var nextID pp.ID
	tid := func() int {
		if rng.Intn(8) == 0 {
			return rng.Intn(oracleFar * oracleThreads)
		}
		return rng.Intn(oracleThreads)
	}
	for step := 0; step < steps; step++ {
		sh := rng.Intn(2)
		g, w := &got[sh], want[sh]
		key := periodKey{procID: rng.Intn(oracleProcs), phaseIdx: rng.Intn(oraclePhases)}
		op := rng.Intn(9)
		switch op {
		case 0, 1: // open, as a first pp_begin does
			if w.get(key) != nil {
				break
			}
			nextID++
			fill := randomPeriodFields(rng, nextID)
			fill(g.open(key))
			fill(w.open(key))
		case 2: // close: ExitPhase recycles, a reclaim only unregisters
			gp, wp := g.get(key), w.get(key)
			if wp == nil {
				break
			}
			g.remove(gp)
			w.remove(wp)
			if rng.Intn(4) != 0 {
				g.recycle(gp)
			}
		case 3: // recycle, then reopen the same key
			gp, wp := g.get(key), w.get(key)
			if wp == nil {
				break
			}
			g.remove(gp)
			g.recycle(gp)
			w.remove(wp)
			nextID++
			fill := randomPeriodFields(rng, nextID)
			fill(g.open(key))
			fill(w.open(key))
		case 4: // thread enter, including double-enter and far IDs
			id := tid()
			g.enter(id, key)
			w.enter(id, key)
			if rng.Intn(4) == 0 {
				g.enter(id, key)
				w.enter(id, key)
			}
		case 5: // thread leave, usually from the period it is in
			id := tid()
			if k, ok := w.insideOf(id); ok && rng.Intn(4) != 0 {
				key = k
			}
			if gl, wl := g.leave(id, key), w.leave(id, key); gl != wl {
				t.Fatalf("seed %d step %d: leave(%d, %+v) = %v, oracle %v", seed, step, id, key, gl, wl)
			}
		case 6: // park and unpark, past the slot tables too
			p := key.procID
			if rng.Intn(6) == 0 {
				p = rng.Intn(oracleFar * oracleProcs)
			}
			if rng.Intn(2) == 0 {
				g.park(p)
				w.park(p)
			} else {
				g.unpark(p)
				w.unpark(p)
			}
		case 7, 8: // shard move, as migrate and moveActive do it
			gp, wp := g.get(key), w.get(key)
			gd, wd := &got[1-sh], want[1-sh]
			if wp == nil || wd.get(key) != nil {
				break
			}
			park := rng.Intn(2) == 0
			g.remove(gp)
			g.unpark(key.procID)
			g.handOver(gd, key)
			gd.add(gp)
			w.remove(wp)
			w.unpark(key.procID)
			w.handOver(wd, key)
			wd.add(wp)
			if park {
				gd.park(key.procID)
				wd.park(key.procID)
			}
		}
		for i := range got {
			compareRegistries(t, seed, step, op, &got[i], want[i])
		}
	}
}

func compareRegistries(t *testing.T, seed uint64, step, op int, g *registry, w *mapRegistry) {
	t.Helper()
	var gd, wd DomainState
	g.export(&gd)
	w.export(&wd)
	if !reflect.DeepEqual(gd, wd) || g.len() != len(w.active) {
		t.Fatalf("seed %d step %d op %d: export (%d open)\n%+v\noracle (%d open)\n%+v",
			seed, step, op, g.len(), gd, len(w.active), wd)
	}
	for p := -1; p <= oracleFar*oracleProcs; p++ {
		if g.parked(p) != w.parked[p] {
			t.Fatalf("seed %d step %d op %d: parked(%d) = %v, oracle %v", seed, step, op, p, g.parked(p), w.parked[p])
		}
		for ph := 0; ph < oraclePhases && p <= oracleProcs; ph++ {
			key := periodKey{procID: p, phaseIdx: ph}
			gp, wp := g.get(key), w.get(key)
			if (gp == nil) != (wp == nil) ||
				gp != nil && !reflect.DeepEqual(exportPeriod(gp), exportPeriod(wp)) {
				t.Fatalf("seed %d step %d op %d: get(%+v) = %+v, oracle %+v", seed, step, op, key, gp, wp)
			}
		}
	}
	for id := -1; id <= oracleFar*oracleThreads; id++ {
		gk, gok := g.inside(id)
		wk, wok := w.insideOf(id)
		if gk != wk || gok != wok {
			t.Fatalf("seed %d step %d op %d: inside(%d) = %+v %v, oracle %+v %v", seed, step, op, id, gk, gok, wk, wok)
		}
	}
}

// FuzzRegistryMatchesOracle compares the slot registry with the map
// registry it replaced over random open/close/recycle, thread
// residency, parking and shard-move sequences.
func FuzzRegistryMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8) {
		checkRegistryAgainstOracle(t, seed, 50+4*int(steps))
	})
}

// TestRegistryMatchesOracle sweeps fixed seeds through the same check as
// FuzzRegistryMatchesOracle.
func TestRegistryMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		checkRegistryAgainstOracle(t, seed, 250)
	}
}
