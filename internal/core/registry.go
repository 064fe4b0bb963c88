package core

import "sort"

// The period registry: every open progress period, the period each
// thread is executing in, and the parked task pools. Every begin and
// end goes through it, so it is indexed by the machine's dense process
// and thread IDs instead of being keyed in maps:
//
//   - per process, a chain of its open periods (linked through
//     period.next — a process rarely has more than a few open at once,
//     even across thousands of repeated phases) and its parked flag;
//   - per thread, the (process, phase) of the period it is inside.
//
// A period closed by its last pp_end is recycled through a free list,
// keeping its demands and waiters arrays, so a steady stream of begins
// and ends allocates nothing. Slot tables grow geometrically from a floor: the
// E-series builds many short-lived shard schedulers, and growing one
// slot at a time would cost them more than the maps it replaces.
//
// The original maps survive as the differential oracle in
// oracle_test.go (FuzzRegistryMatchesOracle).
type registry struct {
	procs   []procSlot
	threads []threadSlot
	free    *period // recycled periods, linked through next
	n       int     // open periods
}

// procSlot is one process's share of the registry.
type procSlot struct {
	open   *period // open periods, linked through next
	parked bool    // task pool disabled until resources free up (§3.4)
}

// threadSlot is the period a thread is executing in. phase holds the
// phase index plus one, so the zero slot means "inside no period".
type threadSlot struct {
	proc, phase int
}

// slotFloor is the smallest slot table the registry allocates.
const slotFloor = 8

// growSlots returns s extended to hold index i: doubled, or to i+1 when
// that is larger, and never below slotFloor.
func growSlots[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	n := max(2*len(s), i+1, slotFloor)
	out := make([]T, n)
	copy(out, s)
	return out
}

// get returns the open period registered under key, or nil.
func (r *registry) get(key periodKey) *period {
	if uint(key.procID) >= uint(len(r.procs)) {
		return nil
	}
	for per := r.procs[key.procID].open; per != nil; per = per.next {
		if per.key.phaseIdx == key.phaseIdx {
			return per
		}
	}
	return nil
}

// open registers a fresh period under key — a recycled one when the
// free list has one — and returns it. Every field but key is zero; the
// demands and waiters slices are empty but keep a recycled period's
// arrays.
func (r *registry) open(key periodKey) *period {
	per := r.free
	if per != nil {
		r.free = per.next
		per.next = nil
	} else {
		per = &period{}
	}
	per.key = key
	r.add(per)
	return per
}

// add registers per: a period just opened, or one migrating in.
func (r *registry) add(per *period) {
	r.procs = growSlots(r.procs, per.key.procID)
	ps := &r.procs[per.key.procID]
	per.next = ps.open
	ps.open = per
	r.n++
}

// remove unregisters per, which must be registered.
func (r *registry) remove(per *period) {
	link := &r.procs[per.key.procID].open
	for *link != per {
		link = &(*link).next
	}
	*link = per.next
	per.next = nil
	r.n--
}

// recycle puts a removed period on the free list. The caller guarantees
// nothing refers to it any more: no armed timer, no waitlist entry.
// Timer callbacks compare the admission ID they captured, which a
// recycled period no longer carries, so a stray one stays harmless.
func (r *registry) recycle(per *period) {
	ds, ws := per.demands[:0], per.waiters[:0]
	*per = period{} // zeroed in place: a composite literal would be built and copied
	per.demands, per.waiters, per.next = ds, ws, r.free
	r.free = per
}

// len returns the number of open periods.
func (r *registry) len() int { return r.n }

// each calls fn for every open period, in no particular order.
func (r *registry) each(fn func(*period)) {
	for i := range r.procs {
		for per := r.procs[i].open; per != nil; per = per.next {
			fn(per)
		}
	}
}

// inside returns the period thread tid is executing in.
func (r *registry) inside(tid int) (periodKey, bool) {
	if uint(tid) >= uint(len(r.threads)) || r.threads[tid].phase == 0 {
		return periodKey{}, false
	}
	sl := r.threads[tid]
	return periodKey{procID: sl.proc, phaseIdx: sl.phase - 1}, true
}

// enter records thread tid as executing in key's period.
func (r *registry) enter(tid int, key periodKey) {
	r.threads = growSlots(r.threads, tid)
	r.threads[tid] = threadSlot{proc: key.procID, phase: key.phaseIdx + 1}
}

// leave clears thread tid's residency if it is in key's period and
// reports whether it was.
func (r *registry) leave(tid int, key periodKey) bool {
	if in, ok := r.inside(tid); !ok || in != key {
		return false
	}
	r.threads[tid] = threadSlot{}
	return true
}

// handOver moves every thread executing in key's period to dst.
func (r *registry) handOver(dst *registry, key periodKey) {
	for tid := range r.threads {
		if r.leave(tid, key) {
			dst.enter(tid, key)
		}
	}
}

// parked reports whether process proc's task pool is disabled.
func (r *registry) parked(proc int) bool {
	return uint(proc) < uint(len(r.procs)) && r.procs[proc].parked
}

// park disables process proc's task pool.
func (r *registry) park(proc int) {
	r.procs = growSlots(r.procs, proc)
	r.procs[proc].parked = true
}

// unpark re-enables process proc's task pool.
func (r *registry) unpark(proc int) {
	if uint(proc) < uint(len(r.procs)) {
		r.procs[proc].parked = false
	}
}

// export writes the registry into d in canonical order: periods by
// admission ID, parked processes and thread residencies by ID.
func (r *registry) export(d *DomainState) {
	r.each(func(per *period) { d.Periods = append(d.Periods, exportPeriod(per)) })
	sort.Slice(d.Periods, func(i, j int) bool { return d.Periods[i].ID < d.Periods[j].ID })
	for p := range r.procs {
		if r.procs[p].parked {
			d.Parked = append(d.Parked, p)
		}
	}
	for tid := range r.threads {
		if k, ok := r.inside(tid); ok {
			d.Inside = append(d.Inside, InsideEntry{Thread: tid, Proc: k.procID, Phase: k.phaseIdx})
		}
	}
}
