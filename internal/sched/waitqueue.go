// Package sched provides the operating-system scheduling primitives the
// demand-aware extension builds on, mirroring the pieces of the Linux
// 4.6.0 scheduler the paper's prototype used: a wait queue with wake
// events (the mechanism its extension uses to pause and resume threads at
// progress-period boundaries) and a CFS-style fair run queue (the
// "underlying default scheduler" admitted threads are handed back to;
// internal/machine approximates it in the fluid limit, and the run queue
// here backs the discrete validation mode and unit tests).
package sched

import "fmt"

// WaitQueue is a FIFO wait queue with wake events, generic over the
// waiter handle type. It is deliberately minimal: the paper's extension
// needs exactly enqueue (pause), wake-in-order-whatever-fits (resume),
// and removal on exit.
type WaitQueue[T any] struct {
	items []waiter[T]
	seq   uint64
}

type waiter[T any] struct {
	v   T
	seq uint64
}

// Len returns the number of waiting entries.
func (q *WaitQueue[T]) Len() int { return len(q.items) }

// Enqueue appends v and returns a ticket usable with Remove.
func (q *WaitQueue[T]) Enqueue(v T) uint64 {
	q.seq++
	q.items = append(q.items, waiter[T]{v: v, seq: q.seq})
	return q.seq
}

// Seq returns the highest ticket issued so far. Together with EnqueueAs
// it lets a checkpoint capture the queue exactly: persist Seq plus each
// waiter's ticket, then rebuild with Reset(seq) + EnqueueAs per waiter.
func (q *WaitQueue[T]) Seq() uint64 { return q.seq }

// Reset clears the queue and restores the ticket counter to seq, which
// must be at least the current counter value of a fresh queue (i.e. any
// value; on a used queue it must not rewind below tickets still enqueued
// — Reset empties the queue first, so that cannot arise). It exists for
// the restore path: set the persisted counter, then re-insert waiters
// under their original tickets with EnqueueAs.
func (q *WaitQueue[T]) Reset(seq uint64) {
	q.items = q.items[:0]
	q.seq = seq
}

// Peek returns the oldest waiter without removing it.
func (q *WaitQueue[T]) Peek() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	return q.items[0].v, true
}

// EnqueueAs re-inserts v under a previously issued ticket, restoring its
// original FIFO position: entries stay ordered by ticket, so a waiter
// that was dequeued for an admission probe and re-denied returns exactly
// where it was — its age (and any aging priority derived from the
// ticket's enqueue time) is preserved instead of reset. It panics on a
// ticket that was never issued or is still enqueued, both of which
// indicate a caller bug.
func (q *WaitQueue[T]) EnqueueAs(v T, ticket uint64) {
	if ticket == 0 || ticket > q.seq {
		panic(fmt.Sprintf("sched: EnqueueAs with unissued ticket %d (last issued %d)", ticket, q.seq))
	}
	i := 0
	for i < len(q.items) && q.items[i].seq < ticket {
		i++
	}
	if i < len(q.items) && q.items[i].seq == ticket {
		panic(fmt.Sprintf("sched: EnqueueAs with ticket %d still enqueued", ticket))
	}
	q.items = append(q.items, waiter[T]{})
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = waiter[T]{v: v, seq: ticket}
}

// AgedFirst returns (without removing) the waiter whose aging priority is
// highest among those at or above threshold, with ties broken by lowest
// ticket (oldest first) so the scan order is deterministic at equal
// priority. prio is evaluated exactly once per waiter per call; it is the
// caller's demand-aware aging function (typically wait-time × demand
// weight against the current virtual clock). ok=false means no waiter has
// aged yet — including on an empty queue, so aging needs no state across
// empty→nonempty transitions: priority derives entirely from each
// waiter's own enqueue bookkeeping.
func (q *WaitQueue[T]) AgedFirst(threshold float64, prio func(T) float64) (v T, ticket uint64, ok bool) {
	best := -1
	var bestPrio float64
	for i := range q.items {
		p := prio(q.items[i].v)
		if p < threshold {
			continue
		}
		// Strictly greater wins; at equal priority the earlier entry
		// (lower seq, and we scan in seq order) is kept.
		if best == -1 || p > bestPrio {
			best = i
			bestPrio = p
		}
	}
	if best == -1 {
		var zero T
		return zero, 0, false
	}
	return q.items[best].v, q.items[best].seq, true
}

// Each calls fn for every waiter in FIFO (ticket) order without
// modifying the queue. fn must not mutate the queue; callers that need
// to remove entries collect tickets first and Remove afterwards. This
// is the read side the cross-domain steal scan uses to enumerate aged
// waiters across several queues.
func (q *WaitQueue[T]) Each(fn func(v T, ticket uint64)) {
	for i := range q.items {
		fn(q.items[i].v, q.items[i].seq)
	}
}

// Remove deletes the entry with the given ticket; it reports whether the
// ticket was found (false means it already woke or was removed).
func (q *WaitQueue[T]) Remove(ticket uint64) bool {
	for i := range q.items {
		if q.items[i].seq == ticket {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

// WakeAll dequeues every waiter accepted by fits, in FIFO order,
// re-evaluating fits after each wake (capacity shrinks as waiters are
// admitted). It returns the woken values.
func (q *WaitQueue[T]) WakeAll(fits func(T) bool) []T {
	var woken []T
	i := 0
	for i < len(q.items) {
		if fits(q.items[i].v) {
			woken = append(woken, q.items[i].v)
			q.items = append(q.items[:i], q.items[i+1:]...)
		} else {
			i++
		}
	}
	return woken
}

func (q *WaitQueue[T]) String() string {
	return fmt.Sprintf("waitqueue(len=%d)", len(q.items))
}
