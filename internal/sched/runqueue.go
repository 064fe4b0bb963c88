package sched

import (
	"container/heap"
	"fmt"
)

// Entity is a schedulable entity in the fair run queue.
type Entity struct {
	// Vruntime is the entity's virtual runtime in nanoseconds.
	Vruntime float64
	index    int
	seq      uint64
}

// RunQueue is a CFS-style fair run queue: entities are picked in order of
// minimum vruntime and charged the runtime they execute. It is the
// discrete counterpart of the fluid model in internal/machine, where
// every ready thread gets the same core share, and drives the quantized
// validation scheduler.
type RunQueue[T any] struct {
	heap    rqHeap[T]
	seq     uint64
	minVrun float64
}

type rqItem[T any] struct {
	val T
	ent *Entity
}

type rqHeap[T any] []rqItem[T]

func (h rqHeap[T]) Len() int { return len(h) }
func (h rqHeap[T]) Less(i, j int) bool {
	if h[i].ent.Vruntime != h[j].ent.Vruntime {
		return h[i].ent.Vruntime < h[j].ent.Vruntime
	}
	return h[i].ent.seq < h[j].ent.seq
}
func (h rqHeap[T]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].ent.index = i
	h[j].ent.index = j
}
func (h *rqHeap[T]) Push(x any) {
	it := x.(rqItem[T])
	it.ent.index = len(*h)
	*h = append(*h, it)
}
func (h *rqHeap[T]) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	it.ent.index = -1
	var zero rqItem[T]
	old[n-1] = zero
	*h = old[:n-1]
	return it
}

// Len returns the number of queued entities.
func (q *RunQueue[T]) Len() int { return q.heap.Len() }

// Enqueue inserts v with the given entity. New arrivals (zero vruntime)
// are placed at the queue's current minimum so they neither starve the
// queue nor get an unbounded head start — CFS's min_vruntime placement.
func (q *RunQueue[T]) Enqueue(v T, ent *Entity) {
	if ent.Vruntime < q.minVrun {
		ent.Vruntime = q.minVrun
	}
	q.seq++
	ent.seq = q.seq
	heap.Push(&q.heap, rqItem[T]{val: v, ent: ent})
}

// PickNext removes and returns the entity with minimum vruntime.
func (q *RunQueue[T]) PickNext() (T, *Entity, bool) {
	var zero T
	if q.heap.Len() == 0 {
		return zero, nil, false
	}
	it := heap.Pop(&q.heap).(rqItem[T])
	q.minVrun = it.ent.Vruntime
	return it.val, it.ent, true
}

// Charge adds ran nanoseconds of runtime to ent (called after the entity
// ran; re-enqueue it to keep it runnable).
func (q *RunQueue[T]) Charge(ent *Entity, ranNanos float64) {
	if ranNanos < 0 {
		panic(fmt.Sprintf("sched: negative runtime charge %v", ranNanos))
	}
	ent.Vruntime += ranNanos
}

// MinVruntime returns the queue's monotonically advancing minimum
// vruntime reference.
func (q *RunQueue[T]) MinVruntime() float64 { return q.minVrun }
