package sched

import (
	"slices"
	"testing"
	"testing/quick"
)

// all accepts every waiter, so WakeAll(all) empties a queue in FIFO
// order.
func all[T any](T) bool { return true }

func TestWaitQueueFIFO(t *testing.T) {
	var q WaitQueue[int]
	for i := 0; i < 5; i++ {
		q.Enqueue(i)
	}
	if q.Len() != 5 {
		t.Fatalf("len = %d", q.Len())
	}
	if got := q.WakeAll(all[int]); !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("woke %v, want [0 1 2 3 4]", got)
	}
	if got := q.WakeAll(all[int]); len(got) != 0 {
		t.Fatalf("empty queue woke %v", got)
	}
}

func TestWaitQueuePeek(t *testing.T) {
	var q WaitQueue[string]
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty succeeded")
	}
	q.Enqueue("a")
	q.Enqueue("b")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("peek = %v,%v", v, ok)
	}
	if q.Len() != 2 {
		t.Fatal("peek removed an item")
	}
}

func TestWaitQueueRemove(t *testing.T) {
	var q WaitQueue[int]
	t1 := q.Enqueue(1)
	t2 := q.Enqueue(2)
	t3 := q.Enqueue(3)
	if !q.Remove(t2) {
		t.Fatal("remove of live ticket failed")
	}
	if q.Remove(t2) {
		t.Fatal("double remove succeeded")
	}
	if got := q.WakeAll(all[int]); !slices.Equal(got, []int{1, 3}) {
		t.Fatalf("woke %v, want [1 3]", got)
	}
	_ = t1
	_ = t3
}

func TestWakeAllCapacityShrinks(t *testing.T) {
	var q WaitQueue[int]
	for _, v := range []int{4, 4, 4, 4} {
		q.Enqueue(v)
	}
	budget := 10
	woken := q.WakeAll(func(x int) bool {
		if x <= budget {
			budget -= x
			return true
		}
		return false
	})
	if len(woken) != 2 {
		t.Fatalf("woke %d, want 2 (budget 10, items of 4)", len(woken))
	}
	if q.Len() != 2 {
		t.Fatalf("left %d queued", q.Len())
	}
}

// Demand-aware aging: AgedFirst picks the highest-priority waiter at or
// above the threshold, ties broken by the oldest ticket.
func TestAgedFirstSelection(t *testing.T) {
	var q WaitQueue[int]
	prios := map[int]float64{1: 0.5, 2: 3.0, 3: 7.0, 4: 7.0}
	prio := func(v int) float64 { return prios[v] }
	t2 := q.Enqueue(1)
	_ = t2
	q.Enqueue(2)
	t3 := q.Enqueue(3)
	q.Enqueue(4)
	v, ticket, ok := q.AgedFirst(1.0, prio)
	if !ok || v != 3 || ticket != t3 {
		t.Fatalf("aged first = %d (ticket %d, ok %v), want 3 at the earlier of the tied tickets", v, ticket, ok)
	}
	// Nothing aged: threshold above every priority.
	if _, _, ok := q.AgedFirst(100, prio); ok {
		t.Fatal("aged waiter found above every priority")
	}
}

// Removing an aged waiter by its ticket behaves like any other removal:
// the next AgedFirst scan settles on the runner-up deterministically.
func TestAgedTicketRemove(t *testing.T) {
	var q WaitQueue[int]
	prio := func(v int) float64 { return float64(v) }
	q.Enqueue(1)
	t9 := q.Enqueue(9)
	t5 := q.Enqueue(5)
	if _, ticket, ok := q.AgedFirst(2, prio); !ok || ticket != t9 {
		t.Fatalf("aged first ticket = %d, want %d", ticket, t9)
	}
	if !q.Remove(t9) {
		t.Fatal("remove of aged ticket failed")
	}
	if v, ticket, ok := q.AgedFirst(2, prio); !ok || v != 5 || ticket != t5 {
		t.Fatalf("after removal aged first = %d (ticket %d), want 5", v, ticket)
	}
}

// Aging is stateless across empty→nonempty transitions: an empty queue
// reports no aged waiter, and a waiter enqueued afterwards ages purely
// from its own priority, with no residue from the drained generation.
func TestAgedAcrossEmptyTransition(t *testing.T) {
	var q WaitQueue[int]
	prio := func(v int) float64 { return float64(v) }
	if _, _, ok := q.AgedFirst(0, prio); ok {
		t.Fatal("aged waiter on an empty queue")
	}
	q.Enqueue(8)
	if v, _, ok := q.AgedFirst(2, prio); !ok || v != 8 {
		t.Fatalf("aged first = %v after refill", v)
	}
	q.WakeAll(all[int])
	if _, _, ok := q.AgedFirst(0, prio); ok {
		t.Fatal("aged waiter survived a drain")
	}
	q.Enqueue(3)
	if v, _, ok := q.AgedFirst(2, prio); !ok || v != 3 {
		t.Fatalf("aged first = %v after empty→nonempty transition", v)
	}
}

// At exactly equal priority the tie-break is the ticket (enqueue order),
// making repeated scans deterministic.
func TestAgedTieBreakDeterminism(t *testing.T) {
	var q WaitQueue[string]
	prio := func(string) float64 { return 4.0 }
	tA := q.Enqueue("a")
	q.Enqueue("b")
	q.Enqueue("c")
	for i := 0; i < 3; i++ {
		if v, ticket, ok := q.AgedFirst(4.0, prio); !ok || v != "a" || ticket != tA {
			t.Fatalf("scan %d: aged first = %q (ticket %d), want \"a\" every time", i, v, ticket)
		}
	}
}

// EnqueueAs restores a dequeued waiter to its original FIFO position.
func TestEnqueueAsRestoresPosition(t *testing.T) {
	var q WaitQueue[int]
	q.Enqueue(1)
	t2 := q.Enqueue(2)
	q.Enqueue(3)
	if !q.Remove(t2) {
		t.Fatal("remove failed")
	}
	q.EnqueueAs(2, t2)
	if got := q.WakeAll(all[int]); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("woke %v, want [1 2 3]", got)
	}
}

// EnqueueAs panics on tickets that were never issued or are still live.
func TestEnqueueAsPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	var q WaitQueue[int]
	live := q.Enqueue(1)
	expectPanic("unissued ticket", func() { q.EnqueueAs(9, live+7) })
	expectPanic("live ticket", func() { q.EnqueueAs(9, live) })
}

// Property: enqueue/dequeue preserves FIFO order for arbitrary sequences.
func TestWaitQueueFIFOProperty(t *testing.T) {
	f := func(vals []int) bool {
		var q WaitQueue[int]
		for _, v := range vals {
			q.Enqueue(v)
		}
		return slices.Equal(q.WakeAll(all[int]), vals) && q.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWaitQueueString(t *testing.T) {
	var q WaitQueue[int]
	q.Enqueue(1)
	if q.String() != "waitqueue(len=1)" {
		t.Fatalf("String = %q", q.String())
	}
}

func TestRunQueuePickMinVruntime(t *testing.T) {
	var q RunQueue[string]
	a := &Entity{Vruntime: 30, Weight: NiceZeroWeight}
	b := &Entity{Vruntime: 10, Weight: NiceZeroWeight}
	c := &Entity{Vruntime: 20, Weight: NiceZeroWeight}
	q.Enqueue("a", a)
	q.Enqueue("b", b)
	q.Enqueue("c", c)
	order := []string{}
	for {
		v, _, ok := q.PickNext()
		if !ok {
			break
		}
		order = append(order, v)
	}
	if order[0] != "b" || order[1] != "c" || order[2] != "a" {
		t.Fatalf("order = %v", order)
	}
}

func TestRunQueueFairnessOverTime(t *testing.T) {
	// Two equal-weight entities picked repeatedly for fixed slices end up
	// with equal total runtime (alternation).
	var q RunQueue[int]
	ents := []*Entity{{Weight: NiceZeroWeight}, {Weight: NiceZeroWeight}}
	total := [2]float64{}
	q.Enqueue(0, ents[0])
	q.Enqueue(1, ents[1])
	for i := 0; i < 100; i++ {
		v, e, ok := q.PickNext()
		if !ok {
			t.Fatal("queue empty")
		}
		q.Charge(e, 1000) // 1 µs slice
		total[v] += 1000
		q.Enqueue(v, e)
	}
	if total[0] != total[1] {
		t.Fatalf("unequal runtime: %v vs %v", total[0], total[1])
	}
}

func TestRunQueueWeightedShares(t *testing.T) {
	// Weight 2048 should receive ~2x the runtime of weight 1024.
	var q RunQueue[int]
	heavy := &Entity{Weight: 2 * NiceZeroWeight}
	light := &Entity{Weight: NiceZeroWeight}
	q.Enqueue(0, heavy)
	q.Enqueue(1, light)
	total := [2]float64{}
	for i := 0; i < 3000; i++ {
		v, e, _ := q.PickNext()
		q.Charge(e, 1000)
		total[v] += 1000
		q.Enqueue(v, e)
	}
	ratio := total[0] / total[1]
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("heavy/light runtime ratio = %v, want ~2", ratio)
	}
}

func TestRunQueueNewArrivalPlacement(t *testing.T) {
	var q RunQueue[int]
	old := &Entity{Weight: NiceZeroWeight}
	q.Enqueue(0, old)
	for i := 0; i < 10; i++ {
		_, e, _ := q.PickNext()
		q.Charge(e, 1e6)
		q.Enqueue(0, e)
	}
	// A new arrival with zero vruntime must not monopolize: its vruntime
	// is bumped to the queue minimum.
	fresh := &Entity{Weight: NiceZeroWeight}
	q.Enqueue(1, fresh)
	if fresh.Vruntime < q.MinVruntime() {
		t.Fatalf("fresh vruntime %v below queue min %v", fresh.Vruntime, q.MinVruntime())
	}
}

func TestRunQueueChargePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var q RunQueue[int]
	q.Charge(&Entity{Weight: 1024}, -1)
}

func TestRunQueueZeroWeightDefaults(t *testing.T) {
	var q RunQueue[int]
	e := &Entity{}
	q.Enqueue(0, e)
	if e.Weight != NiceZeroWeight {
		t.Fatalf("weight = %d, want default %d", e.Weight, NiceZeroWeight)
	}
	q.Charge(e, 1024)
	if e.Vruntime != 1024 {
		t.Fatalf("vruntime = %v", e.Vruntime)
	}
}

func TestRunQueueEmptyPick(t *testing.T) {
	var q RunQueue[int]
	if _, _, ok := q.PickNext(); ok {
		t.Fatal("pick from empty succeeded")
	}
}
