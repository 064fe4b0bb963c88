package sim

// Event is a callback scheduled to fire at a virtual time. Events with the
// same time fire in the order they were scheduled (FIFO tie-break), which
// keeps runs deterministic regardless of heap internals.
type Event struct {
	at     Time
	seq    uint64
	index  int // heap index; -1 once removed
	fire   func()
	cancel bool
}

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.cancel }

// When returns the virtual time the event is scheduled for.
func (e *Event) When() Time { return e.at }

// eventQueue is a binary min-heap of pending events on (at, seq). The
// order is total, because seq is unique, so events pop in the same order
// whatever the heap's layout.
type eventQueue []*Event

func (q eventQueue) less(i, j int) bool {
	a, b := q[i], q[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q eventQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

// down sifts the element at i0 down within q[:n] and reports whether it
// moved.
func (q eventQueue) down(i0, n int) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

func (q *eventQueue) push(ev *Event) {
	ev.index = len(*q)
	*q = append(*q, ev)
	q.up(ev.index)
}

// remove takes the event at index i out of the queue.
func (q *eventQueue) remove(i int) *Event {
	h := *q
	n := len(h) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	ev := h[n]
	h[n] = nil
	ev.index = -1
	*q = h[:n]
	return ev
}

// fix restores the heap order after the event at index i changed key.
func (q eventQueue) fix(i int) {
	if !q.down(i, len(q)) {
		q.up(i)
	}
}

// Engine is a discrete-event simulation driver: a clock plus a pending
// event queue. It is not safe for concurrent use; a simulation run is a
// single logical thread of control (determinism by construction).
type Engine struct {
	now    Time
	queue  eventQueue
	seq    uint64
	fired  uint64
	halted bool
	hook   func(Time)
}

// NewEngine returns an engine at time zero. The engine draws no random
// numbers, so seed has no effect; it remains only because perfbench
// still passes one.
func NewEngine(seed uint64) *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events fired so far (useful in tests and as
// a progress/runaway indicator).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute time t. Scheduling in the past (or at
// the present) fires at the current time, never rewinds the clock.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	ev := &Event{at: t, seq: e.seq, fire: fn}
	e.seq++
	e.queue.push(ev)
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// NewTimer returns an event that fires fn but is not scheduled yet; Rearm
// schedules it. A caller that re-arms one callback over and over (the
// machine's next-completion event) reuses a single Event this way
// instead of allocating one per After.
func (e *Engine) NewTimer(fn func()) *Event {
	return &Event{fire: fn, index: -1}
}

// Rearm schedules ev, an event from NewTimer, to fire d after the current
// time, moving it if it is still pending. It takes the next sequence
// number exactly as After does, so the firing order is the one Cancel
// followed by After would give.
func (e *Engine) Rearm(ev *Event, d Duration) {
	if d < 0 {
		d = 0
	}
	ev.at, ev.seq, ev.cancel = e.now.Add(d), e.seq, false
	e.seq++
	if ev.index >= 0 {
		e.queue.fix(ev.index)
		return
	}
	e.queue.push(ev)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancel || ev.index < 0 {
		if ev != nil {
			ev.cancel = true
		}
		return
	}
	ev.cancel = true
	e.queue.remove(ev.index)
}

// SetStepHook installs fn, invoked after every fired event with the
// engine's current time (nil clears it). The hook is the bridge between
// the virtual clock and the wall clock: the live introspection layer
// uses it to pace event firing against real time, publish state
// snapshots, and request a halt from outside the simulation goroutine.
// The hook must not schedule, cancel, or fire events (Halt is the one
// sanctioned mutation); everything it observes is read-only.
func (e *Engine) SetStepHook(fn func(Time)) { e.hook = fn }

// Step fires the next pending event, advancing the clock to its time.
// It returns false when the queue is empty or the engine has been halted.
func (e *Engine) Step() bool {
	if e.halted || len(e.queue) == 0 {
		return false
	}
	ev := e.queue.remove(0)
	e.now = ev.at
	e.fired++
	ev.fire()
	if e.hook != nil {
		e.hook(e.now)
	}
	return true
}

// Run fires events until the queue drains or Halt is called. It returns
// the final virtual time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// Halt stops Run after the current event returns.
func (e *Engine) Halt() { e.halted = true }

// Resume clears a Halt so Run/Step can continue draining the queue. The
// clock and pending events are untouched: a halted engine that is resumed
// behaves exactly as if Halt had never been called, which is what the
// crash-restart machinery relies on when it resumes a revived run past
// its kill.
func (e *Engine) Resume() { e.halted = false }

// Halted reports whether Halt has been called.
func (e *Engine) Halted() bool { return e.halted }
