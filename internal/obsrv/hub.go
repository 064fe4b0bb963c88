package obsrv

import (
	"sync"
	"sync/atomic"

	"rdasched/internal/core"
)

// Hub is the non-blocking fan-out between the scheduler's synchronous
// decision stream and any number of live subscribers (the /events SSE
// handler). It implements core.EventSink: Record is called on the
// simulation goroutine for every decision and must never block — a
// stalled HTTP client must not be able to stall the virtual clock. Each
// subscriber therefore owns a bounded ring (a buffered channel); when a
// ring is full the event is dropped for that subscriber and counted
// hub-wide, never queued against the engine.
type Hub struct {
	mu       sync.Mutex
	subs     map[*Subscription]struct{}
	recorded atomic.Uint64
	dropped  atomic.Uint64
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[*Subscription]struct{})}
}

// Subscription is one subscriber's bounded event ring.
type Subscription struct {
	hub  *Hub
	ch   chan core.Event
	once sync.Once
}

// Record implements core.EventSink: deliver e to every subscriber ring
// that has room, count a drop for every one that does not. Never blocks.
func (h *Hub) Record(e core.Event) {
	h.recorded.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		select {
		case sub.ch <- e:
		default:
			h.dropped.Add(1)
		}
	}
}

// Subscribe registers a new subscriber with a ring of the given
// capacity (minimum 1). The caller must Close the subscription when
// done; an abandoned subscription fills up and drops, it never leaks
// engine progress.
func (h *Hub) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscription{hub: h, ch: make(chan core.Event, buffer)}
	h.mu.Lock()
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	return sub
}

// Events returns the subscription's delivery channel. It is never
// closed — consumers multiplex it with their own cancellation signal.
func (s *Subscription) Events() <-chan core.Event { return s.ch }

// Close unregisters the subscription. Idempotent.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.hub.mu.Lock()
		delete(s.hub.subs, s)
		s.hub.mu.Unlock()
	})
}

// Recorded returns how many events the hub has seen.
func (h *Hub) Recorded() uint64 { return h.recorded.Load() }

// Dropped returns how many subscriber deliveries were dropped because a
// ring was full (one event dropped by two subscribers counts twice).
func (h *Hub) Dropped() uint64 { return h.dropped.Load() }

// Subscribers returns the current subscriber count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}
