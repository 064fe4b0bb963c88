package obsrv

import (
	"testing"
	"time"

	"rdasched/internal/core"
	"rdasched/internal/sim"
)

func ev(i int) core.Event {
	return core.Event{At: sim.Time(i), Kind: core.EventAdmit, Proc: i}
}

// TestHubDeliversToSubscriber: events published after Subscribe arrive
// in order on the subscription channel.
func TestHubDeliversToSubscriber(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(8)
	defer sub.Close()
	for i := 0; i < 5; i++ {
		h.Record(ev(i))
	}
	for i := 0; i < 5; i++ {
		select {
		case e := <-sub.Events():
			if e.Proc != i {
				t.Fatalf("event %d has Proc %d (reordered?)", i, e.Proc)
			}
		default:
			t.Fatalf("event %d not delivered", i)
		}
	}
	if h.Recorded() != 5 || h.Dropped() != 0 {
		t.Fatalf("recorded/dropped = %d/%d", h.Recorded(), h.Dropped())
	}
}

// TestHubSlowConsumerDrops: a full ring drops the newest events and
// the hub counts every one; delivered events are untouched. A
// subscriber's drops are the recorded events its ring did not take.
func TestHubSlowConsumerDrops(t *testing.T) {
	h := NewHub()
	slow := h.Subscribe(2)
	defer slow.Close()
	fast := h.Subscribe(16)
	defer fast.Close()
	for i := 0; i < 10; i++ {
		h.Record(ev(i))
	}
	if got := len(slow.Events()); got != 2 {
		t.Fatalf("slow subscriber took %d events, want 2 (8 dropped)", got)
	}
	if got := len(fast.Events()); got != 10 {
		t.Fatalf("fast subscriber took %d events, want 10 (none dropped)", got)
	}
	if got := h.Dropped(); got != 8 {
		t.Fatalf("hub dropped %d, want 8 (per-delivery accounting)", got)
	}
	// The slow ring holds the oldest two events (drop-newest policy: the
	// engine never waits for a drain).
	for i := 0; i < 2; i++ {
		e := <-slow.Events()
		if e.Proc != i {
			t.Fatalf("slow ring slot %d holds Proc %d, want %d", i, e.Proc, i)
		}
	}
}

// TestHubRecordNeverBlocks: publishing with zero subscribers, an
// abandoned full subscription, and after Close always returns promptly.
// The watchdog timeout only trips if Record blocks, which is exactly
// the engine-stall bug the hub exists to prevent.
func TestHubRecordNeverBlocks(t *testing.T) {
	h := NewHub()
	abandoned := h.Subscribe(1)
	closed := h.Subscribe(1)
	closed.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10_000; i++ {
			h.Record(ev(i))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Record blocked against a stalled subscriber")
	}
	if got := len(abandoned.Events()); got != 1 {
		t.Fatalf("abandoned subscription took %d events, want 1", got)
	}
	if got := len(closed.Events()); got != 0 {
		t.Fatalf("closed subscription took %d events, want 0 (still registered?)", got)
	}
	// The abandoned ring drops all but the first; the closed one, being
	// unregistered, drops none.
	if got := h.Dropped(); got != 9_999 {
		t.Fatalf("hub dropped %d, want 9999", got)
	}
}

// TestHubUnsubscribe: Close removes the subscriber (no further
// deliveries, no further drop accounting) and is idempotent.
func TestHubUnsubscribe(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(1)
	if got := h.Subscribers(); got != 1 {
		t.Fatalf("subscribers = %d, want 1", got)
	}
	sub.Close()
	sub.Close() // idempotent
	if got := h.Subscribers(); got != 0 {
		t.Fatalf("subscribers after Close = %d, want 0", got)
	}
	h.Record(ev(0))
	h.Record(ev(1))
	if got := h.Dropped(); got != 0 {
		t.Fatalf("hub counted %d drops for an unsubscribed ring", got)
	}
	select {
	case <-sub.Events():
		t.Fatal("event delivered after Close")
	default:
	}
}

// BenchmarkHubRecord pins the per-event cost of the fan-out the engine
// pays while a server is attached: with no subscriber the record is a
// counter bump behind a short mutex, and with one saturated subscriber
// it is still a non-blocking drop — neither path may allocate.
func BenchmarkHubRecord(b *testing.B) {
	b.Run("no-subscribers", func(b *testing.B) {
		h := NewHub()
		e := ev(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(e)
		}
	})
	b.Run("one-saturated-subscriber", func(b *testing.B) {
		h := NewHub()
		sub := h.Subscribe(1)
		defer sub.Close()
		e := ev(0)
		h.Record(e) // fill the ring; every further record drops
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(e)
		}
	})
}
