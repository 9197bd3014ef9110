package telemetry

import "sync"

// Event is a typed protocol or lifecycle event. Each event kind is its own
// struct (see ibc.EventSendPacket, guest.EventFinalisedBlock, ...);
// consumers type-switch on the concrete type instead of string-matching a
// kind, and EventKind exists only for display, filtering, and logs.
type Event interface {
	// EventKind returns the stable name of the event ("SendPacket",
	// "FinalisedBlock", ...). It must be constant per concrete type.
	EventKind() string
}

// Bus is a synchronous typed event bus. Publish delivers to subscribers in
// subscription order under the bus lock, so for a single publisher the
// emission order every subscriber observes is deterministic and identical.
// A subscriber stays attached for the bus's lifetime.
//
// Publish on a bus with no subscriber, or on a nil bus, discards the event.
//
// Subscriber callbacks run with the bus lock held: they must be fast and
// must not call back into the same bus (Subscribe/Publish would deadlock).
type Bus struct {
	mu   sync.Mutex
	subs []func(Event)
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe attaches fn to the bus. Subscribers receive events in the
// order they subscribed.
func (b *Bus) Subscribe(fn func(Event)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs = append(b.subs, fn)
}

// Publish delivers ev to every subscriber, in subscription order, before
// returning.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, fn := range b.subs {
		fn(ev)
	}
}
