package host

import (
	"time"

	"repro/internal/telemetry"
)

// Event is a log record emitted by a program during execution; off-chain
// actors (validators, relayers, fishermen) poll events by slot, mirroring
// how the paper's daemons watch the Guest Contract. The payload is a typed
// telemetry.Event: consumers type-switch on the concrete struct rather than
// string-matching a kind and down-casting an untyped value.
type Event struct {
	Time    time.Time
	Payload telemetry.Event
}

// Kind returns the payload's stable event name.
func (e Event) Kind() string {
	if e.Payload == nil {
		return ""
	}
	return e.Payload.EventKind()
}

// Block is one produced host block: its slot, timestamp, executed
// transaction results, and emitted events.
type Block struct {
	Slot    Slot
	Time    time.Time
	Results []TxResult
	Events  []Event
}

// EventsOfKind filters the block's events by kind.
func (b *Block) EventsOfKind(kind string) []Event {
	var out []Event
	for _, e := range b.Events {
		if e.Kind() == kind {
			out = append(out, e)
		}
	}
	return out
}

// eventSink collects events during one transaction so they can be dropped
// if the transaction fails (atomicity).
type eventSink struct {
	events []Event
}

func (s *eventSink) emit(ev telemetry.Event) {
	s.events = append(s.events, Event{Payload: ev})
}
