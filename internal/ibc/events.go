package ibc

// Typed protocol events published on the handler's event bus
// (telemetry.Bus). Each kind is its own struct, so consumers type-switch on
// the concrete type. A kind is emitted only while something reads it
// (DESIGN.md §13): the benchmark reads sends, acks written and acks
// verified, and a relayer test reads timeouts.

// EventSendPacket is published when a packet commitment is written.
type EventSendPacket struct{ Packet *Packet }

// EventKind implements telemetry.Event.
func (EventSendPacket) EventKind() string { return "SendPacket" }

// EventWriteAck is published when the acknowledgement for a received packet
// is committed.
type EventWriteAck struct {
	Packet *Packet
	Ack    []byte
}

// EventKind implements telemetry.Event.
func (EventWriteAck) EventKind() string { return "WriteAck" }

// EventAcknowledgePacket is published when a sent packet's acknowledgement
// is verified and its commitment cleared.
type EventAcknowledgePacket struct{ Packet *Packet }

// EventKind implements telemetry.Event.
func (EventAcknowledgePacket) EventKind() string { return "AcknowledgePacket" }

// EventTimeoutPacket is published when a sent packet is proven undelivered
// past its timeout.
type EventTimeoutPacket struct{ Packet *Packet }

// EventKind implements telemetry.Event.
func (EventTimeoutPacket) EventKind() string { return "TimeoutPacket" }
