package ibc

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Connection and channel ends have one encoding, for the end a chain stores
// and for the end it expects the counterparty to have proven: a state byte
// (and, for a channel, an ordering byte) followed by the end's identifiers
// as u16-length-prefixed strings.

func marshalConnectionEnd(e *ConnectionEnd) []byte {
	w := wire.NewWriterSize(1 + 3*2 + len(e.ClientID) + len(e.Counterparty.ClientID) + len(e.Counterparty.ConnectionID))
	w.U8(uint8(e.State))
	w.String16(string(e.ClientID))
	w.String16(string(e.Counterparty.ClientID))
	w.String16(string(e.Counterparty.ConnectionID))
	return w.Bytes()
}

func unmarshalConnectionEnd(raw []byte) (*ConnectionEnd, error) {
	r := newEndReader(raw)
	e := &ConnectionEnd{
		State:        State(r.U8()),
		ClientID:     ClientID(r.str()),
		Counterparty: Counterparty{ClientID: ClientID(r.str()), ConnectionID: ConnectionID(r.str())},
	}
	if err := r.done(e.State); err != nil {
		return nil, fmt.Errorf("ibc: decode connection end: %w", err)
	}
	return e, nil
}

func marshalChannelEnd(e *ChannelEnd) []byte {
	w := wire.NewWriterSize(2 + 4*2 + len(e.Counterparty.PortID) + len(e.Counterparty.ChannelID) + len(e.ConnectionID) + len(e.Version))
	w.U8(uint8(e.State))
	w.U8(uint8(e.Ordering))
	w.String16(string(e.Counterparty.PortID))
	w.String16(string(e.Counterparty.ChannelID))
	w.String16(string(e.ConnectionID))
	w.String16(e.Version)
	return w.Bytes()
}

func unmarshalChannelEnd(raw []byte) (*ChannelEnd, error) {
	r := newEndReader(raw)
	e := &ChannelEnd{
		State:        State(r.U8()),
		Ordering:     Ordering(r.U8()),
		Counterparty: ChannelCounterparty{PortID: PortID(r.str()), ChannelID: ChannelID(r.str())},
		ConnectionID: ConnectionID(r.str()),
		Version:      r.str(),
	}
	err := r.done(e.State)
	if err == nil && e.Ordering != Unordered && e.Ordering != Ordered {
		err = fmt.Errorf("%w: %v", ErrInvalidOrdering, e.Ordering)
	}
	if err != nil {
		return nil, fmt.Errorf("ibc: decode channel end: %w", err)
	}
	return e, nil
}

// errEndTooLong refuses an end with a field longer than its u16 length
// prefix: its encoding would read back as a different end.
var errEndTooLong = errors.New("ibc: end field longer than 65535 bytes")

// storeEnd writes end's encoding under path, refusing an end that would not
// read back as itself: an ordering or state the decoder refuses, or a field
// too long for its length prefix.
func storeEnd[E comparable](s *Store, path string, end *E, enc func(*E) []byte, dec func([]byte) (*E, error)) error {
	raw := enc(end)
	back, err := dec(raw)
	if err == nil && *back != *end {
		err = errEndTooLong
	}
	if err != nil {
		return err
	}
	return s.Set(path, raw)
}

// endReader reads an end's strings as substrings of one copy of its
// bytes: one allocation for all of them, not one per field.
type endReader struct {
	*wire.Reader
	s string
}

func newEndReader(raw []byte) endReader {
	return endReader{Reader: wire.NewReader(raw), s: string(raw)}
}

// str reads a u16-length-prefixed string.
func (r endReader) str() string {
	n := int(r.U16())
	start := len(r.s) - r.Remaining()
	r.Raw(n)
	if r.Err() != nil {
		return ""
	}
	return r.s[start : start+n]
}

// done checks the end was read to its last byte with a state the
// handshakes know.
func (r endReader) done(s State) error {
	if err := r.Done(); err != nil {
		return err
	}
	if s > StateClosed {
		return fmt.Errorf("%w: %v", ErrInvalidState, s)
	}
	return nil
}
