package ibc

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trie"
)

// SelfInfo lets the handler read the embedding chain's own height and time
// (for packet timeout checks) and validate how the counterparty's light
// client models this chain — the introspection requirement the paper calls
// out as missing from incomplete IBC ports (§I footnote 2, §II).
type SelfInfo interface {
	CurrentHeight() Height
	CurrentTime() time.Time
	// ValidateSelfClient checks a serialized client state the
	// counterparty claims to track this chain with.
	ValidateSelfClient(clientState []byte) error
}

// Handler is the chain-embedded IBC core: client registry, connection and
// channel handshakes, and packet lifecycle over a provable Store.
type Handler struct {
	store *Store
	self  SelfInfo

	clients  map[ClientID]Client
	router   *Router
	nextConn int
	nextChan int

	// channels and conns hold every end the handler has written or read,
	// decoded, with a channel's store keys beside it: setChannel and
	// setConnection write them through, so the packet path neither reads
	// nor decodes an end, nor spells and hashes a path of its own channel.
	channels map[chanID]*channel
	conns    map[ConnectionID]*ConnectionEnd

	// sealReceipts turns on the guest blockchain's storage reclamation:
	// receipts are sealed immediately after delivery.
	sealReceipts bool

	// bus carries typed protocol events (ibc.Event* structs). It is always
	// non-nil; an event published with no subscriber is discarded.
	bus *telemetry.Bus

	// telemetry is the metrics registry (nil means no-op instruments);
	// metricsNS prefixes metric names so several handlers (guest,
	// counterparty) can share one registry without colliding.
	telemetry *telemetry.Registry
	metricsNS string

	// Cached instruments; nil (no-op) unless WithTelemetry was given.
	packetsSent     *telemetry.Counter
	packetsReceived *telemetry.Counter
	packetsAcked    *telemetry.Counter
	packetsTimedOut *telemetry.Counter
}

// HandlerOption configures a Handler.
type HandlerOption func(*Handler)

// WithSealedReceipts enables sealing of delivered packet receipts
// (the guest blockchain's §III-A behaviour).
func WithSealedReceipts() HandlerOption {
	return func(h *Handler) { h.sealReceipts = true }
}

// WithTelemetry registers the handler's packet counters in reg, under the
// handler's metrics namespace.
func WithTelemetry(reg *telemetry.Registry) HandlerOption {
	return func(h *Handler) { h.telemetry = reg }
}

// WithMetricsNamespace sets the metric-name prefix (default "ibc"). The
// guest contract uses "guest.ibc" and the counterparty "cp.ibc" so both
// ends report into one registry.
func WithMetricsNamespace(ns string) HandlerOption {
	return func(h *Handler) { h.metricsNS = ns }
}

// NewHandler creates a handler over the given store.
func NewHandler(store *Store, self SelfInfo, opts ...HandlerOption) *Handler {
	h := &Handler{
		store:     store,
		self:      self,
		clients:   make(map[ClientID]Client),
		router:    NewRouter(),
		channels:  make(map[chanID]*channel),
		conns:     make(map[ConnectionID]*ConnectionEnd),
		bus:       telemetry.NewBus(),
		metricsNS: "ibc",
	}
	for _, o := range opts {
		o(h)
	}
	// Resolve instruments once options settled (namespace may follow the
	// registry in the option list). With no registry these stay nil, which
	// the telemetry package treats as no-ops.
	h.packetsSent = h.telemetry.Counter(h.metricsNS + ".packets_sent")
	h.packetsReceived = h.telemetry.Counter(h.metricsNS + ".packets_received")
	h.packetsAcked = h.telemetry.Counter(h.metricsNS + ".packets_acked")
	h.packetsTimedOut = h.telemetry.Counter(h.metricsNS + ".packets_timed_out")
	return h
}

// Events returns the handler's event bus. Subscribe to receive typed
// protocol events; delivery is synchronous and in subscription order.
func (h *Handler) Events() *telemetry.Bus { return h.bus }

func (h *Handler) emit(ev telemetry.Event) { h.bus.Publish(ev) }

// BindPort registers an application module on a port and wires the port's
// send-side entry point: the core handler for plain modules, or the
// module's wrapped send chain when it is a SendMiddleware (a middleware
// stack intercepting outgoing packets).
func (h *Handler) BindPort(port PortID, m Module) error {
	if err := h.router.Bind(port, m); err != nil {
		return err
	}
	var sender PacketSender = h
	if sm, ok := m.(SendMiddleware); ok {
		sender = sm.WrapSender(h)
	}
	return h.router.BindSender(port, sender)
}

// Router exposes the handler's port router (read-mostly: new apps are
// bound through BindPort, topology code inspects bound ports through it).
func (h *Handler) Router() *Router { return h.router }

func (h *Handler) module(port PortID) (Module, error) {
	return h.router.Route(port)
}

// --- Clients (ICS-02) ---

// CreateClient registers a light client instance under id.
func (h *Handler) CreateClient(id ClientID, c Client) error {
	if _, ok := h.clients[id]; ok {
		return fmt.Errorf("%w: %q", ErrClientExists, id)
	}
	h.clients[id] = c
	return nil
}

// Client returns the light client registered under id.
func (h *Handler) Client(id ClientID) (Client, error) {
	c, ok := h.clients[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrClientNotFound, id)
	}
	return c, nil
}

// UpdateClient feeds a counterparty header to the client and records the
// update in provable storage so the counterparty can, in turn, prove this
// chain's view of it.
func (h *Handler) UpdateClient(id ClientID, header []byte) error {
	c, err := h.Client(id)
	if err != nil {
		return err
	}
	if err := c.Update(header, h.self.CurrentTime()); err != nil {
		return fmt.Errorf("ibc: update client %q: %w", id, err)
	}
	return nil
}

// --- Connections (ICS-03) ---

func (h *Handler) newConnectionID() ConnectionID {
	id := ConnectionID(fmt.Sprintf("connection-%d", h.nextConn))
	h.nextConn++
	return id
}

func (h *Handler) setConnection(id ConnectionID, end *ConnectionEnd) error {
	if err := storeEnd(h.store, ConnectionPath(id), end, marshalConnectionEnd, unmarshalConnectionEnd); err != nil {
		return err
	}
	kept := *end
	h.conns[id] = &kept
	return nil
}

// connection returns the connection end stored under id, read and decoded
// once. The caller must not modify it.
func (h *Handler) connection(id ConnectionID) (*ConnectionEnd, error) {
	if end, ok := h.conns[id]; ok {
		return end, nil
	}
	raw, err := h.store.Get(ConnectionPath(id))
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrConnectionNotFound, id)
	}
	end, err := unmarshalConnectionEnd(raw)
	if err != nil {
		return nil, err
	}
	h.conns[id] = end
	return end, nil
}

// Connection returns a copy of the connection end stored under id.
func (h *Handler) Connection(id ConnectionID) (*ConnectionEnd, error) {
	end, err := h.connection(id)
	if err != nil {
		return nil, err
	}
	c := *end
	return &c, nil
}

// ConnOpenInit starts the handshake (chain A).
func (h *Handler) ConnOpenInit(clientID ClientID, counterpartyClientID ClientID) (ConnectionID, error) {
	if _, err := h.Client(clientID); err != nil {
		return "", err
	}
	id := h.newConnectionID()
	end := &ConnectionEnd{
		State:        StateInit,
		ClientID:     clientID,
		Counterparty: Counterparty{ClientID: counterpartyClientID},
	}
	if err := h.setConnection(id, end); err != nil {
		return "", err
	}
	return id, nil
}

// ConnOpenTry answers an Init from the counterparty (chain B).
// counterpartyConnID is the ID chain A assigned; proofInit proves chain A
// stored its INIT end at proofHeight; selfClientState is chain A's client
// state for this chain, which we validate (self-client introspection).
func (h *Handler) ConnOpenTry(
	clientID ClientID,
	counterparty Counterparty,
	selfClientState []byte,
	proofInit []byte,
	proofHeight Height,
) (ConnectionID, error) {
	client, err := h.Client(clientID)
	if err != nil {
		return "", err
	}
	if err := h.self.ValidateSelfClient(selfClientState); err != nil {
		return "", fmt.Errorf("ibc: counterparty's client for us is invalid: %w", err)
	}
	// Chain A stored: {INIT, clientID: counterparty.ClientID,
	// counterparty: {ClientID: our clientID, ConnectionID: ""}}.
	expected := &ConnectionEnd{
		State:        StateInit,
		ClientID:     counterparty.ClientID,
		Counterparty: Counterparty{ClientID: clientID},
	}
	if err := client.VerifyMembership(proofHeight, ConnectionPath(counterparty.ConnectionID), marshalConnectionEnd(expected), proofInit); err != nil {
		return "", err
	}
	id := h.newConnectionID()
	end := &ConnectionEnd{
		State:        StateTryOpen,
		ClientID:     clientID,
		Counterparty: counterparty,
	}
	if err := h.setConnection(id, end); err != nil {
		return "", err
	}
	return id, nil
}

// ConnOpenAck completes chain A's side.
func (h *Handler) ConnOpenAck(
	id ConnectionID,
	counterpartyConnID ConnectionID,
	selfClientState []byte,
	proofTry []byte,
	proofHeight Height,
) error {
	end, err := h.Connection(id)
	if err != nil {
		return err
	}
	if end.State != StateInit {
		return fmt.Errorf("%w: connection %q is %v, want INIT", ErrInvalidState, id, end.State)
	}
	client, err := h.Client(end.ClientID)
	if err != nil {
		return err
	}
	if err := h.self.ValidateSelfClient(selfClientState); err != nil {
		return fmt.Errorf("ibc: counterparty's client for us is invalid: %w", err)
	}
	expected := &ConnectionEnd{
		State:        StateTryOpen,
		ClientID:     end.Counterparty.ClientID,
		Counterparty: Counterparty{ClientID: end.ClientID, ConnectionID: id},
	}
	if err := client.VerifyMembership(proofHeight, ConnectionPath(counterpartyConnID), marshalConnectionEnd(expected), proofTry); err != nil {
		return err
	}
	end.State = StateOpen
	end.Counterparty.ConnectionID = counterpartyConnID
	return h.setConnection(id, end)
}

// ConnOpenConfirm completes chain B's side.
func (h *Handler) ConnOpenConfirm(id ConnectionID, proofAck []byte, proofHeight Height) error {
	end, err := h.Connection(id)
	if err != nil {
		return err
	}
	if end.State != StateTryOpen {
		return fmt.Errorf("%w: connection %q is %v, want TRYOPEN", ErrInvalidState, id, end.State)
	}
	client, err := h.Client(end.ClientID)
	if err != nil {
		return err
	}
	expected := &ConnectionEnd{
		State:        StateOpen,
		ClientID:     end.Counterparty.ClientID,
		Counterparty: Counterparty{ClientID: end.ClientID, ConnectionID: id},
	}
	if err := client.VerifyMembership(proofHeight, ConnectionPath(end.Counterparty.ConnectionID), marshalConnectionEnd(expected), proofAck); err != nil {
		return err
	}
	end.State = StateOpen
	return h.setConnection(id, end)
}

// --- Channels (ICS-04 handshake) ---

func (h *Handler) newChannelID() ChannelID {
	id := ChannelID(fmt.Sprintf("channel-%d", h.nextChan))
	h.nextChan++
	return id
}

// chanID names a channel end: its port and channel identifier.
type chanID struct {
	port PortID
	id   ChannelID
}

// channel is what the handler keeps of a channel end: the decoded end and
// the trie keys of the channel's own paths, its two next-sequence
// counters and its three sequenced namespaces.
type channel struct {
	end                         ChannelEnd
	nextSend, nextRecv          storeKey
	commitments, receipts, acks seqKeys
}

func newChannel(port PortID, id ChannelID) *channel {
	return &channel{
		nextSend:    PathToKey(NextSequenceSendPath(port, id)),
		nextRecv:    PathToKey(NextSequenceRecvPath(port, id)),
		commitments: newSeqKeys(nsCommitment, port, id),
		receipts:    newSeqKeys(nsReceipt, port, id),
		acks:        newSeqKeys(nsAck, port, id),
	}
}

// keepChannel records end as the channel end at (port, id).
func (h *Handler) keepChannel(port PortID, id ChannelID, end *ChannelEnd) *channel {
	k := chanID{port, id}
	c := h.channels[k]
	if c == nil {
		c = newChannel(port, id)
		h.channels[k] = c
	}
	c.end = *end
	return c
}

func (h *Handler) setChannel(port PortID, id ChannelID, end *ChannelEnd) error {
	if err := storeEnd(h.store, ChannelPath(port, id), end, marshalChannelEnd, unmarshalChannelEnd); err != nil {
		return err
	}
	h.keepChannel(port, id, end)
	return nil
}

// channel returns the channel at (port, id), its end read and decoded
// once. The caller must not modify the end.
func (h *Handler) channel(port PortID, id ChannelID) (*channel, error) {
	if c, ok := h.channels[chanID{port, id}]; ok {
		return c, nil
	}
	raw, err := h.store.Get(ChannelPath(port, id))
	if err != nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrChannelNotFound, port, id)
	}
	end, err := unmarshalChannelEnd(raw)
	if err != nil {
		return nil, err
	}
	return h.keepChannel(port, id, end), nil
}

// Channel returns a copy of the channel end for (port, id).
func (h *Handler) Channel(port PortID, id ChannelID) (*ChannelEnd, error) {
	c, err := h.channel(port, id)
	if err != nil {
		return nil, err
	}
	end := c.end
	return &end, nil
}

// openClient resolves the light client behind an open connection: the one
// lookup every channel handshake and packet proof makes.
func (h *Handler) openClient(id ConnectionID) (*ConnectionEnd, Client, error) {
	conn, err := h.connection(id)
	if err != nil {
		return nil, nil, err
	}
	if conn.State != StateOpen {
		return nil, nil, fmt.Errorf("%w: connection %q is %v, want OPEN", ErrInvalidState, id, conn.State)
	}
	client, err := h.Client(conn.ClientID)
	return conn, client, err
}

// packetChannel resolves the channel at (port, id) a packet travels on
// and the light client behind its open connection, after checking that
// peer, the packet's other end, is the channel's counterparty: neither the
// commitment nor the path of a packet binds both ends of its route.
func (h *Handler) packetChannel(port PortID, id ChannelID, peer ChannelCounterparty) (*channel, Client, error) {
	c, err := h.channel(port, id)
	if err != nil {
		return nil, nil, err
	}
	if c.end.Counterparty != peer {
		return nil, nil, fmt.Errorf("%w: route mismatch", ErrInvalidPacket)
	}
	_, client, err := h.openClient(c.end.ConnectionID)
	return c, client, err
}

// channelStep advances the channel end at (port, id) from state have once
// proof shows the peer channel stored the end mirroring it in state peer:
// the same ordering and version, this channel as its counterparty, the
// peer's side of the connection. The end closes if the peer closed and
// opens otherwise. peerChannel is the peer's channel id when this step
// learns it (ChanOpenAck), empty to keep the recorded one.
func (h *Handler) channelStep(port PortID, id ChannelID, have, peer State, peerChannel ChannelID, proof []byte, proofHeight Height) error {
	end, err := h.Channel(port, id)
	if err != nil {
		return err
	}
	if end.State != have {
		return fmt.Errorf("%w: channel %s/%s is %v, want %v", ErrInvalidState, port, id, end.State, have)
	}
	conn, client, err := h.openClient(end.ConnectionID)
	if err != nil {
		return err
	}
	if peerChannel != "" {
		end.Counterparty.ChannelID = peerChannel
	}
	expected := &ChannelEnd{
		State:        peer,
		Ordering:     end.Ordering,
		Counterparty: ChannelCounterparty{PortID: port, ChannelID: id},
		ConnectionID: conn.Counterparty.ConnectionID,
		Version:      end.Version,
	}
	if err := client.VerifyMembership(proofHeight, ChannelPath(end.Counterparty.PortID, end.Counterparty.ChannelID), marshalChannelEnd(expected), proof); err != nil {
		return err
	}
	end.State = StateOpen
	if peer == StateClosed {
		end.State = StateClosed
	}
	return h.setChannel(port, id, end)
}

// ChanOpenInit starts a channel handshake (chain A).
func (h *Handler) ChanOpenInit(port PortID, connID ConnectionID, counterpartyPort PortID, ordering Ordering, version string) (ChannelID, error) {
	m, err := h.module(port)
	if err != nil {
		return "", err
	}
	if _, _, err := h.openClient(connID); err != nil {
		return "", err
	}
	id := h.newChannelID()
	if err := m.OnChanOpen(port, id, version); err != nil {
		return "", fmt.Errorf("%w: channel rejected: %w", ErrAppRejected, err)
	}
	end := &ChannelEnd{
		State:        StateInit,
		Ordering:     ordering,
		Counterparty: ChannelCounterparty{PortID: counterpartyPort},
		ConnectionID: connID,
		Version:      version,
	}
	if err := h.setChannel(port, id, end); err != nil {
		return "", err
	}
	if err := h.store.Set(NextSequenceSendPath(port, id), sequenceValue(1)); err != nil {
		return "", err
	}
	if err := h.store.Set(NextSequenceRecvPath(port, id), sequenceValue(1)); err != nil {
		return "", err
	}
	return id, nil
}

// ChanOpenTry answers a channel Init (chain B).
func (h *Handler) ChanOpenTry(
	port PortID,
	connID ConnectionID,
	counterparty ChannelCounterparty,
	ordering Ordering,
	version string,
	proofInit []byte,
	proofHeight Height,
) (ChannelID, error) {
	m, err := h.module(port)
	if err != nil {
		return "", err
	}
	conn, client, err := h.openClient(connID)
	if err != nil {
		return "", err
	}
	expected := &ChannelEnd{
		State:        StateInit,
		Ordering:     ordering,
		Counterparty: ChannelCounterparty{PortID: port},
		ConnectionID: conn.Counterparty.ConnectionID,
		Version:      version,
	}
	if err := client.VerifyMembership(proofHeight, ChannelPath(counterparty.PortID, counterparty.ChannelID), marshalChannelEnd(expected), proofInit); err != nil {
		return "", err
	}
	id := h.newChannelID()
	if err := m.OnChanOpen(port, id, version); err != nil {
		return "", fmt.Errorf("%w: channel rejected: %w", ErrAppRejected, err)
	}
	end := &ChannelEnd{
		State:        StateTryOpen,
		Ordering:     ordering,
		Counterparty: counterparty,
		ConnectionID: connID,
		Version:      version,
	}
	if err := h.setChannel(port, id, end); err != nil {
		return "", err
	}
	if err := h.store.Set(NextSequenceSendPath(port, id), sequenceValue(1)); err != nil {
		return "", err
	}
	if err := h.store.Set(NextSequenceRecvPath(port, id), sequenceValue(1)); err != nil {
		return "", err
	}
	return id, nil
}

// ChanOpenAck completes chain A's channel end.
func (h *Handler) ChanOpenAck(port PortID, id ChannelID, counterpartyChannel ChannelID, proofTry []byte, proofHeight Height) error {
	return h.channelStep(port, id, StateInit, StateTryOpen, counterpartyChannel, proofTry, proofHeight)
}

// ChanOpenConfirm completes chain B's channel end.
func (h *Handler) ChanOpenConfirm(port PortID, id ChannelID, proofAck []byte, proofHeight Height) error {
	return h.channelStep(port, id, StateTryOpen, StateOpen, "", proofAck, proofHeight)
}

// ChanCloseInit closes this end of a channel voluntarily.
func (h *Handler) ChanCloseInit(port PortID, id ChannelID) error {
	end, err := h.Channel(port, id)
	if err != nil {
		return err
	}
	if end.State != StateOpen {
		return fmt.Errorf("%w: channel %s/%s is %v, want OPEN", ErrInvalidState, port, id, end.State)
	}
	end.State = StateClosed
	return h.setChannel(port, id, end)
}

// ChanCloseConfirm closes this end after the counterparty proved its end
// closed.
func (h *Handler) ChanCloseConfirm(port PortID, id ChannelID, proofClosed []byte, proofHeight Height) error {
	return h.channelStep(port, id, StateOpen, StateClosed, "", proofClosed, proofHeight)
}

// --- Packet lifecycle ---

// SendPacket assigns the next sequence, commits the packet, and returns it
// (Alg. 1 SendPacket, minus the host-specific fee collection which the
// Guest Contract layers on top).
func (h *Handler) SendPacket(port PortID, id ChannelID, data []byte, timeoutHeight Height, timeoutTimestamp time.Time) (*Packet, error) {
	c, err := h.channel(port, id)
	if err != nil {
		return nil, err
	}
	if c.end.State != StateOpen {
		return nil, fmt.Errorf("%w: channel %s/%s is %v", ErrChannelClosed, port, id, c.end.State)
	}
	raw, err := h.store.trie.Value(c.nextSend)
	if err != nil {
		return nil, pathError("get", NextSequenceSendPath(port, id), err)
	}
	seq, err := decodeSequence(raw)
	if err != nil {
		return nil, err
	}
	p := &Packet{
		Sequence:         seq,
		SourcePort:       port,
		SourceChannel:    id,
		DestPort:         c.end.Counterparty.PortID,
		DestChannel:      c.end.Counterparty.ChannelID,
		Data:             append([]byte(nil), data...),
		TimeoutHeight:    timeoutHeight,
		TimeoutTimestamp: timeoutTimestamp,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := h.store.put(c.nextSend, sequenceValue(seq+1)); err != nil {
		return nil, pathError("set", NextSequenceSendPath(port, id), err)
	}
	if err := h.store.put(c.commitments.at(seq), p.CommitmentBytes()); err != nil {
		return nil, pathError("set", c.commitments.path(seq), err)
	}
	h.packetsSent.Inc()
	h.emit(EventSendPacket{Packet: p})
	return p, nil
}

// AppSendPacket is the application-facing send entry point: it threads the
// outgoing packet through the middleware stack bound on port (fees,
// callbacks, ...) before the core SendPacket commits it. Chain layers
// (Guest Contract, counterparty chain) call this; middlewares themselves
// re-enter via the PacketSender they were given at wrap time.
func (h *Handler) AppSendPacket(port PortID, id ChannelID, data []byte, timeoutHeight Height, timeoutTimestamp time.Time) (*Packet, error) {
	s, err := h.router.Sender(port)
	if err != nil {
		return nil, err
	}
	return s.SendPacket(port, id, data, timeoutHeight, timeoutTimestamp)
}

// RecvPacket verifies an incoming packet against the counterparty's
// commitment proof, guards against double delivery, hands the payload to
// the bound application, and commits the acknowledgement (Alg. 1
// ReceivePacket).
func (h *Handler) RecvPacket(p *Packet, proof []byte, proofHeight Height) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c, client, err := h.packetChannel(p.DestPort, p.DestChannel, ChannelCounterparty{PortID: p.SourcePort, ChannelID: p.SourceChannel})
	if err != nil {
		return nil, err
	}
	if c.end.State != StateOpen {
		return nil, fmt.Errorf("%w: channel %s/%s is %v", ErrChannelClosed, p.DestPort, p.DestChannel, c.end.State)
	}
	if p.TimedOut(h.self.CurrentHeight(), h.self.CurrentTime()) {
		return nil, ErrPacketExpired
	}
	commitPath := CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence)
	if err := client.VerifyMembership(proofHeight, commitPath, p.CommitmentBytes(), proof); err != nil {
		return nil, err
	}

	switch c.end.Ordering {
	case Ordered:
		raw, err := h.store.trie.Value(c.nextRecv)
		if err != nil {
			return nil, pathError("get", NextSequenceRecvPath(p.DestPort, p.DestChannel), err)
		}
		next, err := decodeSequence(raw)
		if err != nil {
			return nil, err
		}
		if p.Sequence != next {
			if p.Sequence < next {
				return nil, ErrPacketAlreadyDelivered
			}
			return nil, fmt.Errorf("%w: got %d, want %d", ErrSequenceMismatch, p.Sequence, next)
		}
		if err := h.store.put(c.nextRecv, sequenceValue(next+1)); err != nil {
			return nil, pathError("set", NextSequenceRecvPath(p.DestPort, p.DestChannel), err)
		}
	default: // Unordered: the channel decoder admits no other ordering
		receipt := c.receipts.at(p.Sequence)
		has, err := h.store.trie.Has(receipt)
		switch {
		case errors.Is(err, trie.ErrSealed):
			return nil, ErrPacketAlreadyDelivered
		case err != nil:
			return nil, pathError("has", c.receipts.path(p.Sequence), err)
		case has:
			return nil, ErrPacketAlreadyDelivered
		}
		err = h.store.put(receipt, receiptValue)
		switch {
		case errors.Is(err, trie.ErrSealed):
			// The sealed receipt IS the double-delivery guard (§III-A).
			return nil, ErrPacketAlreadyDelivered
		case err != nil:
			return nil, pathError("set", c.receipts.path(p.Sequence), err)
		}
		if has, _ := h.store.trie.Has(receipt); !has {
			return nil, fmt.Errorf("%w: %q", ErrReceiptLost, c.receipts.path(p.Sequence))
		}
		if h.sealReceipts {
			if err := h.store.trie.Seal(receipt); err != nil {
				return nil, pathError("seal", c.receipts.path(p.Sequence), err)
			}
		}
	}

	m, err := h.module(p.DestPort)
	if err != nil {
		return nil, err
	}
	ack, err := m.OnRecvPacket(*p)
	if err != nil {
		return nil, fmt.Errorf("%w: packet rejected: %w", ErrAppRejected, err)
	}
	if len(ack) == 0 {
		return nil, fmt.Errorf("ibc: application returned empty acknowledgement")
	}
	if err := h.store.put(c.acks.at(p.Sequence), AckCommitmentBytes(ack)); err != nil {
		return nil, pathError("set", c.acks.path(p.Sequence), err)
	}
	h.packetsReceived.Inc()
	h.emit(EventWriteAck{Packet: p, Ack: ack})
	return ack, nil
}

// hasReceipt reports whether an unordered-channel receipt exists or was
// sealed (either way the packet was delivered).
func (h *Handler) hasReceipt(p *Packet) bool {
	path := ReceiptPath(p.DestPort, p.DestChannel, p.Sequence)
	if has, _ := h.store.Has(path); has {
		return true
	}
	return h.store.IsSealed(path)
}

// pendingCommitment opens the settlement of a packet this chain sent: it
// resolves the packet's channel (whose end must name the packet's
// destination as its counterparty) and the light client behind the
// channel's open connection, and checks that the commitment path still
// holds p's commitment. A path that holds nothing means the packet was
// already acknowledged or timed out (ErrPacketAlreadyDelivered).
func (h *Handler) pendingCommitment(p *Packet) (*channel, Client, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	c, client, err := h.packetChannel(p.SourcePort, p.SourceChannel, ChannelCounterparty{PortID: p.DestPort, ChannelID: p.DestChannel})
	if err != nil {
		return nil, nil, err
	}
	stored, err := h.store.trie.Value(c.commitments.at(p.Sequence))
	if errors.Is(err, trie.ErrNotFound) {
		return nil, nil, ErrPacketAlreadyDelivered
	}
	if err != nil {
		return nil, nil, pathError("get", c.commitments.path(p.Sequence), err)
	}
	if string(stored) != string(p.CommitmentBytes()) {
		return nil, nil, fmt.Errorf("%w: commitment mismatch", ErrInvalidPacket)
	}
	return c, client, nil
}

// clearCommitment deletes the commitment of p, a packet sent on c.
func (h *Handler) clearCommitment(c *channel, p *Packet) error {
	if err := h.store.trie.Delete(c.commitments.at(p.Sequence)); err != nil {
		return pathError("delete", c.commitments.path(p.Sequence), err)
	}
	return nil
}

// AcknowledgePacket verifies the counterparty committed ack for a packet
// this chain sent, notifies the application, and clears the commitment.
func (h *Handler) AcknowledgePacket(p *Packet, ack []byte, proofAck []byte, proofHeight Height) error {
	c, client, err := h.pendingCommitment(p)
	if err != nil {
		return err
	}
	ackPath := AckPath(p.DestPort, p.DestChannel, p.Sequence)
	if err := client.VerifyMembership(proofHeight, ackPath, AckCommitmentBytes(ack), proofAck); err != nil {
		return err
	}
	m, err := h.module(p.SourcePort)
	if err != nil {
		return err
	}
	if err := m.OnAcknowledgementPacket(*p, ack); err != nil {
		return fmt.Errorf("%w: ack callback: %w", ErrAppRejected, err)
	}
	if err := h.clearCommitment(c, p); err != nil {
		return err
	}
	h.packetsAcked.Inc()
	h.emit(EventAcknowledgePacket{Packet: p})
	return nil
}

// TimeoutPacket proves a sent packet was never delivered before its
// timeout, notifies the application (refunds etc.), and clears the
// commitment. For unordered channels the proof is receipt non-membership;
// for ordered channels it is a nextSequenceRecv proof.
func (h *Handler) TimeoutPacket(p *Packet, proofUnreceived []byte, proofHeight Height) error {
	c, client, err := h.pendingCommitment(p)
	if err != nil {
		return err
	}

	// The timeout must have elapsed as observed through the light client.
	expired := false
	if p.TimeoutHeight != 0 && proofHeight >= p.TimeoutHeight {
		expired = true
	}
	if !expired && !p.TimeoutTimestamp.IsZero() {
		ts, err := client.ConsensusTime(proofHeight)
		if err != nil {
			return err
		}
		if !ts.Before(p.TimeoutTimestamp) {
			expired = true
		}
	}
	if !expired {
		return ErrPacketNotExpired
	}

	switch c.end.Ordering {
	case Unordered:
		receiptPath := ReceiptPath(p.DestPort, p.DestChannel, p.Sequence)
		if err := client.VerifyNonMembership(proofHeight, receiptPath, proofUnreceived); err != nil {
			return err
		}
	case Ordered:
		// Prove the counterparty's nextSequenceRecv is still <= seq.
		nsrPath := NextSequenceRecvPath(p.DestPort, p.DestChannel)
		// proofUnreceived carries (value || proof): first 8 bytes value.
		if len(proofUnreceived) < 8 {
			return fmt.Errorf("%w: short ordered timeout proof", ErrProofVerification)
		}
		next, err := decodeSequence(proofUnreceived[:8])
		if err != nil {
			return err
		}
		if next > p.Sequence {
			return fmt.Errorf("%w: counterparty already received %d", ErrInvalidPacket, p.Sequence)
		}
		if err := client.VerifyMembership(proofHeight, nsrPath, sequenceValue(next), proofUnreceived[8:]); err != nil {
			return err
		}
	}

	m, err := h.module(p.SourcePort)
	if err != nil {
		return err
	}
	if err := m.OnTimeoutPacket(*p); err != nil {
		return fmt.Errorf("%w: timeout callback: %w", ErrAppRejected, err)
	}
	if err := h.clearCommitment(c, p); err != nil {
		return err
	}
	// Per ICS-04, a timeout on an ordered channel breaks the ordering
	// guarantee permanently: the channel closes.
	if c.end.Ordering == Ordered {
		closed := c.end
		closed.State = StateClosed
		if err := h.setChannel(p.SourcePort, p.SourceChannel, &closed); err != nil {
			return err
		}
	}
	h.packetsTimedOut.Inc()
	h.emit(EventTimeoutPacket{Packet: p})
	return nil
}

// HasCommitment reports whether an outgoing packet commitment is pending.
func (h *Handler) HasCommitment(p *Packet) bool {
	has, _ := h.store.Has(CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence))
	return has
}

// PacketDelivered reports whether an incoming packet was delivered: an
// unordered channel holds (or sealed) its receipt; an ordered channel
// writes none, its next expected sequence has moved past the packet.
func (h *Handler) PacketDelivered(p *Packet) bool {
	if h.hasReceipt(p) {
		return true
	}
	c, err := h.channel(p.DestPort, p.DestChannel)
	if err != nil || c.end.Ordering != Ordered {
		return false
	}
	raw, err := h.store.trie.Value(c.nextRecv)
	if err != nil {
		return false
	}
	next, err := decodeSequence(raw)
	return err == nil && p.Sequence < next
}
