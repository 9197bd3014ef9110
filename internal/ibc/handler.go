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

// Store returns the underlying provable store.
func (h *Handler) Store() *Store { return h.store }

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
	return storeEnd(h.store, ConnectionPath(id), end, marshalConnectionEnd, unmarshalConnectionEnd)
}

// Connection returns the connection end stored under id.
func (h *Handler) Connection(id ConnectionID) (*ConnectionEnd, error) {
	raw, err := h.store.Get(ConnectionPath(id))
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrConnectionNotFound, id)
	}
	return unmarshalConnectionEnd(raw)
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

func (h *Handler) setChannel(port PortID, id ChannelID, end *ChannelEnd) error {
	return storeEnd(h.store, ChannelPath(port, id), end, marshalChannelEnd, unmarshalChannelEnd)
}

// Channel returns the channel end for (port, id).
func (h *Handler) Channel(port PortID, id ChannelID) (*ChannelEnd, error) {
	raw, err := h.store.Get(ChannelPath(port, id))
	if err != nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrChannelNotFound, port, id)
	}
	return unmarshalChannelEnd(raw)
}

// openClient resolves the light client behind an open connection: the one
// lookup every channel handshake and packet proof makes.
func (h *Handler) openClient(id ConnectionID) (*ConnectionEnd, Client, error) {
	conn, err := h.Connection(id)
	if err != nil {
		return nil, nil, err
	}
	if conn.State != StateOpen {
		return nil, nil, fmt.Errorf("%w: connection %q is %v, want OPEN", ErrInvalidState, id, conn.State)
	}
	client, err := h.Client(conn.ClientID)
	return conn, client, err
}

// packetChannel resolves the channel end at (port, id) a packet travels on
// and the light client behind its open connection, after checking that
// peer, the packet's other end, is the channel's counterparty: neither the
// commitment nor the path of a packet binds both ends of its route.
func (h *Handler) packetChannel(port PortID, id ChannelID, peer ChannelCounterparty) (*ChannelEnd, Client, error) {
	end, err := h.Channel(port, id)
	if err != nil {
		return nil, nil, err
	}
	if end.Counterparty != peer {
		return nil, nil, fmt.Errorf("%w: route mismatch", ErrInvalidPacket)
	}
	_, client, err := h.openClient(end.ConnectionID)
	return end, client, err
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
	end, err := h.Channel(port, id)
	if err != nil {
		return nil, err
	}
	if end.State != StateOpen {
		return nil, fmt.Errorf("%w: channel %s/%s is %v", ErrChannelClosed, port, id, end.State)
	}
	raw, err := h.store.Get(NextSequenceSendPath(port, id))
	if err != nil {
		return nil, err
	}
	seq, err := decodeSequence(raw)
	if err != nil {
		return nil, err
	}
	p := &Packet{
		Sequence:         seq,
		SourcePort:       port,
		SourceChannel:    id,
		DestPort:         end.Counterparty.PortID,
		DestChannel:      end.Counterparty.ChannelID,
		Data:             append([]byte(nil), data...),
		TimeoutHeight:    timeoutHeight,
		TimeoutTimestamp: timeoutTimestamp,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := h.store.Set(NextSequenceSendPath(port, id), sequenceValue(seq+1)); err != nil {
		return nil, err
	}
	if err := h.store.Set(CommitmentPath(port, id, seq), p.CommitmentBytes()); err != nil {
		return nil, err
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
	end, client, err := h.packetChannel(p.DestPort, p.DestChannel, ChannelCounterparty{PortID: p.SourcePort, ChannelID: p.SourceChannel})
	if err != nil {
		return nil, err
	}
	if end.State != StateOpen {
		return nil, fmt.Errorf("%w: channel %s/%s is %v", ErrChannelClosed, p.DestPort, p.DestChannel, end.State)
	}
	if p.TimedOut(h.self.CurrentHeight(), h.self.CurrentTime()) {
		return nil, ErrPacketExpired
	}
	commitPath := CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence)
	if err := client.VerifyMembership(proofHeight, commitPath, p.CommitmentBytes(), proof); err != nil {
		return nil, err
	}

	switch end.Ordering {
	case Ordered:
		raw, err := h.store.Get(NextSequenceRecvPath(p.DestPort, p.DestChannel))
		if err != nil {
			return nil, err
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
		if err := h.store.Set(NextSequenceRecvPath(p.DestPort, p.DestChannel), sequenceValue(next+1)); err != nil {
			return nil, err
		}
	default: // Unordered: the channel decoder admits no other ordering
		receiptPath := ReceiptPath(p.DestPort, p.DestChannel, p.Sequence)
		has, err := h.store.Has(receiptPath)
		switch {
		case errors.Is(err, trie.ErrSealed):
			return nil, ErrPacketAlreadyDelivered
		case err != nil:
			return nil, err
		case has:
			return nil, ErrPacketAlreadyDelivered
		}
		err = h.store.Set(receiptPath, receiptValue)
		switch {
		case errors.Is(err, trie.ErrSealed):
			// The sealed receipt IS the double-delivery guard (§III-A).
			return nil, ErrPacketAlreadyDelivered
		case err != nil:
			return nil, err
		}
		if has, _ := h.store.Has(receiptPath); !has {
			return nil, fmt.Errorf("%w: %q", ErrReceiptLost, receiptPath)
		}
		if h.sealReceipts {
			if err := h.store.Seal(receiptPath); err != nil {
				return nil, err
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
	if err := h.store.Set(AckPath(p.DestPort, p.DestChannel, p.Sequence), AckCommitmentBytes(ack)); err != nil {
		return nil, err
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
// resolves the packet's channel end (which must name the packet's
// destination as its counterparty), the light client behind the channel's
// open connection and the commitment path, and checks that the path still
// holds p's commitment. A path that holds nothing means the packet was
// already acknowledged or timed out (ErrPacketAlreadyDelivered).
func (h *Handler) pendingCommitment(p *Packet) (*ChannelEnd, Client, string, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, "", err
	}
	end, client, err := h.packetChannel(p.SourcePort, p.SourceChannel, ChannelCounterparty{PortID: p.DestPort, ChannelID: p.DestChannel})
	if err != nil {
		return nil, nil, "", err
	}
	commitPath := CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence)
	stored, err := h.store.Get(commitPath)
	if errors.Is(err, trie.ErrNotFound) {
		return nil, nil, "", ErrPacketAlreadyDelivered
	}
	if err != nil {
		return nil, nil, "", err
	}
	if string(stored) != string(p.CommitmentBytes()) {
		return nil, nil, "", fmt.Errorf("%w: commitment mismatch", ErrInvalidPacket)
	}
	return end, client, commitPath, nil
}

// AcknowledgePacket verifies the counterparty committed ack for a packet
// this chain sent, notifies the application, and clears the commitment.
func (h *Handler) AcknowledgePacket(p *Packet, ack []byte, proofAck []byte, proofHeight Height) error {
	_, client, commitPath, err := h.pendingCommitment(p)
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
	if err := h.store.Delete(commitPath); err != nil {
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
	end, client, commitPath, err := h.pendingCommitment(p)
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

	switch end.Ordering {
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
	if err := h.store.Delete(commitPath); err != nil {
		return err
	}
	// Per ICS-04, a timeout on an ordered channel breaks the ordering
	// guarantee permanently: the channel closes.
	if end.Ordering == Ordered {
		end.State = StateClosed
		if err := h.setChannel(p.SourcePort, p.SourceChannel, end); err != nil {
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
	end, err := h.Channel(p.DestPort, p.DestChannel)
	if err != nil || end.Ordering != Ordered {
		return false
	}
	raw, err := h.store.Get(NextSequenceRecvPath(p.DestPort, p.DestChannel))
	if err != nil {
		return false
	}
	next, err := decodeSequence(raw)
	return err == nil && p.Sequence < next
}
