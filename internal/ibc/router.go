package ibc

import "fmt"

// Router dispatches packets and channel callbacks to the application
// module bound on each port (ICS-05/ICS-26). It used to be an anonymous
// map inside Handler; with several apps multiplexed over one connection
// (transfer, additional transfer instances, governance, ...) the routing
// surface deserves its own layer: binding is explicit and fail-fast, and
// lookups return the typed ErrPortNotBound every caller branches on.
//
// Per-channel packet state (sequences, commitments, receipts, acks) is
// keyed by (port, channel) in the store, so modules sharing a Router —
// and even channels sharing a port — stay fully isolated.
type Router struct {
	modules map[PortID]Module
	// senders[port] is the send-side entry point for apps bound on port:
	// the core handler for plain modules, or the outermost layer of the
	// port's middleware stack when the bound module wraps sends (ICS-30's
	// ICS4-wrapper direction). Wired by Handler.BindPort.
	senders map[PortID]PacketSender
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{
		modules: make(map[PortID]Module),
		senders: make(map[PortID]PacketSender),
	}
}

// Bind registers a module on a port. Binding an already-bound port is a
// deployment bug and fails with ErrPortAlreadyBound.
func (r *Router) Bind(port PortID, m Module) error {
	if m == nil {
		return fmt.Errorf("%w: nil module for %q", ErrPortNotBound, port)
	}
	if _, ok := r.modules[port]; ok {
		return fmt.Errorf("%w: %q", ErrPortAlreadyBound, port)
	}
	r.modules[port] = m
	return nil
}

// BindSender registers the send-side entry point for a port. Called by
// Handler.BindPort alongside Bind; a port is only ever wired once.
func (r *Router) BindSender(port PortID, s PacketSender) error {
	if s == nil {
		return fmt.Errorf("%w: nil sender for %q", ErrPortNotBound, port)
	}
	if _, ok := r.senders[port]; ok {
		return fmt.Errorf("%w: sender for %q", ErrPortAlreadyBound, port)
	}
	r.senders[port] = s
	return nil
}

// Sender returns the send-side entry point bound on port.
func (r *Router) Sender(port PortID) (PacketSender, error) {
	s, ok := r.senders[port]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrPortNotBound, port)
	}
	return s, nil
}

// Route returns the module bound on port.
func (r *Router) Route(port PortID) (Module, error) {
	m, ok := r.modules[port]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrPortNotBound, port)
	}
	return m, nil
}
