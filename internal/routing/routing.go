// Package routing computes packet routes over a mesh's link graph: which
// (port, channel) sequence a multi-hop transfer traverses, the nested
// forward memo the PR-7 forwarding middleware consumes at each
// intermediate chain, and the ICS-20 denom trace the transfer composes
// along the way. One View (health.go) finds every route: never observed
// it yields static hop-count shortest paths, deterministic in the link
// set regardless of declaration order or orientation; fed link health it
// re-scores and splits flows across near-equal arms.
package routing

import (
	"errors"
	"strings"

	"repro/internal/ibc"
	"repro/internal/middleware"
	"repro/internal/transfer"
)

// ErrNoRoute reports an unreachable destination: the mesh graph has no
// path between the requested chains (disconnected components are legal
// topologies — callers must handle this, not panic).
var ErrNoRoute = errors.New("routing: no route")

// ErrSameChain reports a route request whose source and destination are
// the same chain.
var ErrSameChain = errors.New("routing: same chain")

// Link is one bidirectional mesh link between chains A and B, named by
// each side's transfer (port, channel) as bootstrap opened them.
type Link struct {
	A, B               string
	PortA, PortB       ibc.PortID
	ChannelA, ChannelB ibc.ChannelID
}

// Hop is one step of a route: the sending chain's (Port, Channel) the
// packet leaves through, and the receiving chain's (DestPort,
// DestChannel) it arrives on — the pair ICS-20 uses to extend the denom
// trace.
type Hop struct {
	From, To    string
	Port        ibc.PortID
	Channel     ibc.ChannelID
	DestPort    ibc.PortID
	DestChannel ibc.ChannelID
}

// HopFrom is the link crossed starting on chain from (one of its ends).
func (l Link) HopFrom(from string) Hop {
	if from == l.B {
		return Hop{From: l.B, To: l.A, Port: l.PortB, Channel: l.ChannelB, DestPort: l.PortA, DestChannel: l.ChannelA}
	}
	return Hop{From: l.A, To: l.B, Port: l.PortA, Channel: l.ChannelA, DestPort: l.PortB, DestChannel: l.ChannelB}
}

// edge is a directed view of a Link.
type edge struct {
	to  string
	hop Hop
}

// routeKey indexes routes; chain names never contain a space.
func routeKey(src, dst string) string { return src + " " + dst }

// ForwardPlan is what a routed send needs beyond the first hop's (port,
// channel): the first-hop receiver and the memo carrying the remaining
// hops as nested forward instructions.
type ForwardPlan struct {
	Receiver string
	Memo     string
}

// Plan composes the forward memo for route: single-hop routes address the
// final receiver directly with the base memo; multi-hop routes address
// each intermediate chain's forward module account and nest one forward
// instruction per remaining hop, innermost last — exactly the shape the
// forwarding middleware unwraps one layer per chain.
func Plan(route []Hop, finalReceiver, moduleAccount, baseMemo string) ForwardPlan {
	if len(route) <= 1 {
		return ForwardPlan{Receiver: finalReceiver, Memo: baseMemo}
	}
	memo := baseMemo
	receiver := finalReceiver
	// Build inside-out: the instruction for the last forwarding chain
	// (route[len-1].From) is innermost.
	for i := len(route) - 1; i >= 1; i-- {
		h := route[i]
		memo = middleware.ForwardMemo(middleware.ForwardInfo{
			Port:     string(h.Port),
			Channel:  string(h.Channel),
			Receiver: receiver,
			Memo:     memo,
		})
		receiver = moduleAccount
	}
	return ForwardPlan{Receiver: receiver, Memo: memo}
}

// TraceDenom returns the denom held on each chain along the route:
// entry 0 is the denom on the source, entry i the denom after hop i.
// Each hop applies the ICS-20 rule the transfer app implements: a denom
// prefixed by the sending end's (port, channel) is going home and loses
// that prefix; anything else gains the receiving end's prefix.
func TraceDenom(route []Hop, denom string) []string {
	out := make([]string, 0, len(route)+1)
	out = append(out, denom)
	cur := denom
	for _, h := range route {
		srcPrefix := transfer.VoucherPrefix(h.Port, h.Channel)
		if strings.HasPrefix(cur, srcPrefix) {
			cur = strings.TrimPrefix(cur, srcPrefix)
		} else {
			cur = transfer.VoucherPrefix(h.DestPort, h.DestChannel) + cur
		}
		out = append(out, cur)
	}
	return out
}
