// Package invariant states the packet plane's conservation rules once: the
// escrow = outstanding-vouchers and exactly-once-effect invariants ICS-20
// holds on every channel, and the ICS-29 fee book's escrowed = paid +
// refunded. A driver fills a Ledger per flow — what its taps counted plus
// what Read finds on the chains — and asks for the Violations.
package invariant

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/ibc"
	"repro/internal/middleware"
	"repro/internal/routing"
)

// Ledger is one flow's token books after a run: what the source admitted,
// what each hop's source side holds in escrow, what the destination
// credited, and what the taps saw delivered and acknowledged.
type Ledger struct {
	Flow            string
	Admitted        int
	AdmittedTokens  uint64
	HopEscrow       []uint64 // first hop first
	Vouchers        uint64   // credited to the flow's receivers on the destination
	Delivered       int
	DeliveredTokens uint64
	Acked           int    // acknowledgements relayed back to the source; the driver's to fill and to hold to Admitted
	Duplicates      int    // success acknowledgements for an already-delivered transfer
	ErrorAcks       int    // error acknowledgements written on the destination
	Stranded        uint64 // left in forwarding module accounts on intermediate chains
}

// Read fills the on-chain side of the ledger from the routes the flow's
// transfers of denom actually took: escrow per hop summed over the distinct
// channels the routes leave through (in the denom ICS-20 traces to that
// hop), the receivers' vouchers in every final denom, and whatever
// intermediate chains still hold in the forwarding account. A rerouted
// flow is thereby held against what was routed, not against one assumed
// path; its routes must be equally long, and the flow must not share a
// (channel, denom) with another.
func (l *Ledger) Read(net *core.Network, routes [][]routing.Hop, denom string, receivers []string) {
	// A place is where tokens sit: a hop's escrow or, past the last hop, the
	// receivers' balances.
	type place struct {
		hop     int
		chain   string
		port    ibc.PortID
		channel ibc.ChannelID
		denom   string
	}
	seen := make(map[place]bool)
	first := func(p place) bool {
		was := seen[p]
		seen[p] = true
		return !was
	}
	l.HopEscrow, l.Vouchers, l.Stranded = nil, 0, 0
	for _, route := range routes {
		trace := routing.TraceDenom(route, denom)
		if l.HopEscrow == nil {
			l.HopEscrow = make([]uint64, len(route))
		}
		for hi, h := range route {
			if app := net.Mesh.Chain(h.From).Apps[h.Port]; first(place{hi, h.From, h.Port, h.Channel, trace[hi]}) {
				l.HopEscrow[hi] += app.EscrowedAmount(h.Channel, trace[hi])
				if hi > 0 {
					l.Stranded += app.Balance(net.Mesh.ForwardAccount, trace[hi])
				}
			}
		}
		last, final := route[len(route)-1], trace[len(route)]
		if !first(place{len(route), last.To, last.DestPort, "", final}) {
			continue
		}
		for _, r := range receivers {
			l.Vouchers += net.Mesh.Chain(last.To).Apps[last.DestPort].Balance(r, final)
		}
	}
}

// Violations lists every conservation breach. Backlog is not one: with
// drained false (an overload phase stopped mid-flight) later hops may hold
// less than earlier ones, but nothing may be created, duplicated or
// credited without a delivery. With drained true every hop must hold
// exactly what was admitted and forwarding accounts must be flat.
func (l Ledger) Violations(drained bool) []string {
	var out []string
	bad := func(format string, args ...any) {
		out = append(out, l.Flow+": "+fmt.Sprintf(format, args...))
	}
	if l.Duplicates > 0 {
		bad("%d duplicate receipts", l.Duplicates)
	}
	if l.ErrorAcks > 0 {
		bad("%d error acknowledgements", l.ErrorAcks)
	}
	if l.Vouchers != l.DeliveredTokens {
		bad("vouchers %d != delivered tokens %d", l.Vouchers, l.DeliveredTokens)
	}
	if l.DeliveredTokens > l.AdmittedTokens {
		bad("delivered tokens %d exceed admitted %d", l.DeliveredTokens, l.AdmittedTokens)
	}
	if l.Admitted == 0 {
		return out
	}
	if len(l.HopEscrow) == 0 {
		bad("admitted %d transfers but no escrow was read", l.Admitted)
		return out
	}
	if l.HopEscrow[0] != l.AdmittedTokens {
		bad("hop 0 escrow %d != admitted tokens %d", l.HopEscrow[0], l.AdmittedTokens)
	}
	for k := 1; k < len(l.HopEscrow); k++ {
		if l.HopEscrow[k] > l.HopEscrow[k-1] {
			bad("hop %d escrow %d exceeds hop %d escrow %d", k, l.HopEscrow[k], k-1, l.HopEscrow[k-1])
		}
	}
	if last := l.HopEscrow[len(l.HopEscrow)-1]; l.DeliveredTokens > last {
		bad("delivered tokens %d exceed last-hop escrow %d", l.DeliveredTokens, last)
	}
	if drained {
		for k, e := range l.HopEscrow {
			if e != l.AdmittedTokens {
				bad("after drain hop %d escrow %d != admitted tokens %d", k, e, l.AdmittedTokens)
			}
		}
		if l.Stranded != 0 {
			bad("%d tokens stranded in forwarding accounts", l.Stranded)
		}
	}
	return out
}

// FeeBook is one port's ICS-29 escrow after the relayers' final sweep:
// the middleware's running totals and what each relayer that serves the
// chain holds in the fee denom.
type FeeBook struct {
	Chain    string
	Port     ibc.PortID
	Schedule middleware.FeeSchedule
	// The middleware's running totals, in the schedule's denom.
	Escrowed, Paid, Refunded, Claimed uint64
	Pending                           int // packets whose fees are still in escrow
	Payees                            []Payee
}

// Payee is one relayer's fee income on a FeeBook's chain.
type Payee struct {
	ID      string
	Balance uint64
}

func (p Payee) String() string { return fmt.Sprintf("%.12s...:%d", p.ID, p.Balance) }

// ReadFees returns the book of every fee-charging port, chains and ports
// in name order, payees sorted by ID.
func ReadFees(net *core.Network) []FeeBook {
	var books []FeeBook
	for _, name := range net.Mesh.Order {
		mc := net.Mesh.Chain(name)
		for port, stack := range mc.Stacks {
			fm, ok := stack.Middleware("fees").(*middleware.Fees)
			if !ok || fm == nil {
				continue
			}
			b := FeeBook{
				Chain: name, Port: port, Schedule: fm.Schedule(),
				Escrowed: fm.EscrowedTotal, Paid: fm.PaidTotal, Refunded: fm.RefundedTotal,
				Claimed: fm.ClaimedTotal, Pending: fm.PendingCount(),
			}
			for _, l := range net.Mesh.Links {
				for _, r := range l.Relayers {
					if l.A == name || l.B == name {
						b.Payees = append(b.Payees, Payee{r.PayeeID(), mc.Apps[port].Balance(r.PayeeID(), b.Schedule.Denom)})
					}
				}
			}
			sort.Slice(b.Payees, func(i, j int) bool { return b.Payees[i].ID < b.Payees[j].ID })
			books = append(books, b)
		}
	}
	sort.SliceStable(books, func(i, j int) bool {
		return books[i].Chain < books[j].Chain || books[i].Chain == books[j].Chain && books[i].Port < books[j].Port
	})
	return books
}

// Violations lists the book's breaches once every packet has settled:
// each escrowed fee was either paid out or refunded, everything paid was
// claimed, and the claims sit on the payees' balances.
func (b FeeBook) Violations() []string {
	var out []string
	bad := func(format string, args ...any) {
		out = append(out, fmt.Sprintf("fees %s/%s: ", b.Chain, b.Port)+fmt.Sprintf(format, args...))
	}
	if b.Pending != 0 {
		bad("%d packets still hold a fee escrow", b.Pending)
	}
	if b.Escrowed != b.Paid+b.Refunded {
		bad("escrowed %d != paid %d + refunded %d", b.Escrowed, b.Paid, b.Refunded)
	}
	if b.Claimed != b.Paid {
		bad("claimed %d != paid %d", b.Claimed, b.Paid)
	}
	var held uint64
	for _, p := range b.Payees {
		held += p.Balance
	}
	if held != b.Claimed {
		bad("payees hold %d != claimed %d", held, b.Claimed)
	}
	return out
}
