package main

import "fmt"

// ledger is one flow's token books after a phase: what the source admitted,
// what each hop's source side holds in escrow, what the destination
// credited, and what the taps saw delivered and acknowledged.
type ledger struct {
	flow            string
	admitted        int
	admittedTokens  uint64
	hopEscrow       []uint64 // first hop first
	vouchers        uint64   // credited to the flow's receivers on the destination
	delivered       int
	deliveredTokens uint64
	acked           int
	duplicates      int    // success acknowledgements for an already-delivered transfer
	errorAcks       int    // error acknowledgements written on the destination
	stranded        uint64 // left in forwarding module accounts on intermediate chains
}

// violations lists every conservation breach. Backlog is not one: with
// drained false (an overload phase stopped mid-flight) later hops may hold
// less than earlier ones, but nothing may be created, duplicated or
// credited without a delivery. With drained true every hop must hold
// exactly what was admitted and forwarding accounts must be flat.
func (l ledger) violations(drained bool) []string {
	var out []string
	bad := func(format string, args ...any) {
		out = append(out, l.flow+": "+fmt.Sprintf(format, args...))
	}
	if l.duplicates > 0 {
		bad("%d duplicate receipts", l.duplicates)
	}
	if l.errorAcks > 0 {
		bad("%d error acknowledgements", l.errorAcks)
	}
	if l.vouchers != l.deliveredTokens {
		bad("vouchers %d != delivered tokens %d", l.vouchers, l.deliveredTokens)
	}
	if l.deliveredTokens > l.admittedTokens {
		bad("delivered tokens %d exceed admitted %d", l.deliveredTokens, l.admittedTokens)
	}
	if l.admitted == 0 {
		return out
	}
	if len(l.hopEscrow) == 0 {
		bad("admitted %d transfers but no escrow was read", l.admitted)
		return out
	}
	if l.hopEscrow[0] != l.admittedTokens {
		bad("hop 0 escrow %d != admitted tokens %d", l.hopEscrow[0], l.admittedTokens)
	}
	for k := 1; k < len(l.hopEscrow); k++ {
		if l.hopEscrow[k] > l.hopEscrow[k-1] {
			bad("hop %d escrow %d exceeds hop %d escrow %d", k, l.hopEscrow[k], k-1, l.hopEscrow[k-1])
		}
	}
	if last := l.hopEscrow[len(l.hopEscrow)-1]; l.deliveredTokens > last {
		bad("delivered tokens %d exceed last-hop escrow %d", l.deliveredTokens, last)
	}
	if drained {
		for k, e := range l.hopEscrow {
			if e != l.admittedTokens {
				bad("after drain hop %d escrow %d != admitted tokens %d", k, e, l.admittedTokens)
			}
		}
		if l.stranded != 0 {
			bad("%d tokens stranded in forwarding accounts", l.stranded)
		}
	}
	return out
}

// fingerprint digests the ledger for the determinism check.
func (l ledger) fingerprint() string {
	return fmt.Sprintf("%s adm=%d/%d esc=%v vou=%d del=%d/%d ack=%d", l.flow,
		l.admitted, l.admittedTokens, l.hopEscrow, l.vouchers, l.delivered, l.deliveredTokens, l.acked)
}
