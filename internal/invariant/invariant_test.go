package invariant

import (
	"reflect"
	"testing"
)

// conserving is a drained two-hop flow whose books balance.
func conserving() Ledger {
	return Ledger{
		Flow: "guest>c", Admitted: 4, AdmittedTokens: 100, HopEscrow: []uint64{100, 100},
		Vouchers: 100, Delivered: 4, DeliveredTokens: 100, Acked: 4,
	}
}

// TestLedgerMutations: a conserving ledger has no violations, and each
// single corruption yields exactly its own. The messages are
// benchmark/check.go's, so that file can later switch to this package
// with a clean diff.
func TestLedgerMutations(t *testing.T) {
	if v := conserving().Violations(true); len(v) != 0 {
		t.Fatalf("conserving ledger reported %q", v)
	}
	for _, tc := range []struct {
		name    string
		drained bool
		mutate  func(*Ledger)
		want    string
	}{
		{"vouchers differ from delivered tokens", true, func(l *Ledger) { l.Vouchers = 107 },
			"guest>c: vouchers 107 != delivered tokens 100"},
		{"hop k escrow above hop k-1", false, func(l *Ledger) { l.HopEscrow[1] = 120 },
			"guest>c: hop 1 escrow 120 exceeds hop 0 escrow 100"},
		{"delivered above last-hop escrow", false, func(l *Ledger) { l.HopEscrow[1] = 60 },
			"guest>c: delivered tokens 100 exceed last-hop escrow 60"},
		{"forward balance stranded after drain", true, func(l *Ledger) { l.Stranded = 9 },
			"guest>c: 9 tokens stranded in forwarding accounts"},
		{"duplicate receipt", true, func(l *Ledger) { l.Duplicates = 1 },
			"guest>c: 1 duplicate receipts"},
		{"error acknowledgement", true, func(l *Ledger) { l.ErrorAcks = 2 },
			"guest>c: 2 error acknowledgements"},
		{"first hop escrow off", false, func(l *Ledger) { l.HopEscrow[0] = 130 },
			"guest>c: hop 0 escrow 130 != admitted tokens 100"},
		{"admitted but no escrow read", true, func(l *Ledger) { l.HopEscrow = nil },
			"guest>c: admitted 4 transfers but no escrow was read"},
	} {
		l := conserving()
		tc.mutate(&l)
		if got := l.Violations(tc.drained); !reflect.DeepEqual(got, []string{tc.want}) {
			t.Errorf("%s: got %q, want exactly %q", tc.name, got, tc.want)
		}
	}

	// Backlog is not a violation mid-flight, and is one after the drain.
	backlog := conserving()
	backlog.HopEscrow[1], backlog.Vouchers, backlog.Delivered, backlog.DeliveredTokens = 70, 70, 3, 70
	if v := backlog.Violations(false); len(v) != 0 {
		t.Errorf("mid-flight backlog reported %q", v)
	}
	if v := backlog.Violations(true); !reflect.DeepEqual(v, []string{"guest>c: after drain hop 1 escrow 70 != admitted tokens 100"}) {
		t.Errorf("undrained hop reported %q", v)
	}
}

// TestFeeBookMutations is the same table for the ICS-29 book.
func TestFeeBookMutations(t *testing.T) {
	settled := func() FeeBook {
		return FeeBook{
			Chain: "guest", Port: "transfer", Escrowed: 48, Paid: 36, Refunded: 12, Claimed: 36,
			Payees: []Payee{{"r0", 18}, {"r1", 18}},
		}
	}
	if v := settled().Violations(); len(v) != 0 {
		t.Fatalf("settled book reported %q", v)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*FeeBook)
		want   string
	}{
		{"escrowed differs from paid + refunded", func(b *FeeBook) { b.Escrowed = 50 },
			"fees guest/transfer: escrowed 50 != paid 36 + refunded 12"},
		{"claimed differs from paid", func(b *FeeBook) { b.Claimed, b.Payees[0].Balance = 30, 12 },
			"fees guest/transfer: claimed 30 != paid 36"},
		{"fee still in escrow", func(b *FeeBook) { b.Pending = 1 },
			"fees guest/transfer: 1 packets still hold a fee escrow"},
		{"claims missing from the payees", func(b *FeeBook) { b.Payees[1].Balance = 10 },
			"fees guest/transfer: payees hold 28 != claimed 36"},
	} {
		b := settled()
		tc.mutate(&b)
		if got := b.Violations(); !reflect.DeepEqual(got, []string{tc.want}) {
			t.Errorf("%s: got %q, want exactly %q", tc.name, got, tc.want)
		}
	}
}
