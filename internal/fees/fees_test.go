package fees

import (
	"math"
	"testing"

	"repro/internal/host"
)

func TestConversionsRoundTrip(t *testing.T) {
	if got := USD(host.LamportsPerSOL); got != SOLPriceUSD {
		t.Fatalf("1 SOL = $%v", got)
	}
	if got := Cents(host.BaseFeePerSignature); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("base fee = %v ¢, want 0.1 (§V-B)", got)
	}
	if got := FromUSD(200); got != host.LamportsPerSOL {
		t.Fatalf("FromUSD(200) = %d", got)
	}
	if got := FromCents(0.1); got != host.BaseFeePerSignature {
		t.Fatalf("FromCents(0.1) = %d", got)
	}
}

func TestDeploymentPoliciesMatchPaperCosts(t *testing.T) {
	// A send transaction carries 1 fee-payer signature plus 1 precompile
	// verification? No — sends carry only the payer signature; the §V-A
	// clusters are total transaction cost. Build a representative send.
	sendTx := func(p Policy) *host.Transaction {
		return &host.Transaction{FeePayer: [32]byte{1}, Instructions: []host.Instruction{{Data: []byte{1}}},
			PriorityFee: p.PriorityFee, BundleTip: p.BundleTip}
	}
	prio := USD(sendTx(PriorityPolicy).Fee(host.SolanaProfile()))
	if math.Abs(prio-1.40) > 0.01 {
		t.Fatalf("priority send = $%.3f, want $1.40", prio)
	}
	bundle := USD(sendTx(BundlePolicy).Fee(host.SolanaProfile()))
	if math.Abs(bundle-3.02) > 0.01 {
		t.Fatalf("bundle send = $%.3f, want $3.02", bundle)
	}
}

func TestPoliciesSetOneFeeField(t *testing.T) {
	if p := PriorityPolicy; p.PriorityFee == 0 || p.BundleTip != 0 {
		t.Fatalf("priority policy sets the wrong fields: %+v", p)
	}
	if p := BundlePolicy; p.BundleTip == 0 || p.PriorityFee != 0 {
		t.Fatalf("bundle policy sets the wrong fields: %+v", p)
	}
}

func TestAdaptiveScalesWithBacklog(t *testing.T) {
	clock := host.NewManualClock(timeZero())
	chain := host.NewChain(clock)
	a := NewAdaptive(chain)
	a.Floor = 100
	a.Ceiling = 10_100
	a.FullAt = 10

	if got := a.Policy().PriorityFee; got != 100 {
		t.Fatalf("empty backlog fee = %d, want floor", got)
	}
	payer := fundedKey(chain)
	for i := 0; i < 5; i++ {
		submitNoop(t, chain, payer)
	}
	mid := a.Policy().PriorityFee
	if mid <= 100 || mid >= 10_100 {
		t.Fatalf("mid backlog fee = %d, want between floor and ceiling", mid)
	}
	for i := 0; i < 20; i++ {
		submitNoop(t, chain, payer)
	}
	if got := a.Policy().PriorityFee; got != 10_100 {
		t.Fatalf("full backlog fee = %d, want ceiling", got)
	}
}
