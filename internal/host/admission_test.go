package host

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/telemetry"
)

func TestMempoolLimitRejects(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	c.SetMempoolLimit(2)

	for i := 0; i < 2; i++ {
		tx := call(prog, payer, 1)
		tx.PriorityFee = Lamports(i) // distinct hashes
		if err := c.Submit(tx); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if n := len(c.mempool); n != 2 {
		t.Fatalf("mempool holds %d, want 2", n)
	}
	over := call(prog, payer, 1)
	over.PriorityFee = 99
	if err := c.Submit(over); !errors.Is(err, ErrMempoolFull) {
		t.Fatalf("overflow submit: err = %v, want ErrMempoolFull", err)
	}
	if got := reg.Counter("host.mempool_rejected").Value(); got != 1 {
		t.Fatalf("mempool_rejected = %d, want 1", got)
	}

	// Draining the mempool frees admission slots again.
	b := c.ProduceBlock()
	if len(b.Results) != 2 {
		t.Fatalf("block results = %d, want 2", len(b.Results))
	}
	if n := len(c.mempool); n != 0 {
		t.Fatalf("mempool holds %d after the block, want 0", n)
	}
	if err := c.Submit(over); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

func TestMempoolUnlimitedByDefault(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	for i := 0; i < 64; i++ {
		tx := call(prog, payer, 1)
		tx.PriorityFee = Lamports(i)
		if err := c.Submit(tx); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

func TestDeadlineShedding(t *testing.T) {
	c, clock, prog, payer := newTestChain(t)
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)

	var shedLabels []string
	stale := call(prog, payer, 1)
	stale.Deadline = clock.Now().Add(1 * time.Second)
	stale.Label = "stale"
	stale.OnShed = func(tx *Transaction) { shedLabels = append(shedLabels, tx.Label) }
	fresh := call(prog, payer, 1)
	fresh.PriorityFee = 1
	fresh.Label = "fresh"
	fresh.Deadline = clock.Now().Add(1 * time.Hour)
	if err := c.Submit(stale); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(fresh); err != nil {
		t.Fatal(err)
	}

	clock.Advance(2 * time.Second)
	b := c.ProduceBlock()
	if len(b.Results) != 1 || b.Results[0].Label != "fresh" {
		t.Fatalf("block results: %+v", b.Results)
	}
	if got := reg.Counter("host.mempool_shed").Value(); got != 1 {
		t.Fatalf("mempool_shed = %d, want 1", got)
	}
	if len(shedLabels) != 1 || shedLabels[0] != "stale" {
		t.Fatalf("OnShed hooks ran for %v, want [stale]", shedLabels)
	}
	// The shed transaction paid no fee and mutated no state.
	st, err := c.StateOf(prog.account)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*counterState).n != 1 {
		t.Fatalf("counter = %d, want 1 (only fresh tx applied)", st.(*counterState).n)
	}
}

// TestMixedPrecompileBatches runs a block full of signature-bearing
// transactions, mixing valid and invalid precompile batches, and checks
// the outcome follows serial semantics: valid ones execute, invalid ones
// fail with the precompile error, in priority order. One more valid
// transaction waits behind them past the block compute budget: it runs in
// the next block, and its signature is verified once, when it runs.
func TestMixedPrecompileBatches(t *testing.T) {
	c, clock, prog, _ := newTestChain(t)
	msg := []byte("verify me")

	const n = 24
	wantErr := make(map[string]bool, n)
	submit := func(i int, label string, bad bool) {
		t.Helper()
		signer := cryptoutil.GenerateKeyIndexed("mixed-signer", i)
		sv := SigVerify{Pub: signer.Public(), Msg: msg, Sig: signer.Sign(msg)}
		if bad {
			sv.Sig[0] ^= 0xff
		}
		// Distinct fee payers; each needs funds.
		fp := cryptoutil.GenerateKeyIndexed("mixed-payer", i).Public()
		c.Fund(fp, LamportsPerSOL)
		tx := call(prog, fp, 1)
		tx.PrecompileSigs = []SigVerify{sv}
		tx.Label = label
		wantErr[label] = bad
		if err := c.Submit(tx); err != nil {
			t.Fatalf("submit %s: %v", label, err)
		}
	}
	okWant := 0
	for i := 0; i < n; i++ {
		bad := i%3 == 0
		if !bad {
			okWant++
		}
		submit(i, string(rune('a'+i)), bad)
	}
	// Each valid counter call costs one base instruction: the n batches
	// fill the block budget, and the last transaction waits a slot.
	c.profile.BlockComputeBudget = uint64(okWant) * CUBaseInstruction
	submit(n, "deferred", false)

	verifications := func() uint64 {
		s := cryptoutil.DefaultBatchVerifier().Stats()
		return s.Hits + s.Misses
	}
	v0 := verifications()
	b := c.ProduceBlock()
	v1 := verifications()
	if len(b.Results) != n {
		t.Fatalf("block results = %d, want %d", len(b.Results), n)
	}
	okCount := 0
	for _, res := range b.Results {
		if wantErr[res.Label] {
			if res.Err == nil {
				t.Fatalf("tx %q: expected precompile failure, got success", res.Label)
			}
		} else {
			if res.Err != nil {
				t.Fatalf("tx %q: unexpected error %v", res.Label, res.Err)
			}
			okCount++
		}
	}
	st, err := c.StateOf(prog.account)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*counterState).n != okCount {
		t.Fatalf("counter = %d, want %d", st.(*counterState).n, okCount)
	}
	if v1-v0 != n {
		t.Fatalf("block verified %d signatures, want %d (the deferred one waits)", v1-v0, n)
	}

	clock.Advance(SlotDuration)
	b = c.ProduceBlock()
	if len(b.Results) != 1 || b.Results[0].Label != "deferred" || b.Results[0].Err != nil {
		t.Fatalf("next block results: %+v", b.Results)
	}
	if got := verifications() - v0; got != n+1 {
		t.Fatalf("two blocks verified %d signatures, want %d: the deferred one exactly once", got, n+1)
	}
	if st.(*counterState).n != okCount+1 {
		t.Fatalf("counter = %d, want %d", st.(*counterState).n, okCount+1)
	}
}
