package host

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// counterProgram is a minimal test program: instruction data [op] where
// op=1 increments a counter in the state account (accounts[0]); op=2
// fails; op=3 burns compute; op=4 emits an event.
type counterProgram struct {
	id      ProgramID
	account cryptoutil.PubKey
}

type counterState struct{ n int }

// pingEvent is the typed event the test program emits for op=4.
type pingEvent struct{ N int }

func (pingEvent) EventKind() string { return "ping" }

func (p *counterProgram) ID() ProgramID { return p.id }

func (p *counterProgram) Execute(ctx *ExecContext, ins Instruction) error {
	acc, err := ctx.Account(p.account)
	if err != nil {
		return err
	}
	st := acc.State.(*counterState)
	switch ins.Data[0] {
	case 1:
		st.n++
		return nil
	case 2:
		return errors.New("deliberate failure")
	case 3:
		return ctx.Meter.Consume(MaxComputeUnits + 1)
	case 4:
		ctx.Emit(pingEvent{N: st.n})
		return nil
	default:
		return fmt.Errorf("bad op %d", ins.Data[0])
	}
}

func newTestChain(t *testing.T) (*Chain, *ManualClock, *counterProgram, cryptoutil.PubKey) {
	t.Helper()
	clock := NewManualClock(time.Unix(1_700_000_000, 0))
	c := NewChain(clock)
	payer := cryptoutil.GenerateKey("payer").Public()
	c.Fund(payer, 100*LamportsPerSOL)

	prog := &counterProgram{
		id:      cryptoutil.GenerateKey("counter-program").Public(),
		account: cryptoutil.GenerateKey("counter-state").Public(),
	}
	c.RegisterProgram(prog)
	if _, err := c.CreateStateAccount(payer, prog.account, prog.id, 1024, &counterState{}); err != nil {
		t.Fatal(err)
	}
	return c, clock, prog, payer
}

func call(prog *counterProgram, payer cryptoutil.PubKey, op byte) *Transaction {
	return &Transaction{
		FeePayer: payer,
		Instructions: []Instruction{{
			Program:  prog.id,
			Accounts: []cryptoutil.PubKey{prog.account},
			Data:     []byte{op},
		}},
		Label: "test",
	}
}

func TestSubmitAndExecute(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	if err := c.Submit(call(prog, payer, 1)); err != nil {
		t.Fatal(err)
	}
	b := c.ProduceBlock()
	if len(b.Results) != 1 || b.Results[0].Err != nil {
		t.Fatalf("block results: %+v", b.Results)
	}
	st, err := c.StateOf(prog.account)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*counterState).n != 1 {
		t.Fatalf("counter = %d, want 1", st.(*counterState).n)
	}
}

func TestFeeCharged(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	before := c.Balance(payer)
	tx := call(prog, payer, 1)
	tx.PriorityFee = 1000
	if err := c.Submit(tx); err != nil {
		t.Fatal(err)
	}
	c.ProduceBlock()
	wantFee := BaseFeePerSignature + 1000
	if got := before - c.Balance(payer); got != wantFee {
		t.Fatalf("fee charged = %d, want %d", got, wantFee)
	}
}

func TestFailedTxStillPaysFee(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	before := c.Balance(payer)
	if err := c.Submit(call(prog, payer, 2)); err != nil {
		t.Fatal(err)
	}
	b := c.ProduceBlock()
	if b.Results[0].Err == nil {
		t.Fatal("expected execution error")
	}
	if c.Balance(payer) != before-BaseFeePerSignature {
		t.Fatal("failed tx did not pay base fee")
	}
}

func TestFailedTxDropsEvents(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	tx := &Transaction{
		FeePayer: payer,
		Instructions: []Instruction{
			{Program: prog.id, Data: []byte{4}},
			{Program: prog.id, Data: []byte{2}},
		},
	}
	if err := c.Submit(tx); err != nil {
		t.Fatal(err)
	}
	b := c.ProduceBlock()
	if len(b.Events) != 0 {
		t.Fatalf("failed tx leaked %d events", len(b.Events))
	}
}

func TestComputeBudget(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	if err := c.Submit(call(prog, payer, 3)); err != nil {
		t.Fatal(err)
	}
	b := c.ProduceBlock()
	if !errors.Is(b.Results[0].Err, ErrComputeBudgetExceeded) {
		t.Fatalf("err = %v, want ErrComputeBudgetExceeded", b.Results[0].Err)
	}
}

func TestTxSizeLimit(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	tx := call(prog, payer, 1)
	tx.Instructions[0].Data = make([]byte, MaxTransactionSize)
	if err := c.Submit(tx); !errors.Is(err, ErrTxTooLarge) {
		t.Fatalf("Submit oversized = %v, want ErrTxTooLarge", err)
	}
	// A payload at exactly the chunk limit must fit.
	tx2 := call(prog, payer, 1)
	tx2.Instructions[0].Data = make([]byte, c.Profile().MaxInstructionData(1, 1))
	tx2.Instructions[0].Data[0] = 1
	if err := c.Submit(tx2); err != nil {
		t.Fatalf("Submit max-chunk = %v", err)
	}
	if got := tx2.Size(); got > MaxTransactionSize {
		t.Fatalf("max-chunk tx size %d > limit", got)
	}
}

func TestSignatureLimit(t *testing.T) {
	_, _, prog, payer := newTestChain(t)
	tx := call(prog, payer, 1)
	for i := 0; i < MaxSignaturesPerTransaction; i++ {
		tx.ExtraSigners = append(tx.ExtraSigners, cryptoutil.GenerateKeyIndexed("sig", i).Public())
	}
	if err := tx.Validate(SolanaProfile()); !errors.Is(err, ErrTooManySignatures) {
		t.Fatalf("Validate = %v, want ErrTooManySignatures", err)
	}
}

func TestPriorityOrdering(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	low := call(prog, payer, 4)
	low.Label = "low"
	high := call(prog, payer, 4)
	high.Label = "high"
	high.PriorityFee = 10_000
	bundle := call(prog, payer, 4)
	bundle.Label = "bundle"
	bundle.BundleTip = 1 // any bundle outranks any priority fee

	must(t, c.Submit(low))
	must(t, c.Submit(high))
	must(t, c.Submit(bundle))
	b := c.ProduceBlock()
	var got []string
	for _, r := range b.Results {
		got = append(got, r.Label)
	}
	want := []string{"bundle", "high", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestRentExemptDeposit(t *testing.T) {
	// §V-D: a 10 MiB account needs ≈ $14.6k at $200/SOL, i.e. ≈ 73 SOL.
	dep := RentExemptBalance(MaxAccountSize)
	sol := float64(dep) / float64(LamportsPerSOL)
	if sol < 70 || sol > 76 {
		t.Fatalf("10 MiB rent-exempt deposit = %.1f SOL, want ~73", sol)
	}
}

func TestCreateStateAccountRequiresDeposit(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	c := NewChain(clock)
	poor := cryptoutil.GenerateKey("poor").Public()
	c.Fund(poor, 1000)
	_, err := c.CreateStateAccount(poor, cryptoutil.GenerateKey("acct").Public(), ProgramID{}, MaxAccountSize, nil)
	if !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v, want ErrInsufficientFunds", err)
	}
}

func TestResizeRecoverDeposit(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	before := c.Balance(payer)
	// Grow to 1 MiB, then shrink back; the deposit must round-trip.
	must(t, c.ResizeStateAccount(payer, prog.account, 1024*1024))
	mid := c.Balance(payer)
	if mid >= before {
		t.Fatal("growing did not take a deposit")
	}
	must(t, c.ResizeStateAccount(payer, prog.account, 1024))
	if c.Balance(payer) != before {
		t.Fatalf("deposit not recovered: before=%d after=%d", before, c.Balance(payer))
	}
}

func TestEventsAndPolling(t *testing.T) {
	c, clock, prog, payer := newTestChain(t)
	must(t, c.Submit(call(prog, payer, 4)))
	c.ProduceBlock()
	clock.Advance(SlotDuration)
	must(t, c.Submit(call(prog, payer, 4)))
	c.ProduceBlock()

	blocks := c.BlocksSince(0)
	if len(blocks) != 2 {
		t.Fatalf("BlocksSince(0) = %d blocks, want 2", len(blocks))
	}
	blocks = c.BlocksSince(1)
	if len(blocks) != 1 || blocks[0].Slot != 2 {
		t.Fatalf("BlocksSince(1) wrong: %+v", blocks)
	}
	if len(blocks[0].EventsOfKind("ping")) != 1 {
		t.Fatal("missing ping event")
	}
}

func TestBlockRetention(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	const keep = 5
	c.SetBlockRetention(keep)
	// Three windows' worth, so the retained window has slid off the front
	// of its backing array more than once.
	for i := 0; i < 3*keep; i++ {
		must(t, c.Submit(call(prog, payer, 1)))
		c.ProduceBlock()
	}
	blocks := c.BlocksSince(0)
	if len(blocks) != keep {
		t.Fatalf("retained %d blocks, want %d", len(blocks), keep)
	}
	for i, b := range blocks {
		if want := Slot(2*keep + 1 + i); b.Slot != want {
			t.Fatalf("retained block %d is slot %d, want %d", i, b.Slot, want)
		}
	}
	if blocks := c.BlocksSince(3*keep - 2); len(blocks) != 2 || blocks[1].Slot != 3*keep {
		t.Fatalf("BlocksSince(%d) = %d blocks", 3*keep-2, len(blocks))
	}
	for _, pruned := range []Slot{3, keep, 2 * keep} {
		if _, err := c.BlockAt(pruned); err == nil {
			t.Fatalf("pruned block %d still retrievable", pruned)
		}
	}
	if b, err := c.BlockAt(2*keep + 2); err != nil || b.Slot != 2*keep+2 {
		t.Fatalf("BlockAt(%d) = %v, %v", 2*keep+2, b, err)
	}
}

func TestUnknownProgram(t *testing.T) {
	c, _, _, payer := newTestChain(t)
	tx := &Transaction{
		FeePayer:     payer,
		Instructions: []Instruction{{Program: cryptoutil.GenerateKey("nope").Public(), Data: []byte{1}}},
	}
	must(t, c.Submit(tx))
	b := c.ProduceBlock()
	if !errors.Is(b.Results[0].Err, ErrUnknownProgram) {
		t.Fatalf("err = %v, want ErrUnknownProgram", b.Results[0].Err)
	}
}

func TestTransferRequiresSigner(t *testing.T) {
	c, _, prog, payer := newTestChain(t)
	victim := cryptoutil.GenerateKey("victim").Public()
	c.Fund(victim, 1000)

	// A program trying to move a non-signer's funds must fail.
	p := &transferProgram{id: cryptoutil.GenerateKey("xfer").Public(), from: victim, to: payer}
	c.RegisterProgram(p)
	must(t, c.Submit(&Transaction{
		FeePayer:     payer,
		Instructions: []Instruction{{Program: p.id}},
	}))
	b := c.ProduceBlock()
	if !errors.Is(b.Results[0].Err, ErrMissingSigner) {
		t.Fatalf("err = %v, want ErrMissingSigner", b.Results[0].Err)
	}
	_ = prog
}

type transferProgram struct {
	id       ProgramID
	from, to cryptoutil.PubKey
}

func (p *transferProgram) ID() ProgramID { return p.id }
func (p *transferProgram) Execute(ctx *ExecContext, _ Instruction) error {
	return ctx.Transfer(p.from, p.to, 500)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestMeters(t *testing.T) {
	m := NewComputeMeter(1000)
	if err := m.Consume(400); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 400 || m.Remaining() != 600 {
		t.Fatalf("used/remaining = %d/%d", m.Used(), m.Remaining())
	}
	if err := m.Consume(700); !errors.Is(err, ErrComputeBudgetExceeded) {
		t.Fatalf("overrun = %v", err)
	}
	if m.Remaining() != 0 {
		t.Fatalf("remaining after overrun = %d", m.Remaining())
	}

	// Hash pricing: 64-byte blocks.
	m2 := NewComputeMeter(10 * CUPerSHA256Block)
	if err := m2.ConsumeHash(63); err != nil { // 1 block + padding
		t.Fatal(err)
	}
	if m2.Used() != CUPerSHA256Block {
		t.Fatalf("hash cost = %d", m2.Used())
	}

	h := NewHeapMeter(100)
	if err := h.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := h.Alloc(60); !errors.Is(err, ErrHeapExhausted) {
		t.Fatalf("heap overrun = %v", err)
	}
	if h.Used() != 120 {
		t.Fatalf("heap used = %d", h.Used())
	}
}

func TestAccountRent(t *testing.T) {
	a := &Account{Data: make([]byte, 1000)}
	if a.Size() != 1000 {
		t.Fatalf("size = %d", a.Size())
	}
	a.DataSize = 5000 // declared size wins
	if a.Size() != 5000 {
		t.Fatalf("declared size = %d", a.Size())
	}
	a.Lamports = RentExemptBalance(5000) - 1
	if a.RentExempt() {
		t.Fatal("below minimum counted as exempt")
	}
	a.Lamports++
	if !a.RentExempt() {
		t.Fatal("exact minimum not exempt")
	}
	a.DataSize = MaxAccountSize + 1
	if err := a.validateSize(); !errors.Is(err, ErrAccountTooLarge) {
		t.Fatalf("oversized account = %v", err)
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range []Profile{SolanaProfile(), NEARLikeProfile(), TRONLikeProfile()} {
		if p.Name == "" || p.MaxTransactionSize <= 0 || p.SlotDuration <= 0 {
			t.Fatalf("profile %+v invalid", p)
		}
		if p.MaxInstructionData(1, 1) <= 0 {
			t.Fatalf("profile %s has no instruction room", p.Name)
		}
		if p.MaxInstructionData(1, 1) >= p.MaxTransactionSize {
			t.Fatalf("profile %s instruction room exceeds tx size", p.Name)
		}
	}
	// The Solana profile mirrors the package constants.
	s := SolanaProfile()
	if s.MaxTransactionSize != MaxTransactionSize || s.MaxComputeUnits != MaxComputeUnits {
		t.Fatal("solana profile drifted from constants")
	}
}

func TestChainProfileEnforced(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	c := NewChainWithProfile(clock, NEARLikeProfile())
	payer := cryptoutil.GenerateKey("profile-payer").Public()
	c.Fund(payer, LamportsPerSOL)
	prog := &counterProgram{
		id:      cryptoutil.GenerateKey("profile-prog").Public(),
		account: cryptoutil.GenerateKey("profile-state").Public(),
	}
	c.RegisterProgram(prog)
	if _, err := c.CreateStateAccount(payer, prog.account, prog.id, 64, &counterState{}); err != nil {
		t.Fatal(err)
	}
	// A transaction far beyond Solana's limit fits the NEAR-like profile.
	tx := call(prog, payer, 1)
	tx.Instructions[0].Data = make([]byte, 100_000)
	tx.Instructions[0].Data[0] = 1
	if err := c.Submit(tx); err != nil {
		t.Fatalf("NEAR-like chain rejected a 100KB tx: %v", err)
	}
	b := c.ProduceBlock()
	if b.Results[0].Err != nil {
		t.Fatal(b.Results[0].Err)
	}
}
