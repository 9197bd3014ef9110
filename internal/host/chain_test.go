package host

import (
	"errors"
	"fmt"
	"sync"
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
	if _, err := c.CreateStateAccount(payer, prog.account, 1024, &counterState{}); err != nil {
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
	_, err := c.CreateStateAccount(poor, cryptoutil.GenerateKey("acct").Public(), MaxAccountSize, nil)
	if !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v, want ErrInsufficientFunds", err)
	}
}

func TestEventsAndPolling(t *testing.T) {
	c, clock, prog, payer := newTestChain(t)
	r := c.NewReader()
	must(t, c.Submit(call(prog, payer, 4)))
	c.ProduceBlock()
	clock.Advance(SlotDuration)
	must(t, c.Submit(call(prog, payer, 4)))
	c.ProduceBlock()

	blocks := r.Pull(nil)
	if len(blocks) != 2 || blocks[0].Slot != 1 || blocks[1].Slot != 2 {
		t.Fatalf("Pull() = %d blocks, want slots 1 and 2", len(blocks))
	}
	if len(blocks[1].EventsOfKind("ping")) != 1 {
		t.Fatal("missing ping event")
	}
	if blocks := r.Pull(nil); len(blocks) != 0 {
		t.Fatalf("second Pull() = %d blocks, want none", len(blocks))
	}
	// Pull appends to the slice it is given, as append does.
	clock.Advance(SlotDuration)
	c.ProduceBlock()
	if got := r.Pull(blocks[:1]); len(got) != 2 || got[0] != blocks[0] || got[1].Slot != 3 {
		t.Fatalf("Pull(dst) = %d blocks, want dst's slot 1 then slot 3", len(got))
	}
}

// TestBlockRetention: the chain holds a block until every reader has
// pulled it, and no longer.
func TestBlockRetention(t *testing.T) {
	c, _, _, _ := newTestChain(t)
	// Without a reader nothing is held.
	c.ProduceBlock()
	if len(c.blocks) != 0 {
		t.Fatalf("a chain with no reader holds %d blocks", len(c.blocks))
	}

	fast, slow := c.NewReader(), c.NewReader()
	// Every reader caught up: the chain holds only the block just produced.
	for i := 0; i < 10_000; i++ {
		c.ProduceBlock()
		if len(c.blocks) > 1 {
			t.Fatalf("slot %d: %d blocks held with every reader caught up", c.Slot(), len(c.blocks))
		}
		fast.Pull(nil)
		slow.Pull(nil)
	}
	if len(c.blocks) != 0 {
		t.Fatalf("%d blocks held once every reader pulled", len(c.blocks))
	}

	// One reader stalls for 3 000 slots, past the 2 048-block window the
	// chain once kept: the other keeps pulling, and the stalled one still
	// reads every block, in order, exactly once.
	const stall = 3_000
	var produced []*Block
	for i := 0; i < stall; i++ {
		produced = append(produced, c.ProduceBlock())
		fast.Pull(nil)
	}
	if len(c.blocks) != stall {
		t.Fatalf("%d blocks held for a reader %d behind", len(c.blocks), stall)
	}
	got := slow.Pull(nil)
	if len(got) != stall {
		t.Fatalf("stalled reader pulled %d blocks, want %d", len(got), stall)
	}
	for i, b := range got {
		if b != produced[i] {
			t.Fatalf("pulled block %d is slot %d, want slot %d", i, b.Slot, produced[i].Slot)
		}
	}
	if again := slow.Pull(nil); len(again) != 0 {
		t.Fatalf("second pull returned %d blocks", len(again))
	}
	if len(c.blocks) != 0 {
		t.Fatalf("%d blocks held after the stalled reader caught up", len(c.blocks))
	}

	// Every reader stalled: the chain keeps all they have not read until
	// the last of them pulls.
	const idle = 50
	for i := 0; i < idle; i++ {
		c.ProduceBlock()
	}
	if len(c.blocks) != idle {
		t.Fatalf("%d blocks held for two stalled readers, want %d", len(c.blocks), idle)
	}
	if n := len(fast.Pull(nil)); n != idle || len(c.blocks) != idle {
		t.Fatalf("first reader pulled %d, chain holds %d; want %d and %d", n, len(c.blocks), idle, idle)
	}
	if n := len(slow.Pull(nil)); n != idle || len(c.blocks) != 0 {
		t.Fatalf("second reader pulled %d, chain holds %d; want %d and 0", n, len(c.blocks), idle)
	}
}

// TestReadersConcurrent: readers pulling on their own goroutines while
// another produces blocks each read every block once, in slot order.
func TestReadersConcurrent(t *testing.T) {
	c, _, _, _ := newTestChain(t)
	const blocks, readers = 2_000, 3
	var got [readers][]Slot
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := range got {
		r := c.NewReader()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					for _, b := range r.Pull(nil) {
						got[i] = append(got[i], b.Slot)
					}
					return
				default:
				}
				for _, b := range r.Pull(nil) {
					got[i] = append(got[i], b.Slot)
				}
			}
		}(i)
	}
	for i := 0; i < blocks; i++ {
		c.ProduceBlock()
	}
	close(done)
	wg.Wait()
	for i, slots := range got {
		if len(slots) != blocks {
			t.Fatalf("reader %d pulled %d blocks, want %d", i, len(slots), blocks)
		}
		for j, s := range slots {
			if s != Slot(j+1) {
				t.Fatalf("reader %d: block %d is slot %d, want %d", i, j, s, j+1)
			}
		}
	}
	if c.HeldBlocks() != 0 {
		t.Fatalf("%d blocks held once every reader pulled", c.HeldBlocks())
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
	if h.used != 120 {
		t.Fatalf("heap used = %d", h.used)
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
	if _, err := c.CreateStateAccount(payer, prog.account, 64, &counterState{}); err != nil {
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
