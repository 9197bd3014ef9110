package host

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// precompileProbe checks PrecompileVerified inside execution.
type precompileProbe struct {
	id  ProgramID
	pub cryptoutil.PubKey
	msg []byte
	// sawVerified records what the program observed.
	sawVerified bool
}

func (p *precompileProbe) ID() ProgramID { return p.id }
func (p *precompileProbe) Execute(ctx *ExecContext, _ Instruction) error {
	p.sawVerified = ctx.PrecompileVerified(p.pub, p.msg)
	return nil
}

func TestPrecompileVerifiedVisibleToProgram(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	c := NewChain(clock)
	payer := cryptoutil.GenerateKey("pp-payer").Public()
	c.Fund(payer, LamportsPerSOL)

	key := cryptoutil.GenerateKey("pp-signer")
	msg := []byte("attest this")
	probe := &precompileProbe{id: cryptoutil.GenerateKey("pp-prog").Public(), pub: key.Public(), msg: msg}
	c.RegisterProgram(probe)

	tx := &Transaction{
		FeePayer:       payer,
		Instructions:   []Instruction{{Program: probe.id}},
		PrecompileSigs: []SigVerify{{Pub: key.Public(), Msg: msg, Sig: key.Sign(msg)}},
	}
	if err := c.Submit(tx); err != nil {
		t.Fatal(err)
	}
	b := c.ProduceBlock()
	if b.Results[0].Err != nil {
		t.Fatal(b.Results[0].Err)
	}
	if !probe.sawVerified {
		t.Fatal("program did not see the precompile verification")
	}
	// Per-signature fee charged: 1 payer + 1 precompile.
	if fee := LamportsPerSOL - c.Balance(payer); fee != 2*BaseFeePerSignature {
		t.Fatalf("fee = %d, want %d", fee, 2*BaseFeePerSignature)
	}
}

func TestPrecompileInvalidSignatureFailsTx(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	c := NewChain(clock)
	payer := cryptoutil.GenerateKey("pp-payer2").Public()
	c.Fund(payer, LamportsPerSOL)

	key := cryptoutil.GenerateKey("pp-signer2")
	probe := &precompileProbe{id: cryptoutil.GenerateKey("pp-prog2").Public(), pub: key.Public(), msg: []byte("m")}
	c.RegisterProgram(probe)

	bad := key.Sign([]byte("m"))
	bad[0] ^= 0xff
	tx := &Transaction{
		FeePayer:       payer,
		Instructions:   []Instruction{{Program: probe.id}},
		PrecompileSigs: []SigVerify{{Pub: key.Public(), Msg: []byte("m"), Sig: bad}},
	}
	if err := c.Submit(tx); err != nil {
		t.Fatal(err)
	}
	b := c.ProduceBlock()
	if b.Results[0].Err == nil {
		t.Fatal("invalid precompile signature did not fail the tx")
	}
	if probe.sawVerified {
		t.Fatal("program executed despite precompile failure")
	}
}

func TestPrecompileUnrelatedClaimNotVerified(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	c := NewChain(clock)
	payer := cryptoutil.GenerateKey("pp-payer3").Public()
	c.Fund(payer, LamportsPerSOL)

	signer := cryptoutil.GenerateKey("pp-signer3")
	otherMsg := []byte("other message")
	// The program probes for a pair that the tx did NOT verify.
	probe := &precompileProbe{id: cryptoutil.GenerateKey("pp-prog3").Public(), pub: signer.Public(), msg: otherMsg}
	c.RegisterProgram(probe)

	msg := []byte("actual message")
	tx := &Transaction{
		FeePayer:       payer,
		Instructions:   []Instruction{{Program: probe.id}},
		PrecompileSigs: []SigVerify{{Pub: signer.Public(), Msg: msg, Sig: signer.Sign(msg)}},
	}
	if err := c.Submit(tx); err != nil {
		t.Fatal(err)
	}
	b := c.ProduceBlock()
	if b.Results[0].Err != nil {
		t.Fatal(b.Results[0].Err)
	}
	if probe.sawVerified {
		t.Fatal("program saw a verification for a message that was not covered")
	}
}

func TestPrecompileCountsTowardSignatureLimit(t *testing.T) {
	key := cryptoutil.GenerateKey("pp-many")
	tx := &Transaction{
		FeePayer:     cryptoutil.GenerateKey("pp-payer4").Public(),
		Instructions: []Instruction{{Data: []byte{1}}},
	}
	for i := 0; i < MaxSignaturesPerTransaction; i++ {
		msg := []byte{byte(i)}
		tx.PrecompileSigs = append(tx.PrecompileSigs, SigVerify{Pub: key.Public(), Msg: msg, Sig: key.Sign(msg)})
	}
	if err := tx.Validate(SolanaProfile()); !errors.Is(err, ErrTooManySignatures) {
		t.Fatalf("Validate = %v, want ErrTooManySignatures", err)
	}
}

// burnProgram consumes a configurable amount of compute.
type burnProgram struct {
	id    ProgramID
	units uint64
}

func (p *burnProgram) ID() ProgramID { return p.id }
func (p *burnProgram) Execute(ctx *ExecContext, _ Instruction) error {
	return ctx.Meter.Consume(p.units)
}

func TestBlockComputeBudgetSpillsToNextSlot(t *testing.T) {
	clock := NewManualClock(time.Unix(0, 0))
	c := NewChain(clock)
	payer := cryptoutil.GenerateKey("burn-payer").Public()
	c.Fund(payer, 100*LamportsPerSOL)

	// Each tx burns ~1.3M CU; the 48M block budget fits ~37 of them.
	prog := &burnProgram{id: cryptoutil.GenerateKey("burn-prog").Public(), units: 1_300_000}
	c.RegisterProgram(prog)
	const n = 60
	for i := 0; i < n; i++ {
		tx := &Transaction{FeePayer: payer, Instructions: []Instruction{{Program: prog.id}}}
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	b1 := c.ProduceBlock()
	if len(b1.Results) >= n {
		t.Fatalf("block executed all %d heavy txs; budget not enforced", n)
	}
	if c.PendingCount() == 0 {
		t.Fatal("no spillover to the next slot")
	}
	clock.Advance(SlotDuration)
	b2 := c.ProduceBlock()
	if len(b1.Results)+len(b2.Results) != n {
		clock.Advance(SlotDuration)
		b3 := c.ProduceBlock()
		if len(b1.Results)+len(b2.Results)+len(b3.Results) != n {
			t.Fatalf("lost transactions: %d + %d + %d != %d",
				len(b1.Results), len(b2.Results), len(b3.Results), n)
		}
	}
}
