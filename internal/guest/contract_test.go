package guest

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"

	"repro/internal/cryptoutil"
	"repro/internal/guestblock"
	"repro/internal/host"
	"repro/internal/ibc"
)

// env is a contract test environment: a host chain on a manual clock, a
// deployed contract with a small validator set, and helpers to drive
// slots.
type env struct {
	t        *testing.T
	clock    *host.ManualClock
	chain    *host.Chain
	contract *Contract
	keys     []*cryptoutil.PrivKey
	payer    cryptoutil.PubKey
}

func newEnv(t *testing.T, validators int) *env {
	t.Helper()
	clock := host.NewManualClock(time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC))
	chain := host.NewChain(clock)
	payer := cryptoutil.GenerateKey("env-payer").Public()
	chain.Fund(payer, 1_000_000*host.LamportsPerSOL)

	e := &env{t: t, clock: clock, chain: chain, payer: payer}
	var genesis []guestblock.Validator
	for i := 0; i < validators; i++ {
		k := cryptoutil.GenerateKeyIndexed("env-val", i)
		e.keys = append(e.keys, k)
		chain.Fund(k.Public(), 2_000*host.LamportsPerSOL)
		genesis = append(genesis, guestblock.Validator{PubKey: k.Public(), Stake: uint64(100 * host.LamportsPerSOL)})
	}
	params := DefaultParams()
	params.Delta = time.Hour
	params.EpochLength = 1000
	contract, _, err := Deploy(chain, Config{Params: params, Payer: payer, GenesisValidators: genesis})
	if err != nil {
		t.Fatal(err)
	}
	e.contract = contract
	return e
}

// step advances one slot and produces a block, returning it.
func (e *env) step() *host.Block {
	e.clock.Advance(host.SlotDuration)
	return e.chain.ProduceBlock()
}

// submit submits a tx and produces a block; fails the test on exec error.
func (e *env) submit(tx *host.Transaction) *host.Block {
	e.t.Helper()
	if err := e.chain.Submit(tx); err != nil {
		e.t.Fatal(err)
	}
	b := e.step()
	for _, r := range b.Results {
		if r.Err != nil {
			e.t.Fatalf("tx %q failed: %v", r.Label, r.Err)
		}
	}
	return b
}

// submitExpectErr submits and returns the execution error.
func (e *env) submitExpectErr(tx *host.Transaction) error {
	e.t.Helper()
	if err := e.chain.Submit(tx); err != nil {
		return err
	}
	b := e.step()
	for _, r := range b.Results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

func (e *env) state() *State {
	e.t.Helper()
	st, err := e.contract.State(e.chain)
	if err != nil {
		e.t.Fatal(err)
	}
	return st
}

// finaliseHead has all validators sign the current head.
func (e *env) finaliseHead() {
	e.t.Helper()
	st := e.state()
	head := st.Head()
	for _, k := range e.keys {
		if head.Finalised {
			return
		}
		if !head.Epoch.Has(k.Public()) {
			continue
		}
		builder := NewTxBuilder(e.contract, k.Public())
		e.submit(builder.SignTx(k, head.Block))
	}
	if !e.state().Head().Finalised {
		e.t.Fatal("head not finalised after all signatures")
	}
}

// dirtyState writes a value so GenerateBlock has something to commit.
func (e *env) dirtyState(tag string) {
	e.t.Helper()
	st := e.state()
	if err := st.Store.Set("test/"+tag, []byte(tag)); err != nil {
		e.t.Fatal(err)
	}
}

func TestDeployCreatesGenesis(t *testing.T) {
	e := newEnv(t, 4)
	st := e.state()
	if st.Height() != 1 || !st.Head().Finalised {
		t.Fatalf("genesis: height=%d finalised=%v", st.Height(), st.Head().Finalised)
	}
	if st.CurrentEpoch.Index != 0 || len(st.CurrentEpoch.Validators) != 4 {
		t.Fatalf("epoch: %+v", st.CurrentEpoch)
	}
	// Genesis stakes escrowed into the contract account.
	if bal := e.chain.Balance(e.contract.StateKey()); bal < 400*host.LamportsPerSOL {
		t.Fatalf("contract balance %d missing escrowed stakes", bal)
	}
}

func TestGenerateBlockConditions(t *testing.T) {
	e := newEnv(t, 4)
	crank := NewTxBuilder(e.contract, e.payer)

	// Nothing changed, head fresh: GenerateBlock must fail.
	if err := e.submitExpectErr(crank.GenerateBlockTx()); !errors.Is(err, ErrNothingToCommit) {
		t.Fatalf("err = %v, want ErrNothingToCommit", err)
	}
	// Root changed: block is due.
	e.dirtyState("a")
	e.submit(crank.GenerateBlockTx())
	st := e.state()
	if st.Height() != 2 {
		t.Fatalf("height = %d, want 2", st.Height())
	}
	// Head unfinalised: next block refused.
	e.dirtyState("b")
	if err := e.submitExpectErr(crank.GenerateBlockTx()); !errors.Is(err, ErrHeadNotFinalised) {
		t.Fatalf("err = %v, want ErrHeadNotFinalised", err)
	}
	e.finaliseHead()
	e.submit(crank.GenerateBlockTx())
	if e.state().Height() != 3 {
		t.Fatal("block not generated after finalisation")
	}
}

func TestDeltaForcesEmptyBlock(t *testing.T) {
	e := newEnv(t, 4)
	crank := NewTxBuilder(e.contract, e.payer)
	e.dirtyState("x")
	e.submit(crank.GenerateBlockTx())
	e.finaliseHead()

	// No state change, but Δ elapses: an empty block is allowed.
	if err := e.submitExpectErr(crank.GenerateBlockTx()); !errors.Is(err, ErrNothingToCommit) {
		t.Fatalf("err = %v, want ErrNothingToCommit", err)
	}
	e.clock.Advance(time.Hour + time.Minute)
	e.submit(crank.GenerateBlockTx())
	st := e.state()
	if st.Height() != 3 {
		t.Fatalf("height = %d, want 3 (empty Δ block)", st.Height())
	}
	head := st.Head()
	prev, _ := st.Entry(2)
	if head.Block.StateRoot != prev.Block.StateRoot {
		t.Fatal("Δ block should carry the same root")
	}
}

func TestSignChecksAndQuorum(t *testing.T) {
	e := newEnv(t, 4) // equal stakes: quorum needs 3 of 4
	crank := NewTxBuilder(e.contract, e.payer)
	e.dirtyState("s")
	e.submit(crank.GenerateBlockTx())
	st := e.state()
	head := st.Head()

	// Outsider signature rejected.
	outsider := cryptoutil.GenerateKey("outsider")
	e.chain.Fund(outsider.Public(), host.LamportsPerSOL)
	ob := NewTxBuilder(e.contract, outsider.Public())
	if err := e.submitExpectErr(ob.SignTx(outsider, head.Block)); !errors.Is(err, ErrNotValidator) {
		t.Fatalf("err = %v, want ErrNotValidator", err)
	}

	// A Sign claim without runtime verification is rejected.
	b0 := NewTxBuilder(e.contract, e.keys[0].Public())
	forged := b0.SignTx(e.keys[0], head.Block)
	forged.PrecompileSigs = nil
	if err := e.submitExpectErr(forged); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}

	// Two signatures: no quorum yet.
	for i := 0; i < 2; i++ {
		bi := NewTxBuilder(e.contract, e.keys[i].Public())
		e.submit(bi.SignTx(e.keys[i], head.Block))
	}
	if e.state().Head().Finalised {
		t.Fatal("finalised below quorum")
	}
	// Duplicate rejected.
	bi := NewTxBuilder(e.contract, e.keys[0].Public())
	if err := e.submitExpectErr(bi.SignTx(e.keys[0], head.Block)); !errors.Is(err, ErrAlreadySigned) {
		t.Fatalf("err = %v, want ErrAlreadySigned", err)
	}
	// Third signature finalises; the FinalisedBlock event fires.
	b2 := NewTxBuilder(e.contract, e.keys[2].Public())
	blk := e.submit(b2.SignTx(e.keys[2], head.Block))
	if !e.state().Head().Finalised {
		t.Fatal("not finalised at quorum")
	}
	if len(blk.EventsOfKind("FinalisedBlock")) != 1 {
		t.Fatal("FinalisedBlock event missing")
	}
}

func TestStakeUnstakeWithdraw(t *testing.T) {
	e := newEnv(t, 2)
	newcomer := cryptoutil.GenerateKey("newcomer")
	owner := cryptoutil.GenerateKey("owner").Public()
	e.chain.Fund(owner, 1_000*host.LamportsPerSOL)
	builder := NewTxBuilder(e.contract, owner)

	// Below minimum rejected.
	if err := e.submitExpectErr(builder.StakeTx(newcomer.Public(), 10)); !errors.Is(err, ErrStakeTooSmall) {
		t.Fatalf("err = %v, want ErrStakeTooSmall", err)
	}
	stake := 500 * host.LamportsPerSOL
	e.submit(builder.StakeTx(newcomer.Public(), stake))
	st := e.state()
	if st.Candidates[newcomer.Public()] == nil || st.Candidates[newcomer.Public()].Stake != stake {
		t.Fatal("stake not recorded")
	}
	ownerBal := e.chain.Balance(owner)

	// Unstake by a non-owner rejected.
	stranger := cryptoutil.GenerateKey("stranger").Public()
	e.chain.Fund(stranger, host.LamportsPerSOL)
	sb := NewTxBuilder(e.contract, stranger)
	if err := e.submitExpectErr(sb.UnstakeTx(newcomer.Public())); err == nil {
		t.Fatal("stranger unstaked someone else's validator")
	}

	// Owner unstakes; withdrawal matures after the unbonding period.
	e.submit(builder.UnstakeTx(newcomer.Public()))
	if err := e.submitExpectErr(builder.WithdrawTx()); !errors.Is(err, ErrNothingToWithdraw) {
		t.Fatalf("err = %v, want ErrNothingToWithdraw (unbonding)", err)
	}
	e.clock.Advance(st.Params.UnbondingPeriod + time.Minute)
	e.submit(builder.WithdrawTx())
	gained := e.chain.Balance(owner) - ownerBal
	// The stake came back minus the few tx fees paid meanwhile.
	if gained < stake-host.Lamports(100_000) {
		t.Fatalf("withdrawal returned %d, want ~%d", gained, stake)
	}
}

func TestEpochRotationSelectsTopStake(t *testing.T) {
	e := newEnv(t, 3)
	st := e.state()
	st.Params.MaxValidators = 3 // cap the set

	// A richer candidate stakes in.
	whale := cryptoutil.GenerateKey("whale")
	owner := cryptoutil.GenerateKey("whale-owner").Public()
	e.chain.Fund(owner, 10_000*host.LamportsPerSOL)
	wb := NewTxBuilder(e.contract, owner)
	e.submit(wb.StakeTx(whale.Public(), 5_000*host.LamportsPerSOL))

	// Roll past the epoch length (1000 slots) and rotate.
	crank := NewTxBuilder(e.contract, e.payer)
	e.clock.Advance(1001 * host.SlotDuration)
	e.dirtyState("rot")
	e.submit(crank.GenerateBlockTx())
	st = e.state()
	head := st.Head()
	if head.Block.NextEpoch == nil {
		t.Fatal("rotation block has no next epoch")
	}
	next := head.Block.NextEpoch
	if next.Index != 1 || !next.Has(whale.Public()) {
		t.Fatalf("next epoch: %+v", next)
	}
	if len(next.Validators) != 3 {
		t.Fatalf("next epoch size = %d, want capped 3", len(next.Validators))
	}
	// The weakest genesis validator fell out (equal stakes: two of three
	// genesis validators remain).
	if st.CurrentEpoch.Index != 1 {
		t.Fatal("contract did not advance the epoch")
	}
	// The rotation block is finalised by the OLD epoch.
	if head.Epoch.Index != 0 {
		t.Fatal("rotation block must be signed by the old epoch")
	}
}

func TestSendPacketCollectsFees(t *testing.T) {
	e := newEnv(t, 2)
	// Open a channel directly for the test (handshake is covered in the
	// relayer tests).
	st := e.state()
	st.BeginDirect(e.clock.Now(), uint64(e.chain.Slot()))
	mod := &nopModule{}
	if err := st.Handler.BindPort("transfer", mod); err != nil {
		t.Fatal(err)
	}
	openTestChannel(t, st, "transfer")

	sender := cryptoutil.GenerateKey("sender").Public()
	e.chain.Fund(sender, host.LamportsPerSOL)
	builder := NewTxBuilder(e.contract, sender)
	before := e.chain.Balance(sender)
	e.submit(builder.SendPacketTx(&SendPacketArgs{
		Sender:  sender,
		Port:    "transfer",
		Channel: "channel-0",
		Data:    []byte("payload"),
	}))
	st = e.state()
	if len(st.PendingPackets) != 1 {
		t.Fatalf("pending packets = %d", len(st.PendingPackets))
	}
	spent := before - e.chain.Balance(sender)
	if spent < st.Params.PacketFee {
		t.Fatalf("sender spent %d, fee is %d", spent, st.Params.PacketFee)
	}
	// The packet rides the next generated block.
	crank := NewTxBuilder(e.contract, e.payer)
	e.submit(crank.GenerateBlockTx())
	st = e.state()
	if len(st.Head().Packets) != 1 || len(st.PendingPackets) != 0 {
		t.Fatal("packet did not ride the new block")
	}
}

func TestChunkedUploadRoundTrip(t *testing.T) {
	e := newEnv(t, 2)
	relayerKey := cryptoutil.GenerateKey("chunker").Public()
	e.chain.Fund(relayerKey, 10*host.LamportsPerSOL)
	builder := NewTxBuilder(e.contract, relayerKey)

	// Stage a payload far beyond one transaction.
	payload := make([]byte, 5_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Use the recv flow against a missing buffer first.
	bad := NewTxBuilder(e.contract, relayerKey)
	if err := e.submitExpectErr(bad.tx("bad-commit", EncodeCommit(OpCommitRecvPacket, &CommitArgs{BufferID: 77}))); !errors.Is(err, ErrUnknownBuffer) {
		t.Fatalf("err = %v, want ErrUnknownBuffer", err)
	}

	txs := builder.ChunkedUpload(OpCommitRecvPacket, "", payload, nil, "test-upload")
	if len(txs) < 5 {
		t.Fatalf("5KB upload took %d txs, want >= 5", len(txs))
	}
	for _, tx := range txs[:len(txs)-1] {
		if tx.Size() > host.MaxTransactionSize {
			t.Fatalf("chunk tx %d bytes exceeds the limit", tx.Size())
		}
		e.submit(tx)
	}
	// The staged buffer holds the payload; the commit decodes it (it is
	// not a valid RecvPayload, so the commit fails with a decode error —
	// which proves the bytes arrived reassembled).
	err := e.submitExpectErr(txs[len(txs)-1])
	if err == nil || errors.Is(err, ErrUnknownBuffer) {
		t.Fatalf("commit err = %v, want decode failure of reassembled payload", err)
	}
}

// TestRefusedChunkStagesNothing: the host keeps a failed transaction's
// contract state, so a chunk refused for a claim the precompile did not
// verify must not have staged its bytes first — resubmitted, it would stage
// them twice.
func TestRefusedChunkStagesNothing(t *testing.T) {
	e := newEnv(t, 2)
	key := cryptoutil.GenerateKey("chunker")
	e.chain.Fund(key.Public(), 10*host.LamportsPerSOL)
	builder := NewTxBuilder(e.contract, key.Public())
	staged := stagingKey{owner: key.Public(), id: 7}
	chunk := func(data string, verified bool) *host.Transaction {
		msg := []byte("vote over " + data)
		tx := builder.tx("test/chunk", EncodeChunk(&ChunkArgs{
			BufferID: staged.id, Data: []byte(data), SigClaims: []SigClaim{{Pub: key.Public(), Payload: msg}},
		}))
		if verified {
			tx.PrecompileSigs = []host.SigVerify{{Pub: key.Public(), Msg: msg, Sig: key.Sign(msg)}}
		}
		return tx
	}

	if err := e.submitExpectErr(chunk("first", false)); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
	if buf, ok := e.state().staging[staged]; ok {
		t.Fatalf("a refused chunk created its buffer: %d bytes, %d txs", len(buf.Data), buf.Txs)
	}

	e.submit(chunk("first", true))
	if err := e.submitExpectErr(chunk("second", false)); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
	buf := e.state().staging[staged]
	if string(buf.Data) != "first" || buf.Txs != 1 || len(buf.VerifiedSigs) != 1 {
		t.Fatalf("a refused chunk changed its buffer: data %q, %d txs, %d verified claims", buf.Data, buf.Txs, len(buf.VerifiedSigs))
	}
	e.submit(chunk("second", true))
	if buf := e.state().staging[staged]; string(buf.Data) != "firstsecond" || buf.Txs != 2 || len(buf.VerifiedSigs) != 2 {
		t.Fatalf("resubmitted with its claim verified: data %q, %d txs, %d verified claims", buf.Data, buf.Txs, len(buf.VerifiedSigs))
	}
}

// TestUpdateClientRefusesOtherClientType: the guest's client of its peer is
// a Tendermint client, whose update the contract applies against the
// runtime-verified signatures. A commit naming another client type is
// refused rather than handed to that client's own Update.
func TestUpdateClientRefusesOtherClientType(t *testing.T) {
	e := newEnv(t, 2)
	if err := e.state().Handler.CreateClient("test-client", &permissiveClient{}); err != nil {
		t.Fatal(err)
	}
	key := cryptoutil.GenerateKey("other-client-relayer")
	e.chain.Fund(key.Public(), 10*host.LamportsPerSOL)
	txs := NewTxBuilder(e.contract, key.Public()).UpdateClientTxs("test-client", []byte("a header"), nil)
	for _, tx := range txs[:len(txs)-1] {
		e.submit(tx)
	}
	err := e.submitExpectErr(txs[len(txs)-1])
	if err == nil || !strings.Contains(err.Error(), "not a tendermint client") {
		t.Fatalf("err = %v, want the client type refused", err)
	}
}

func TestMisbehaviourSlashing(t *testing.T) {
	e := newEnv(t, 4)
	crank := NewTxBuilder(e.contract, e.payer)
	e.dirtyState("m")
	e.submit(crank.GenerateBlockTx())
	e.finaliseHead()

	fisher := cryptoutil.GenerateKey("fisher").Public()
	e.chain.Fund(fisher, host.LamportsPerSOL)
	fb := NewTxBuilder(e.contract, fisher)
	offender := e.keys[3]

	// Wrong-fork evidence: signature over a non-canonical block hash at
	// an existing height.
	forged := cryptoutil.HashBytes([]byte("forged block"))
	ev := &Evidence{
		Kind:      EvidenceWrongFork,
		Validator: offender.Public(),
		Height:    2,
		BlockA:    forged,
		SigA:      offender.SignHash(guestblock.SigningPayloadForHash(forged)),
	}
	fisherBefore := e.chain.Balance(fisher)
	e.submit(fb.MisbehaviourTx(ev))
	st := e.state()
	if !st.Slashed[offender.Public()] {
		t.Fatal("offender not slashed")
	}
	if st.Candidates[offender.Public()] != nil {
		t.Fatal("offender still a candidate")
	}
	if e.chain.Balance(fisher) <= fisherBefore {
		t.Fatal("fisherman not rewarded")
	}
	if st.SlashedPot == 0 {
		t.Fatal("no slashed stake retained")
	}

	// Slashed validator's signatures are rejected.
	e.dirtyState("m2")
	e.submit(crank.GenerateBlockTx())
	head := e.state().Head()
	ob := NewTxBuilder(e.contract, offender.Public())
	if err := e.submitExpectErr(ob.SignTx(offender, head.Block)); !errors.Is(err, ErrSlashedValidator) {
		t.Fatalf("err = %v, want ErrSlashedValidator", err)
	}

	// Repeated evidence for the same validator is rejected.
	if err := e.submitExpectErr(fb.MisbehaviourTx(ev)); !errors.Is(err, ErrSlashedValidator) {
		t.Fatalf("err = %v, want ErrSlashedValidator", err)
	}
}

func TestMisbehaviourRejectsCanonicalSignature(t *testing.T) {
	e := newEnv(t, 4)
	crank := NewTxBuilder(e.contract, e.payer)
	e.dirtyState("c")
	e.submit(crank.GenerateBlockTx())
	e.finaliseHead()

	st := e.state()
	entry, err := st.Entry(2)
	if err != nil {
		t.Fatal(err)
	}
	honest := e.keys[0]
	canonical := entry.Block.Hash()
	ev := &Evidence{
		Kind:      EvidenceWrongFork,
		Validator: honest.Public(),
		Height:    2,
		BlockA:    canonical,
		SigA:      honest.SignHash(guestblock.SigningPayloadForHash(canonical)),
	}
	fisher := cryptoutil.GenerateKey("fisher2").Public()
	e.chain.Fund(fisher, host.LamportsPerSOL)
	fb := NewTxBuilder(e.contract, fisher)
	if err := e.submitExpectErr(fb.MisbehaviourTx(ev)); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("err = %v, want ErrBadEvidence (canonical signature is honest)", err)
	}
	if e.state().Slashed[honest.Public()] {
		t.Fatal("honest validator slashed")
	}
}

func TestMisbehaviourFutureHeight(t *testing.T) {
	e := newEnv(t, 4)
	offender := e.keys[1]
	forged := cryptoutil.HashBytes([]byte("future"))
	ev := &Evidence{
		Kind:      EvidenceFutureHeight,
		Validator: offender.Public(),
		Height:    999,
		BlockA:    forged,
		SigA:      offender.SignHash(guestblock.SigningPayloadForHash(forged)),
	}
	fisher := cryptoutil.GenerateKey("fisher3").Public()
	e.chain.Fund(fisher, host.LamportsPerSOL)
	fb := NewTxBuilder(e.contract, fisher)
	e.submit(fb.MisbehaviourTx(ev))
	if !e.state().Slashed[offender.Public()] {
		t.Fatal("future-height offender not slashed")
	}
	// Evidence claiming a PAST height under this kind is invalid.
	ev2 := &Evidence{
		Kind:      EvidenceFutureHeight,
		Validator: e.keys[2].Public(),
		Height:    1,
		BlockA:    forged,
		SigA:      e.keys[2].SignHash(guestblock.SigningPayloadForHash(forged)),
	}
	if err := e.submitExpectErr(fb.MisbehaviourTx(ev2)); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("err = %v, want ErrBadEvidence", err)
	}
}

func TestValidateSelfClient(t *testing.T) {
	e := newEnv(t, 3)
	st := e.state()
	// A correct client state for height 1 / epoch 0 passes.
	good := buildGuestClientState(t, st, 1, st.CurrentEpoch.Commitment())
	if err := st.ValidateSelfClient(good); err != nil {
		t.Fatal(err)
	}
	// Future height fails.
	ahead := buildGuestClientState(t, st, 99, st.CurrentEpoch.Commitment())
	if err := st.ValidateSelfClient(ahead); err == nil {
		t.Fatal("client ahead of chain accepted")
	}
	// Unknown epoch fails.
	bad := buildGuestClientState(t, st, 1, cryptoutil.HashBytes([]byte("fake epoch")))
	if err := st.ValidateSelfClient(bad); err == nil {
		t.Fatal("unknown validator set accepted")
	}
}

// nopModule acks everything.
type nopModule struct{}

func (nopModule) OnChanOpen(ibc.PortID, ibc.ChannelID, string) error { return nil }
func (nopModule) OnRecvPacket(ibc.Packet) ([]byte, error)            { return []byte("ok"), nil }
func (nopModule) OnAcknowledgementPacket(ibc.Packet, []byte) error   { return nil }
func (nopModule) OnTimeoutPacket(ibc.Packet) error                   { return nil }

// openTestChannel force-opens a channel end for unit tests that do not
// exercise the handshake.
func openTestChannel(t *testing.T, st *State, port ibc.PortID) {
	t.Helper()
	// A minimal always-valid client for the fake counterparty.
	if err := st.Handler.CreateClient("test-client", &permissiveClient{}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Handler.ConnOpenInit("test-client", "their-client"); err != nil {
		t.Fatal(err)
	}
	if err := forceOpen(st, port); err != nil {
		t.Fatal(err)
	}
}

type permissiveClient struct{}

func (permissiveClient) LatestHeight() ibc.Height       { return 1 }
func (permissiveClient) Frozen() bool                   { return false }
func (permissiveClient) StateBytes() []byte             { return []byte("permissive") }
func (permissiveClient) Update([]byte, time.Time) error { return nil }
func (permissiveClient) VerifyMembership(ibc.Height, string, []byte, []byte) error {
	return nil
}
func (permissiveClient) VerifyNonMembership(ibc.Height, string, []byte) error { return nil }
func (permissiveClient) ConsensusTime(ibc.Height) (time.Time, error) {
	// Far future, so timestamp-based timeouts are provable in tests.
	return time.Unix(1<<40, 0), nil
}

// buildGuestClientState encodes a guestlc client state for ValidateSelfClient
// tests (mirrors guestlc.Client.StateBytes).
func buildGuestClientState(t *testing.T, st *State, latest uint64, commitment cryptoutil.Hash) []byte {
	t.Helper()
	w := wire.NewWriter()
	w.String16("guest-blockchain")
	w.U64(latest)
	w.U64(st.CurrentEpoch.Index)
	w.Hash(commitment)
	return w.Bytes()
}

// forceOpen walks the connection and channel ends to OPEN through the
// permissive client.
func forceOpen(st *State, port ibc.PortID) error {
	w := wire.NewWriter()
	w.String16("guest-blockchain")
	w.U64(1)
	w.U64(st.CurrentEpoch.Index)
	commitment := st.CurrentEpoch.Commitment()
	w.Hash(commitment)
	selfClient := w.Bytes()
	if err := st.Handler.ConnOpenAck("connection-0", "connection-9", selfClient, nil, 1); err != nil {
		return err
	}
	chanID, err := st.Handler.ChanOpenInit(port, "connection-0", port, ibc.Unordered, "")
	if err != nil {
		return err
	}
	return st.Handler.ChanOpenAck(port, chanID, "channel-9", nil, 1)
}

func TestEmergencyRelease(t *testing.T) {
	e := newEnv(t, 3)
	anyone := cryptoutil.GenerateKey("anyone").Public()
	e.chain.Fund(anyone, host.LamportsPerSOL)
	builder := NewTxBuilder(e.contract, anyone)

	// Too early: the chain is alive.
	if err := e.submitExpectErr(builder.EmergencyReleaseTx()); !errors.Is(err, ErrNotDead) {
		t.Fatalf("err = %v, want ErrNotDead", err)
	}

	// Kill the chain: a block is generated but never finalised, and the
	// emergency timeout passes.
	e.dirtyState("death")
	crank := NewTxBuilder(e.contract, e.payer)
	e.submit(crank.GenerateBlockTx())
	st := e.state()
	e.clock.Advance(st.Params.EmergencyTimeout + time.Hour)

	ownerBalances := make([]host.Lamports, len(e.keys))
	for i, k := range e.keys {
		ownerBalances[i] = e.chain.Balance(k.Public())
	}
	e.submit(builder.EmergencyReleaseTx())
	st = e.state()
	if !st.Halted {
		t.Fatal("contract not halted")
	}
	if len(st.Candidates) != 0 {
		t.Fatal("candidates not cleared")
	}
	for i, k := range e.keys {
		gained := e.chain.Balance(k.Public()) - ownerBalances[i]
		if gained < 100*host.LamportsPerSOL {
			t.Fatalf("validator %d got %d back, want its 100 SOL stake", i, gained)
		}
	}
	// All further operations are refused.
	if err := e.submitExpectErr(crank.GenerateBlockTx()); !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	if err := e.submitExpectErr(builder.EmergencyReleaseTx()); !errors.Is(err, ErrHalted) {
		t.Fatalf("second release = %v, want ErrHalted", err)
	}
}

func TestEmergencyReleaseDisabled(t *testing.T) {
	e := newEnv(t, 2)
	st := e.state()
	st.Params.EmergencyTimeout = 0
	e.clock.Advance(365 * 24 * time.Hour)
	anyone := cryptoutil.GenerateKey("anyone2").Public()
	e.chain.Fund(anyone, host.LamportsPerSOL)
	builder := NewTxBuilder(e.contract, anyone)
	if err := e.submitExpectErr(builder.EmergencyReleaseTx()); !errors.Is(err, ErrNotDead) {
		t.Fatalf("err = %v, want ErrNotDead (disabled)", err)
	}
}

func TestMisbehaviourDoubleSign(t *testing.T) {
	e := newEnv(t, 4)
	offender := e.keys[2]
	hashA := cryptoutil.HashBytes([]byte("candidate A"))
	hashB := cryptoutil.HashBytes([]byte("candidate B"))
	ev := &Evidence{
		Kind:      EvidenceDoubleSign,
		Validator: offender.Public(),
		Height:    7, // height not on chain yet: the pair itself is the offence
		BlockA:    hashA,
		SigA:      offender.SignHash(guestblock.SigningPayloadForHash(hashA)),
		BlockB:    hashB,
		SigB:      offender.SignHash(guestblock.SigningPayloadForHash(hashB)),
	}
	fisher := cryptoutil.GenerateKey("ds-fisher").Public()
	e.chain.Fund(fisher, host.LamportsPerSOL)
	fb := NewTxBuilder(e.contract, fisher)
	e.submit(fb.MisbehaviourTx(ev))
	if !e.state().Slashed[offender.Public()] {
		t.Fatal("double-signer not slashed")
	}

	// Identical hashes are not double-signing.
	honest := e.keys[1]
	same := &Evidence{
		Kind:      EvidenceDoubleSign,
		Validator: honest.Public(),
		Height:    7,
		BlockA:    hashA,
		SigA:      honest.SignHash(guestblock.SigningPayloadForHash(hashA)),
		BlockB:    hashA,
		SigB:      honest.SignHash(guestblock.SigningPayloadForHash(hashA)),
	}
	if err := e.submitExpectErr(fb.MisbehaviourTx(same)); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("identical-hash evidence = %v, want ErrBadEvidence", err)
	}
}

func TestCommitAckAndTimeoutThroughInstructions(t *testing.T) {
	e := newEnv(t, 2)
	st := e.state()
	st.BeginDirect(e.clock.Now(), uint64(e.chain.Slot()))
	mod := &recordingModule{}
	if err := st.Handler.BindPort("transfer", mod); err != nil {
		t.Fatal(err)
	}
	openTestChannel(t, st, "transfer")

	sender := cryptoutil.GenerateKey("cat-sender").Public()
	e.chain.Fund(sender, host.LamportsPerSOL)
	sb := NewTxBuilder(e.contract, sender)
	// Send two packets: one will be acked, one timed out.
	e.submit(sb.SendPacketTx(&SendPacketArgs{
		Sender: sender, Port: "transfer", Channel: "channel-0", Data: []byte("to-ack"),
	}))
	e.submit(sb.SendPacketTx(&SendPacketArgs{
		Sender: sender, Port: "transfer", Channel: "channel-0", Data: []byte("to-timeout"),
		TimeoutTimestamp: e.clock.Now().Add(time.Minute),
	}))
	st = e.state()
	pktAck := st.PendingPackets[0]
	pktTimeout := st.PendingPackets[1]

	relayerKey := cryptoutil.GenerateKey("cat-relayer").Public()
	e.chain.Fund(relayerKey, 10*host.LamportsPerSOL)
	rb := NewTxBuilder(e.contract, relayerKey)

	// Ack the first packet (permissive client accepts any proof bytes).
	for _, tx := range rb.AckPacketTxs(&AckPayload{
		Packet: pktAck, Ack: []byte(`{"result":"ok"}`), ProofHeight: 1, Proof: []byte{1},
	}) {
		e.submit(tx)
	}
	if len(mod.acks) != 1 {
		t.Fatalf("acks = %d", len(mod.acks))
	}
	st = e.state()
	if st.Handler.HasCommitment(pktAck) {
		t.Fatal("ack did not clear the commitment")
	}

	// Timeout the second packet: the permissive client reports a distant
	// consensus time, so the timestamp deadline is provably past.
	e.clock.Advance(2 * time.Minute)
	for _, tx := range rb.TimeoutPacketTxs(&TimeoutPayload{
		Packet: pktTimeout, ProofHeight: 1, Proof: []byte{1},
	}) {
		e.submit(tx)
	}
	if len(mod.timeouts) != 1 {
		t.Fatalf("timeouts = %d", len(mod.timeouts))
	}
	st = e.state()
	if st.Handler.HasCommitment(pktTimeout) {
		t.Fatal("timeout did not clear the commitment")
	}
}

// recordingModule records application callbacks.
type recordingModule struct {
	recvd    []ibc.Packet
	acks     [][]byte
	timeouts []ibc.Packet
}

func (m *recordingModule) OnChanOpen(ibc.PortID, ibc.ChannelID, string) error { return nil }
func (m *recordingModule) OnRecvPacket(p ibc.Packet) ([]byte, error) {
	m.recvd = append(m.recvd, p)
	return []byte("ok"), nil
}
func (m *recordingModule) OnAcknowledgementPacket(p ibc.Packet, ack []byte) error {
	m.acks = append(m.acks, ack)
	return nil
}
func (m *recordingModule) OnTimeoutPacket(p ibc.Packet) error {
	m.timeouts = append(m.timeouts, p)
	return nil
}
