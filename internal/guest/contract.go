package guest

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/guestblock"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
	"repro/internal/nodestore"
	"repro/internal/telemetry"
	"repro/internal/trie"
	"repro/internal/wire"
)

// payloadForHash aliases the guestblock helper for local use.
func payloadForHash(h cryptoutil.Hash) cryptoutil.Hash {
	return guestblock.SigningPayloadForHash(h)
}

// Contract is the Guest Contract program deployed on the host chain. Its
// mutable state lives in a host account (State); the Contract value itself
// only routes instructions.
type Contract struct {
	programID host.ProgramID
	stateKey  cryptoutil.PubKey
}

var _ host.Program = (*Contract)(nil)

// Config parameterises deployment.
type Config struct {
	Params Params
	// Payer funds the rent-exempt state account deposit.
	Payer cryptoutil.PubKey
	// GenesisValidators bootstrap epoch 0 with their stakes (the paper's
	// deployment started with one operator validator; others staked in).
	GenesisValidators []guestblock.Validator
	// Telemetry, when set, registers the embedded IBC handler's metrics
	// (under "guest.ibc.") in the given registry.
	Telemetry *telemetry.Registry
	// NodeStore, when set, persists the provable store through the given
	// backend: commits append to its log, finalisation group-fsyncs it,
	// and a backend reopened after a crash resumes the state from the
	// last finalised root instead of re-syncing from genesis. nil keeps
	// the store purely in-heap (byte-identical legacy behaviour).
	NodeStore nodestore.Store
	// ColdRetention is how many recent heights keep their store versions
	// fully materialised on the heap when NodeStore is persistent: older
	// versions are evicted to the node store and fault their nodes back in
	// on demand, so retained history stops pinning heap. 0 disables
	// eviction; ignored without a persistent store. The store applies it
	// (ibc.Store.SetHotHeights).
	ColdRetention int
}

// Deploy registers the Guest Contract on the chain, allocates its provable
// state account (the 10 MiB deposit of §V-D), and creates the genesis
// block. It returns the contract handle and the deposit charged.
func Deploy(chain *host.Chain, cfg Config) (*Contract, host.Lamports, error) {
	if len(cfg.GenesisValidators) == 0 {
		return nil, 0, errors.New("guest: need at least one genesis validator")
	}
	epoch, err := guestblock.NewEpoch(0, cfg.GenesisValidators)
	if err != nil {
		return nil, 0, err
	}

	c := &Contract{
		programID: cryptoutil.GenerateKey("guest-contract-program").Public(),
		stateKey:  cryptoutil.GenerateKey("guest-contract-state").Public(),
	}

	store, err := ibc.NewStoreWithBackend(cfg.NodeStore, trie.WithCapacityBytes(cfg.Params.StateSize))
	if err != nil {
		return nil, 0, fmt.Errorf("guest: open provable store: %w", err)
	}
	store.SetHotHeights(cfg.ColdRetention)
	st := &State{
		Params:       cfg.Params,
		Account:      c.stateKey,
		Store:        store,
		CurrentEpoch: epoch,
		Candidates:   make(map[cryptoutil.PubKey]*Candidate),
		Slashed:      make(map[cryptoutil.PubKey]bool),
		staging:      make(map[stagingKey]*StagingBuffer),
		nowTime:      chain.Now(),
		nowSlot:      uint64(chain.Slot()),
	}
	st.Handler = ibc.NewHandler(store, st,
		ibc.WithSealedReceipts(),
		ibc.WithTelemetry(cfg.Telemetry),
		ibc.WithMetricsNamespace("guest.ibc"),
	)
	// Buffer the handler's typed events; Execute flushes them to the host
	// event log only if the instruction succeeds (atomicity).
	st.Handler.Events().Subscribe(func(ev telemetry.Event) {
		st.ibcEvents = append(st.ibcEvents, ev)
	})
	for _, v := range cfg.GenesisValidators {
		st.Candidates[v.PubKey] = &Candidate{PubKey: v.PubKey, Owner: v.PubKey, Stake: host.Lamports(v.Stake)}
	}

	genesis := &guestblock.Block{
		Height:          1,
		HostHeight:      uint64(chain.Slot()),
		Time:            chain.Now(),
		StateRoot:       store.Root(),
		EpochIndex:      epoch.Index,
		EpochCommitment: epoch.Commitment(),
	}
	st.Entries = append(st.Entries, &BlockEntry{
		Block:      genesis,
		Epoch:      epoch,
		Signatures: make(map[cryptoutil.PubKey]cryptoutil.Signature),
		Finalised:  true,
		CreatedAt:  chain.Now(),
	})
	store.CommitAt(genesis.Height)

	deposit, err := chain.CreateStateAccount(cfg.Payer, c.stateKey, c.programID, cfg.Params.StateSize, st)
	if err != nil {
		return nil, 0, fmt.Errorf("guest: allocate state account: %w", err)
	}
	// Escrow the genesis validators' stakes into the contract account so
	// slashing and withdrawals are backed by real lamports.
	for _, v := range cfg.GenesisValidators {
		if err := chain.MoveLamports(v.PubKey, c.stateKey, host.Lamports(v.Stake)); err != nil {
			return nil, 0, fmt.Errorf("guest: escrow genesis stake: %w", err)
		}
	}
	chain.RegisterProgram(c)
	return c, deposit, nil
}

// ID implements host.Program.
func (c *Contract) ID() host.ProgramID { return c.programID }

// StateKey returns the contract's state account address.
func (c *Contract) StateKey() cryptoutil.PubKey { return c.stateKey }

// State fetches the live contract state from the chain (off-chain read
// API, the RPC analogue).
func (c *Contract) State(chain *host.Chain) (*State, error) {
	raw, err := chain.StateOf(c.stateKey)
	if err != nil {
		return nil, err
	}
	st, ok := raw.(*State)
	if !ok {
		return nil, errors.New("guest: state account holds foreign state")
	}
	return st, nil
}

// BindPort registers an IBC application module on the guest blockchain's
// handler (deployment-time wiring, like program upgrades on the host).
func (c *Contract) BindPort(chain *host.Chain, port ibc.PortID, m ibc.Module) error {
	st, err := c.State(chain)
	if err != nil {
		return err
	}
	return st.Handler.BindPort(port, m)
}

// Execute implements host.Program: it dispatches one instruction.
func (c *Contract) Execute(ctx *host.ExecContext, ins host.Instruction) error {
	acc, err := ctx.Account(c.stateKey)
	if err != nil {
		return err
	}
	st, ok := acc.State.(*State)
	if !ok {
		return errors.New("guest: state account holds foreign state")
	}
	if len(ins.Data) == 0 {
		return errors.New("guest: empty instruction")
	}
	st.nowTime = ctx.Time
	st.nowSlot = uint64(ctx.Slot)
	st.ibcEvents = nil
	// Expose the live compute meter for the duration of the instruction,
	// so middleware callback budgets charge through it.
	st.execMeter = ctx.Meter
	defer func() { st.execMeter = nil }()

	op := ins.Data[0]
	if st.Halted && op != OpWithdraw {
		return ErrHalted
	}
	r := wire.NewReader(ins.Data[1:])
	switch op {
	case OpSendPacket:
		err = c.sendPacket(ctx, st, r)
	case OpGenerateBlock:
		if e := r.Done(); e != nil {
			return e
		}
		err = c.generateBlock(ctx, st)
	case OpSign:
		err = c.sign(ctx, st, r)
	case OpStake:
		err = c.stake(ctx, st, r)
	case OpUnstake:
		err = c.unstake(ctx, st, r)
	case OpWithdraw:
		if e := r.Done(); e != nil {
			return e
		}
		err = c.withdraw(ctx, st)
	case OpChunk:
		err = c.chunk(ctx, st, r)
	case OpCommitUpdateClient:
		err = c.commitUpdateClient(ctx, st, r)
	case OpCommitRecvPacket:
		err = c.commitRecvPacket(ctx, st, r)
	case OpCommitAck:
		err = c.commitAck(ctx, st, r)
	case OpCommitTimeout:
		err = c.commitTimeout(ctx, st, r)
	case OpSubmitMisbehaviour:
		err = c.submitMisbehaviour(ctx, st, r)
	case OpEmergencyRelease:
		if e := r.Done(); e != nil {
			return e
		}
		err = c.emergencyRelease(ctx, st)
	case OpCloseBuffer:
		err = c.closeBuffer(ctx, st, r)
	default:
		return fmt.Errorf("guest: unknown opcode %d", op)
	}
	if err != nil {
		return err
	}
	// Forward buffered IBC events to the host event log.
	for _, e := range st.ibcEvents {
		ctx.Emit(e)
	}
	st.ibcEvents = nil
	return nil
}

// sendPacket implements Alg. 1 SendPacket: collect fees, assign sequence,
// commit the packet.
func (c *Contract) sendPacket(ctx *host.ExecContext, st *State, r *wire.Reader) error {
	a, err := decodeSendPacket(r)
	if err != nil {
		return err
	}
	if !ctx.IsSigner(a.Sender) {
		return fmt.Errorf("guest: sender %s did not sign", a.Sender.Short())
	}
	if err := ctx.Meter.Consume(host.CUPerTrieNode * 8); err != nil {
		return err
	}
	if err := ctx.Meter.ConsumeHash(len(a.Data)); err != nil {
		return err
	}
	// collect_fees(payload)
	if err := ctx.Transfer(a.Sender, st.Account, st.Params.PacketFee); err != nil {
		return fmt.Errorf("guest: collect fees: %w", err)
	}
	st.TotalFeesCollected += st.Params.PacketFee

	// Sends thread the port's middleware stack (fees, callbacks, ...)
	// before the core handler commits the packet.
	p, err := st.Handler.AppSendPacket(a.Port, a.Channel, a.Data, a.TimeoutHeight, a.TimeoutTimestamp)
	if err != nil {
		return err
	}
	st.PendingPackets = append(st.PendingPackets, p)
	return nil
}

// PacketSender returns the guest blockchain's chain-level send entry
// point: packets sent through it thread the destination port's middleware
// stack AND join the pending list of the next guest block, so they become
// relayable exactly like application sends. Forwarding middleware uses it
// for onward hops (it must run inside an executing instruction, where the
// re-send rides the enclosing recv transaction).
func (c *Contract) PacketSender(chain *host.Chain) (*GuestPacketSender, error) {
	st, err := c.State(chain)
	if err != nil {
		return nil, err
	}
	return &GuestPacketSender{st: st}, nil
}

// GuestPacketSender implements ibc.PacketSender over the guest contract
// state (see Contract.PacketSender).
type GuestPacketSender struct {
	st *State
}

// SendPacket implements ibc.PacketSender.
func (g *GuestPacketSender) SendPacket(port ibc.PortID, ch ibc.ChannelID, data []byte, th ibc.Height, tt time.Time) (*ibc.Packet, error) {
	p, err := g.st.Handler.AppSendPacket(port, ch, data, th, tt)
	if err != nil {
		return nil, err
	}
	g.st.PendingPackets = append(g.st.PendingPackets, p)
	return p, nil
}

// generateBlock implements Alg. 1 GenerateBlock.
func (c *Contract) generateBlock(ctx *host.ExecContext, st *State) error {
	if err := ctx.Meter.Consume(host.CUPerTrieNode * 4); err != nil {
		return err
	}
	entry, err := st.generateBlockCore(ctx.Time, uint64(ctx.Slot))
	if err != nil {
		return err
	}
	ctx.Emit(EventNewBlock{Block: entry.Block})
	return nil
}

// sign implements Alg. 1 Sign: record a validator's vote; finalise on
// quorum.
func (c *Contract) sign(ctx *host.ExecContext, st *State, r *wire.Reader) error {
	a, err := decodeSign(r)
	if err != nil {
		return err
	}
	entry, err := st.Entry(a.Height)
	if err != nil {
		return err
	}
	if st.Slashed[a.PubKey] {
		return ErrSlashedValidator
	}
	if !entry.Epoch.Has(a.PubKey) {
		return fmt.Errorf("%w: %s (epoch %d)", ErrNotValidator, a.PubKey.Short(), entry.Epoch.Index)
	}
	if _, dup := entry.Signatures[a.PubKey]; dup {
		return fmt.Errorf("%w: %s at height %d", ErrAlreadySigned, a.PubKey.Short(), a.Height)
	}
	// check_signature: the heavy Ed25519 verification ran in the runtime
	// precompile (§IV workaround); the contract checks the claim.
	payload := entry.Block.SigningPayload()
	if !ctx.PrecompileVerified(a.PubKey, payload[:]) {
		return ErrBadSignature
	}
	if err := ctx.Meter.Consume(host.CUBaseInstruction); err != nil {
		return err
	}

	finalised := st.applySignature(entry, a.PubKey, a.Signature, ctx.Time)
	// With pipelining a vote can finalise a run of blocks at once (a
	// parent reaching quorum releases children that already had theirs);
	// emit one event per block, in height order.
	for _, e := range finalised {
		ctx.Emit(EventFinalisedBlock{Entry: e})
	}
	return nil
}

// stake adds candidate stake from the signing owner.
func (c *Contract) stake(ctx *host.ExecContext, st *State, r *wire.Reader) error {
	a, err := decodeStake(r)
	if err != nil {
		return err
	}
	amount := host.Lamports(a.Amount)
	if amount < st.Params.MinStake {
		return fmt.Errorf("%w: %d < %d", ErrStakeTooSmall, amount, st.Params.MinStake)
	}
	if st.Slashed[a.Validator] {
		return ErrSlashedValidator
	}
	owner := ctx.FeePayer()
	if err := ctx.Transfer(owner, st.Account, amount); err != nil {
		return err
	}
	if cand, ok := st.Candidates[a.Validator]; ok {
		if cand.Owner != owner {
			return fmt.Errorf("guest: validator %s is owned by another account", a.Validator.Short())
		}
		cand.Stake += amount
	} else {
		st.Candidates[a.Validator] = &Candidate{PubKey: a.Validator, Owner: owner, Stake: amount}
	}
	return nil
}

// unstake begins a candidate's exit; stake unlocks after the unbonding
// period (the "stake held for one week after exit" rule of §IV).
func (c *Contract) unstake(ctx *host.ExecContext, st *State, r *wire.Reader) error {
	pub := r.PubKey()
	if err := r.Done(); err != nil {
		return err
	}
	cand, ok := st.Candidates[pub]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownCandidate, pub.Short())
	}
	if cand.Owner != ctx.FeePayer() {
		return fmt.Errorf("guest: only the staking owner may unstake %s", pub.Short())
	}
	delete(st.Candidates, pub)
	st.Withdrawals = append(st.Withdrawals, Withdrawal{
		PubKey:      pub,
		Owner:       cand.Owner,
		Amount:      cand.Stake,
		AvailableAt: ctx.Time.Add(st.Params.UnbondingPeriod),
	})
	return nil
}

// withdraw pays out the fee payer's matured withdrawals.
func (c *Contract) withdraw(ctx *host.ExecContext, st *State) error {
	owner := ctx.FeePayer()
	var kept []Withdrawal
	var paid host.Lamports
	for _, wd := range st.Withdrawals {
		if wd.Owner == owner && !ctx.Time.Before(wd.AvailableAt) {
			paid += wd.Amount
			continue
		}
		kept = append(kept, wd)
	}
	if paid == 0 {
		return ErrNothingToWithdraw
	}
	if err := ctx.Debit(st.Account, paid); err != nil {
		return err
	}
	ctx.Credit(owner, paid)
	st.Withdrawals = kept
	return nil
}

// chunk appends data to the fee payer's staging buffer and records
// runtime-verified signature claims.
func (c *Contract) chunk(ctx *host.ExecContext, st *State, r *wire.Reader) error {
	a, err := decodeChunk(r)
	if err != nil {
		return err
	}
	if err := ctx.Heap.Alloc(len(a.Data)); err != nil {
		return err
	}
	if err := ctx.Meter.Consume(uint64(len(a.Data)) * host.CUPerByteWritten); err != nil {
		return err
	}
	// Every claim is checked before anything is staged: the host does not
	// roll a failed transaction's contract state back, so a refused chunk
	// must leave no bytes behind for its resubmission to stage twice.
	for _, claim := range a.SigClaims {
		if !ctx.PrecompileVerified(claim.Pub, claim.Payload) {
			return fmt.Errorf("%w: claim for %s", ErrBadSignature, claim.Pub.Short())
		}
	}
	key := stagingKey{owner: ctx.FeePayer(), id: a.BufferID}
	buf, ok := st.staging[key]
	if !ok {
		buf = &StagingBuffer{VerifiedSigs: make(map[cryptoutil.Hash]bool)}
		st.staging[key] = buf
	}
	buf.Data = append(buf.Data, a.Data...)
	buf.Txs++
	for _, claim := range a.SigClaims {
		buf.VerifiedSigs[sigDigest(claim.Pub, claim.Payload)] = true
	}
	return nil
}

// takeBuffer removes and returns the fee payer's staging buffer.
func (c *Contract) takeBuffer(ctx *host.ExecContext, st *State, id uint64) (*StagingBuffer, error) {
	key := stagingKey{owner: ctx.FeePayer(), id: id}
	buf, ok := st.staging[key]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBuffer, id)
	}
	delete(st.staging, key)
	return buf, nil
}

// commitUpdateClient applies a staged light-client update. Signature
// verification was performed by the runtime across the chunk transactions
// (the §IV compute-budget workaround): the client looks each commit
// signature up in the buffer's runtime-verified set and re-runs every
// non-signature check. The guest's client of its peer is a Tendermint
// client; any other client type is refused.
func (c *Contract) commitUpdateClient(ctx *host.ExecContext, st *State, r *wire.Reader) error {
	a, err := decodeCommit(r)
	if err != nil {
		return err
	}
	buf, err := c.takeBuffer(ctx, st, a.BufferID)
	if err != nil {
		return err
	}
	if err := ctx.Meter.ConsumeHash(len(buf.Data)); err != nil {
		return err
	}
	client, err := st.Handler.Client(a.ClientID)
	if err != nil {
		return err
	}
	tc, ok := client.(*tendermint.Client)
	if !ok {
		return fmt.Errorf("guest: client %s is a %T, not a tendermint client", a.ClientID, client)
	}
	u, err := tendermint.UnmarshalUpdate(buf.Data)
	if err != nil {
		return err
	}
	check := func(pub cryptoutil.PubKey, payload cryptoutil.Hash) bool {
		return buf.VerifiedSigs[sigDigest(pub, payload[:])]
	}
	if err := tc.UpdatePresigned(u, ctx.Time, check); err != nil {
		return err
	}
	buf.Txs++ // the commit transaction itself
	ctx.Emit(EventClientUpdated{
		ClientID: a.ClientID,
		Height:   client.LatestHeight(),
		Txs:      buf.Txs,
	})
	return nil
}

// chargeProof charges m what verifying a staged proof costs the contract
// itself: hashing it and walking its trie nodes.
func chargeProof(m *host.ComputeMeter, proof []byte) error {
	if err := m.ConsumeHash(len(proof)); err != nil {
		return err
	}
	return m.Consume(host.CUPerTrieNode * uint64(1+len(proof)/64))
}

// batchLen is the batch rule of the three packet commits: how many payloads
// from the front of ps one commit may apply with units of compute left. The
// commit decodes the whole staging buffer on the program heap and applies
// every packet inside one transaction's compute budget, so the payloads with
// their proofs whole (wireSize: what the decode leaves on the heap, however
// few bytes staged them) stay within host.MaxHeapBytes and the worst-case
// metered compute — chargeProof per packet plus what the module running its
// hook declares (ibc.HookBudgeter) — within units. The first payload always
// counts: a packet on its own is applied as it always was, and fails on its
// own. The relayer cuts its jobs with the rule (TxBuilder.RecvBatchLen,
// AckBatchLen, TimeoutBatchLen) and the contract refuses a buffer that
// breaks it.
func batchLen[P packetPayload](units uint64, ps []P, st *State) int {
	meter := host.NewComputeMeter(units)
	bytes := 0
	for i, p := range ps {
		bytes += p.wireSize()
		err := chargeProof(meter, p.proof())
		if err == nil {
			err = meter.Consume(st.hookBudget(p.hook(), p.packet()))
		}
		if i > 0 && (err != nil || bytes > host.MaxHeapBytes) {
			return i
		}
	}
	return len(ps)
}

// hookBudget is the metered compute running hook for p may charge beyond
// the contract's own: what the module on the hook's end of p declares, 0
// for one that declares nothing.
func (s *State) hookBudget(hook ibc.Hook, p *ibc.Packet) uint64 {
	port, channel := hook.End(p)
	m, err := s.Handler.Router().Route(port)
	if err != nil {
		return 0
	}
	if b, ok := m.(ibc.HookBudgeter); ok {
		return b.HookBudget(hook, port, channel)
	}
	return 0
}

// commitPackets applies every packet staged in the buffer the instruction
// names, with apply doing one packet's work — the commit of recvs, acks and
// timeouts alike. The buffer is decoded on the program heap — charged for
// the staged bytes first, then by the decode for what each proof grows by as
// its shared tail is put back — and checked against the batch rule before
// anything is applied, so a transaction cannot run out of compute between
// two packets and lose the first one's events. From here on every proof is
// whole: the rule, the compute charge and apply see the payloads a
// one-per-buffer relay would have staged. Each packet then stands alone, as
// IBC requires of a multi-packet transaction: one that is already settled
// (a redundant relay) or fails its own checks is passed over, the rest are
// applied with one event each in staging order, and the transaction fails —
// with the first packet's error — only if none was.
func commitPackets[P packetPayload](c *Contract, ctx *host.ExecContext, st *State, r *wire.Reader,
	decode func([]byte, *host.HeapMeter) ([]P, error), apply func(P) error) error {
	a, err := decodeCommit(r)
	if err != nil {
		return err
	}
	buf, err := c.takeBuffer(ctx, st, a.BufferID)
	if err != nil {
		return err
	}
	if err := ctx.Heap.Alloc(len(buf.Data)); err != nil {
		return err
	}
	payloads, err := decode(buf.Data, ctx.Heap)
	if err != nil {
		return err
	}
	if n := batchLen(ctx.Meter.Remaining(), payloads, st); n < len(payloads) {
		return fmt.Errorf("%w: %d packets staged, %d fit", ErrRecvBatchTooLarge, len(payloads), n)
	}
	for _, p := range payloads {
		if err := chargeProof(ctx.Meter, p.proof()); err != nil {
			return err
		}
	}
	var firstErr error
	applied := 0
	for _, p := range payloads {
		err := apply(p)
		switch {
		case err == nil:
			applied++
		case errors.Is(err, host.ErrComputeBudgetExceeded):
			return err
		case firstErr == nil:
			firstErr = err
		}
	}
	if applied == 0 {
		return firstErr
	}
	return nil
}

// commitRecvPacket delivers the incoming packets staged in the buffer
// (Alg. 1 ReceivePacket, once per packet): verify the proof, reject
// duplicates, deliver to the destination application on the host.
func (c *Contract) commitRecvPacket(ctx *host.ExecContext, st *State, r *wire.Reader) error {
	return commitPackets(c, ctx, st, r, UnmarshalRecvPayloads, func(p *RecvPayload) error {
		ack, err := st.Handler.RecvPacket(p.Packet, p.Proof, p.ProofHeight)
		if err == nil {
			ctx.Emit(EventPacketDelivered{Packet: p.Packet, Ack: ack})
		}
		return err
	})
}

// commitAck applies the acknowledgements staged in the buffer for packets
// the guest sent.
func (c *Contract) commitAck(ctx *host.ExecContext, st *State, r *wire.Reader) error {
	return commitPackets(c, ctx, st, r, UnmarshalAckPayloads, func(p *AckPayload) error {
		err := st.Handler.AcknowledgePacket(p.Packet, p.Ack, p.Proof, p.ProofHeight)
		if err == nil {
			ctx.Emit(EventPacketAcked{Packet: p.Packet})
		}
		return err
	})
}

// commitTimeout applies the timeout proofs staged in the buffer for packets
// the guest sent.
func (c *Contract) commitTimeout(ctx *host.ExecContext, st *State, r *wire.Reader) error {
	return commitPackets(c, ctx, st, r, UnmarshalTimeoutPayloads, func(p *TimeoutPayload) error {
		err := st.Handler.TimeoutPacket(p.Packet, p.Proof, p.ProofHeight)
		if err == nil {
			ctx.Emit(EventPacketTimedOut{Packet: p.Packet})
		}
		return err
	})
}

// closeBuffer drops the fee payer's staging buffer, if it has one: the
// relayer gave its job up, and nothing will commit it. A buffer that never
// staged a byte (the job's first chunk was lost) is already closed.
func (c *Contract) closeBuffer(ctx *host.ExecContext, st *State, r *wire.Reader) error {
	id := r.U64()
	if err := r.Done(); err != nil {
		return fmt.Errorf("guest: decode close buffer: %w", err)
	}
	delete(st.staging, stagingKey{owner: ctx.FeePayer(), id: id})
	return nil
}

// emergencyRelease implements the §VI-A self-destruction mitigation: if no
// guest block has been generated for EmergencyTimeout, the chain is dead —
// without this, validators could never recover their stake once the
// validator set fell below quorum ("last validator wishing to quit"). Any
// caller may trigger it; all candidate stakes and pending withdrawals are
// paid out immediately and the contract halts.
func (c *Contract) emergencyRelease(ctx *host.ExecContext, st *State) error {
	if st.Params.EmergencyTimeout <= 0 {
		return fmt.Errorf("%w: emergency release disabled", ErrNotDead)
	}
	dead := ctx.Time.Sub(st.Head().Block.Time)
	if dead < st.Params.EmergencyTimeout {
		return fmt.Errorf("%w: head is %v old, timeout %v", ErrNotDead, dead, st.Params.EmergencyTimeout)
	}
	// Pay out candidates, then matured-and-unmatured withdrawals alike.
	var total host.Lamports
	for _, cand := range st.Candidates {
		total += cand.Stake
	}
	for _, wd := range st.Withdrawals {
		total += wd.Amount
	}
	if err := ctx.Debit(st.Account, total); err != nil {
		return err
	}
	for _, cand := range st.Candidates {
		ctx.Credit(cand.Owner, cand.Stake)
	}
	for _, wd := range st.Withdrawals {
		ctx.Credit(wd.Owner, wd.Amount)
	}
	st.Candidates = make(map[cryptoutil.PubKey]*Candidate)
	st.Withdrawals = nil
	st.Halted = true
	return nil
}

// submitMisbehaviour slashes a validator given verified fisherman
// evidence (§III-C).
func (c *Contract) submitMisbehaviour(ctx *host.ExecContext, st *State, r *wire.Reader) error {
	e, err := decodeEvidence(r)
	if err != nil {
		return err
	}
	if st.Slashed[e.Validator] {
		return ErrSlashedValidator
	}
	// The runtime precompile must have verified the claimed signatures.
	payloadA := payloadForHash(e.BlockA)
	if !ctx.PrecompileVerified(e.Validator, payloadA[:]) {
		return ErrBadSignature
	}

	switch e.Kind {
	case EvidenceDoubleSign:
		payloadB := payloadForHash(e.BlockB)
		if !ctx.PrecompileVerified(e.Validator, payloadB[:]) {
			return ErrBadSignature
		}
		if e.BlockA == e.BlockB {
			return fmt.Errorf("%w: identical blocks", ErrBadEvidence)
		}
		// Both blocks claim the same height: the fisherman asserts it and
		// the signatures are over height-binding block hashes; require at
		// least one of them to differ from the canonical block if the
		// height is known, otherwise the pair itself is the offence.
		entry, err := st.Entry(e.Height)
		if err == nil {
			canonical := entry.Block.Hash()
			if e.BlockA == canonical && e.BlockB == canonical {
				return fmt.Errorf("%w: both signatures match the canonical block", ErrBadEvidence)
			}
		}
	case EvidenceFutureHeight:
		if e.Height <= st.Height() {
			return fmt.Errorf("%w: height %d is not in the future", ErrBadEvidence, e.Height)
		}
	case EvidenceWrongFork:
		entry, err := st.Entry(e.Height)
		if err != nil {
			return err
		}
		if entry.Block.Hash() == e.BlockA {
			return fmt.Errorf("%w: signature matches the canonical block", ErrBadEvidence)
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadEvidence, e.Kind)
	}

	// Slash: confiscate stake, remove from candidacy, reward the
	// fisherman with half the stake. The fallible step (paying the
	// reward from the contract account) runs before any state mutation
	// so a failure leaves the contract consistent.
	var confiscated host.Lamports
	if cand, ok := st.Candidates[e.Validator]; ok {
		confiscated = cand.Stake
	}
	for _, wd := range st.Withdrawals {
		if wd.PubKey == e.Validator {
			confiscated += wd.Amount
		}
	}
	reward := confiscated / 2
	if reward > 0 {
		if err := ctx.Debit(st.Account, reward); err != nil {
			return err
		}
		ctx.Credit(ctx.FeePayer(), reward)
	}
	st.Slashed[e.Validator] = true
	delete(st.Candidates, e.Validator)
	var kept []Withdrawal
	for _, wd := range st.Withdrawals {
		if wd.PubKey != e.Validator {
			kept = append(kept, wd)
		}
	}
	st.Withdrawals = kept
	st.SlashedPot += confiscated - reward
	return nil
}
