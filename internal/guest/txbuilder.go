package guest

import (
	"repro/internal/cryptoutil"
	"repro/internal/guestblock"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/wire"
)

// TxBuilder builds host transactions that invoke the Guest Contract,
// including the chunked multi-transaction uploads that work around the
// 1232-byte transaction limit (§IV). A builder is bound to one fee payer
// and one fee policy.
type TxBuilder struct {
	contract *Contract
	payer    cryptoutil.PubKey

	// PriorityFee and BundleTip set the fee policy for every built
	// transaction (§V-A fee clusters, §VI-B).
	PriorityFee host.Lamports
	BundleTip   host.Lamports

	// Profile is the host profile chunked uploads are sized for
	// (Solana by default; §VI-D hosts with roomier transactions need
	// far fewer chunks).
	Profile host.Profile

	nextBuffer uint64
}

// NewTxBuilder returns a builder paying fees from payer, sized for the
// Solana profile.
func NewTxBuilder(contract *Contract, payer cryptoutil.PubKey) *TxBuilder {
	return &TxBuilder{contract: contract, payer: payer, Profile: host.SolanaProfile()}
}

// NewTxBuilderForProfile returns a builder sized for a custom host
// profile.
func NewTxBuilderForProfile(contract *Contract, payer cryptoutil.PubKey, p host.Profile) *TxBuilder {
	return &TxBuilder{contract: contract, payer: payer, Profile: p}
}

func (b *TxBuilder) tx(label string, data []byte) *host.Transaction {
	return &host.Transaction{
		FeePayer: b.payer,
		Instructions: []host.Instruction{{
			Program:  b.contract.programID,
			Accounts: []cryptoutil.PubKey{b.contract.stateKey},
			Data:     data,
		}},
		PriorityFee: b.PriorityFee,
		BundleTip:   b.BundleTip,
		Label:       label,
	}
}

// SendPacketTx builds an Alg. 1 SendPacket invocation.
func (b *TxBuilder) SendPacketTx(a *SendPacketArgs) *host.Transaction {
	return b.tx("send-packet", EncodeSendPacket(a))
}

// GenerateBlockTx builds an Alg. 1 GenerateBlock invocation.
func (b *TxBuilder) GenerateBlockTx() *host.Transaction {
	return b.tx("generate-block", EncodeGenerateBlock())
}

// SignTx builds a validator's Alg. 1 Sign invocation: the signature rides
// as a runtime precompile verification (§IV), the instruction carries the
// claim.
func (b *TxBuilder) SignTx(key *cryptoutil.PrivKey, block *guestblock.Block) *host.Transaction {
	payload := block.SigningPayload()
	sig := key.SignHash(payload)
	tx := b.tx("sign", EncodeSign(&SignArgs{
		Height:    block.Height,
		PubKey:    key.Public(),
		Signature: sig,
	}))
	tx.PrecompileSigs = []host.SigVerify{{Pub: key.Public(), Msg: payload.Bytes(), Sig: sig}}
	return tx
}

// StakeTx builds an OpStake invocation (payer must hold the lamports).
func (b *TxBuilder) StakeTx(validator cryptoutil.PubKey, amount host.Lamports) *host.Transaction {
	return b.tx("stake", EncodeStake(&StakeArgs{Validator: validator, Amount: uint64(amount)}))
}

// UnstakeTx builds an OpUnstake invocation.
func (b *TxBuilder) UnstakeTx(validator cryptoutil.PubKey) *host.Transaction {
	return b.tx("unstake", EncodeUnstake(validator))
}

// WithdrawTx builds an OpWithdraw invocation.
func (b *TxBuilder) WithdrawTx() *host.Transaction {
	return b.tx("withdraw", EncodeWithdraw())
}

// EmergencyReleaseTx builds an OpEmergencyRelease invocation (§VI-A).
func (b *TxBuilder) EmergencyReleaseTx() *host.Transaction {
	return b.tx("emergency-release", EncodeEmergencyRelease())
}

// MisbehaviourTx builds a fisherman's OpSubmitMisbehaviour invocation with
// the evidence signatures attached as precompile verifications.
func (b *TxBuilder) MisbehaviourTx(e *Evidence) *host.Transaction {
	tx := b.tx("misbehaviour", e.Marshal())
	for _, sv := range e.SigVerifies() {
		tx.PrecompileSigs = append(tx.PrecompileSigs, host.SigVerify{Pub: sv.Pub, Msg: sv.Msg, Sig: sv.Sig})
	}
	return tx
}

// SigBatch is a signature the chunk uploader must have the runtime verify
// (counterparty commit signatures for a light-client update).
type SigBatch struct {
	Pub cryptoutil.PubKey
	// Payload is the signed digest bytes.
	Payload []byte
	Sig     cryptoutil.Signature
}

// Chunk packing constants, derived from the host limits: a chunk
// transaction has one signer and one instruction referencing the state
// account; each signature claim costs claim bytes in instruction data plus
// a precompile entry in the transaction.
const (
	// maxClaimsPerChunk is how many signature verifications fit per
	// chunk transaction alongside some data.
	maxClaimsPerChunk = 4
	// claimDataBytes is the in-instruction footprint of one claim.
	claimDataBytes = 32 + 2 + 32
	// chunkEnvelope is the OpChunk framing: op, buffer id, data length,
	// claim count.
	chunkEnvelope = 1 + 8 + 4 + 2
)

// chunkDataCapacity returns how many payload bytes fit in a chunk
// transaction carrying nClaims signature claims under the builder's host
// profile.
func (b *TxBuilder) chunkDataCapacity(nClaims int) int {
	room := b.Profile.MaxInstructionData(1, 1) - chunkEnvelope - nClaims*claimDataBytes
	// Each claim also adds a precompile entry to the transaction itself.
	room -= nClaims * (64 + 32 + 14 + 32)
	if room < 0 {
		return 0
	}
	return room
}

// ChunkedUpload builds the transaction sequence that stages payload (with
// the given signature batch) and finishes with the commit instruction
// carrying commitOp. This is the multi-transaction pattern behind the
// "36.5 transactions per light-client update" statistic (§V-A).
func (b *TxBuilder) ChunkedUpload(commitOp byte, clientID ibc.ClientID, payload []byte, sigs []SigBatch, label string) []*host.Transaction {
	bufID := b.nextBuffer
	b.nextBuffer++

	var txs []*host.Transaction
	remaining := payload
	pendingSigs := sigs

	for len(remaining) > 0 || len(pendingSigs) > 0 {
		n := len(pendingSigs)
		// Roomy profiles can take every claim in one transaction; the
		// Solana profile fits only a handful per chunk.
		maxClaims := maxClaimsPerChunk
		if b.Profile.MaxTransactionSize > 8*host.MaxTransactionSize {
			maxClaims = b.Profile.MaxSignatures - 1
		}
		if n > maxClaims {
			n = maxClaims
		}
		capacity := b.chunkDataCapacity(n)
		d := len(remaining)
		if d > capacity {
			d = capacity
		}
		args := &ChunkArgs{BufferID: bufID, Data: remaining[:d]}
		tx := b.tx(label+"/chunk", nil)
		for _, s := range pendingSigs[:n] {
			args.SigClaims = append(args.SigClaims, SigClaim{Pub: s.Pub, Payload: s.Payload})
			tx.PrecompileSigs = append(tx.PrecompileSigs, host.SigVerify{Pub: s.Pub, Msg: s.Payload, Sig: s.Sig})
		}
		tx.Instructions[0].Data = EncodeChunk(args)
		txs = append(txs, tx)
		remaining = remaining[d:]
		pendingSigs = pendingSigs[n:]
	}

	commit := b.tx(label+"/commit", EncodeCommit(commitOp, &CommitArgs{BufferID: bufID, ClientID: clientID}))
	txs = append(txs, commit)
	return txs
}

// UpdateClientTxs stages a light-client update (header bytes plus the
// commit signatures the runtime must verify) and commits it.
func (b *TxBuilder) UpdateClientTxs(clientID ibc.ClientID, header []byte, sigs []SigBatch) []*host.Transaction {
	return b.ChunkedUpload(OpCommitUpdateClient, clientID, MarshalUpdateClientPayload(header), sigs, "client-update")
}

// RecvPacketTxs stages incoming packets with their proofs as one chunk
// sequence and commits them together (for one packet, the 4-5 transaction
// flow of §V-A). RecvBatchLen says how many packets one call may carry;
// passing them in sequence order lets each stage only the part of its
// proof the one before it does not have (MarshalRecvPayload).
func (b *TxBuilder) RecvPacketTxs(ps ...*RecvPayload) []*host.Transaction {
	return b.ChunkedUpload(OpCommitRecvPacket, "", MarshalRecvPayload(ps...), nil, "recv-packet")
}

// RecvBatchLen returns how many payloads from the front of ps one
// RecvPacketTxs call may carry to st's contract: the contract's batch rule
// (batchLen) held to half of Profile.MaxComputeUnits, which leaves the
// commit headroom for a budget declared after the job was cut. The rule
// reads the payloads with their proofs whole, as the commit will hold them,
// not the fewer bytes RecvPacketTxs stages: sharing proof tails saves chunk
// transactions, it does not fit more packets behind one commit.
func (b *TxBuilder) RecvBatchLen(ps []*RecvPayload, st *State) int {
	return batchLen(b.batchUnits(), ps, st)
}

// AckPacketTxs stages acknowledgements with their proofs as one chunk
// sequence and commits them together, as RecvPacketTxs does packets;
// AckBatchLen says how many one call may carry.
func (b *TxBuilder) AckPacketTxs(ps ...*AckPayload) []*host.Transaction {
	return b.ChunkedUpload(OpCommitAck, "", MarshalAckPayload(ps...), nil, "ack-packet")
}

// AckBatchLen is RecvBatchLen for AckPacketTxs.
func (b *TxBuilder) AckBatchLen(ps []*AckPayload, st *State) int {
	return batchLen(b.batchUnits(), ps, st)
}

// TimeoutPacketTxs stages timeout proofs as one chunk sequence and commits
// them together, as RecvPacketTxs does packets; TimeoutBatchLen says how
// many one call may carry.
func (b *TxBuilder) TimeoutPacketTxs(ps ...*TimeoutPayload) []*host.Transaction {
	return b.ChunkedUpload(OpCommitTimeout, "", MarshalTimeoutPayload(ps...), nil, "timeout-packet")
}

// TimeoutBatchLen is RecvBatchLen for TimeoutPacketTxs.
func (b *TxBuilder) TimeoutBatchLen(ps []*TimeoutPayload, st *State) int {
	return batchLen(b.batchUnits(), ps, st)
}

// batchUnits is the compute a job's commit is cut to: half the profile's
// limit, less the instruction's base charge.
func (b *TxBuilder) batchUnits() uint64 {
	return b.Profile.MaxComputeUnits/2 - host.CUBaseInstruction
}

// CloseBufferTx builds the transaction that drops the staging buffer a
// ChunkedUpload job fills, named by the job's commit transaction: what a
// relayer sends when it gives the job up.
func (b *TxBuilder) CloseBufferTx(commit *host.Transaction) *host.Transaction {
	id := wire.NewReader(commit.Instructions[0].Data[1:]).U64()
	return b.tx("close-buffer", EncodeCloseBuffer(id))
}
