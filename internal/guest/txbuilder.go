package guest

import (
	"repro/internal/cryptoutil"
	"repro/internal/guestblock"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
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

	nextBuffer uint64
}

// NewTxBuilder returns a builder paying fees from payer. Chunked uploads
// and batch commits are sized for the profile of the host the contract is
// deployed on (§VI-D hosts with roomier transactions need far fewer
// chunks).
func NewTxBuilder(contract *Contract, payer cryptoutil.PubKey) *TxBuilder {
	return &TxBuilder{contract: contract, payer: payer}
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
	// claimEntryBytes is the precompile entry one claim adds to its chunk
	// transaction: signature, public key, offsets and the signed digest.
	claimEntryBytes = 64 + 32 + 14 + 32
	// chunkEnvelope is the OpChunk framing: op, buffer id, data length,
	// claim count.
	chunkEnvelope = 1 + 8 + 4 + 2
)

// chunkDataCapacity returns how many payload bytes fit in a chunk
// transaction carrying nClaims signature claims under the contract's host
// profile.
func (b *TxBuilder) chunkDataCapacity(nClaims int) int {
	room := b.contract.profile.MaxInstructionData(1, 1) - chunkEnvelope - nClaims*claimDataBytes
	// Each claim also adds a precompile entry to the transaction itself.
	room -= nClaims * claimEntryBytes
	if room < 0 {
		return 0
	}
	return room
}

// maxClaims is how many signature claims one chunk transaction carries:
// roomy profiles take every claim the signature limit allows, the Solana
// profile only a handful.
func (b *TxBuilder) maxClaims() int {
	if p := b.contract.profile; p.MaxTransactionSize > 8*host.MaxTransactionSize {
		return p.MaxSignatures - 1
	}
	return maxClaimsPerChunk
}

// Upload is one staging buffer filled by a chunked upload, built in two
// parts: Prefix, chunk transactions staging bytes known when the upload
// begins, and Tail, the rest of the payload with its signature claims, then
// Commit. A relayer submits the prefix first and builds the tail when its
// pacer reaches it; ChunkedUpload builds both at once.
type Upload struct {
	b      *TxBuilder
	buffer uint64
	label  string
	staged int // payload bytes the prefix stages

	Prefix []*host.Transaction
	// Commit is the upload's last transaction, which names its buffer.
	Commit *host.Transaction
}

// beginUpload opens a staging buffer for a commitOp upload and stages the
// front of prefix that fills whole claim-free chunk transactions; Tail
// stages the rest.
func (b *TxBuilder) beginUpload(commitOp byte, clientID ibc.ClientID, prefix []byte, label string) *Upload {
	u := &Upload{b: b, buffer: b.nextBuffer, label: label}
	b.nextBuffer++
	if per := b.chunkDataCapacity(0); per > 0 {
		for len(prefix)-u.staged >= per {
			u.Prefix = append(u.Prefix, b.chunkTx(u.buffer, prefix[u.staged:u.staged+per], nil, label))
			u.staged += per
		}
	}
	u.Commit = b.tx(label+"/commit", EncodeCommit(commitOp, &CommitArgs{BufferID: u.buffer, ClientID: clientID}))
	return u
}

// Tail builds the transactions that stage the rest of payload, whose first
// bytes must be those the prefix staged, with the signature batch claimed,
// and finish with Commit.
func (u *Upload) Tail(payload []byte, sigs []SigBatch) []*host.Transaction {
	b := u.b
	var txs []*host.Transaction
	remaining := payload[u.staged:]
	for len(remaining) > 0 || len(sigs) > 0 {
		n := min(len(sigs), b.maxClaims())
		d := min(len(remaining), b.chunkDataCapacity(n))
		txs = append(txs, b.chunkTx(u.buffer, remaining[:d], sigs[:n], u.label))
		remaining, sigs = remaining[d:], sigs[n:]
	}
	return append(txs, u.Commit)
}

// chunkTx builds one chunk transaction staging data into buffer, with the
// runtime verifying sigs as precompile entries.
func (b *TxBuilder) chunkTx(buffer uint64, data []byte, sigs []SigBatch, label string) *host.Transaction {
	args := &ChunkArgs{BufferID: buffer, Data: data}
	tx := b.tx(label+"/chunk", nil)
	for _, s := range sigs {
		args.SigClaims = append(args.SigClaims, SigClaim{Pub: s.Pub, Payload: s.Payload})
		tx.PrecompileSigs = append(tx.PrecompileSigs, host.SigVerify{Pub: s.Pub, Msg: s.Payload, Sig: s.Sig})
	}
	tx.Instructions[0].Data = EncodeChunk(args)
	return tx
}

// ChunkedUpload builds the transaction sequence that stages payload (with
// the given signature batch) and finishes with the commit instruction
// carrying commitOp. This is the multi-transaction pattern behind the
// "36.5 transactions per light-client update" statistic (§V-A).
func (b *TxBuilder) ChunkedUpload(commitOp byte, clientID ibc.ClientID, payload []byte, sigs []SigBatch, label string) []*host.Transaction {
	return b.beginUpload(commitOp, clientID, nil, label).Tail(payload, sigs)
}

// UpdateClientTxs stages a light-client update (its Tendermint encoding,
// whose commit signatures the runtime verifies) and commits it.
func (b *TxBuilder) UpdateClientTxs(clientID ibc.ClientID, update []byte, sigs []SigBatch) []*host.Transaction {
	return b.BeginUpdateClient(clientID, nil).Tail(update, sigs)
}

// BeginUpdateClient opens the upload of a Tendermint update whose encoding
// starts with set, its validator set's encoding, and stages the whole
// claim-free chunks set fills: the set does not depend on the height, so
// the header can be picked when the tail is built. That costs no
// transaction while a chunk full of claims takes at least its room in
// claims and their commit entries — the tail's commit alone then fills
// every chunk that carries claims — which holds on the Solana profile; a
// roomier one stages nothing ahead.
func (b *TxBuilder) BeginUpdateClient(clientID ibc.ClientID, set []byte) *Upload {
	if mc := b.maxClaims(); b.chunkDataCapacity(0) > mc*(claimDataBytes+claimEntryBytes+tendermint.CommitEntrySize) {
		set = nil
	}
	return b.beginUpload(OpCommitUpdateClient, clientID, set, "client-update")
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
// (batchLen) held to half of the host's MaxComputeUnits, which leaves the
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
	return b.contract.profile.MaxComputeUnits/2 - host.CUBaseInstruction
}

// CloseBufferTx builds the transaction that drops the staging buffer an
// Upload fills, named by its commit transaction: what a relayer sends when
// it gives the job up.
func (b *TxBuilder) CloseBufferTx(commit *host.Transaction) *host.Transaction {
	id := wire.NewReader(commit.Instructions[0].Data[1:]).U64()
	return b.tx("close-buffer", EncodeCloseBuffer(id))
}
