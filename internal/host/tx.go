package host

import (
	"fmt"
	"time"

	"repro/internal/cryptoutil"
)

// Instruction is one program invocation inside a transaction.
type Instruction struct {
	Program  ProgramID
	Accounts []cryptoutil.PubKey
	Data     []byte
}

// size returns the serialized footprint of the instruction: program id,
// account references, and data with short length prefixes.
func (in *Instruction) size() int {
	return 32 + 1 + len(in.Accounts)*32 + 2 + len(in.Data)
}

// Transaction bundles instructions with fee information. Signatures are
// modelled as the list of signer keys; the simulator trusts submission
// integrity (off-chain actors sign guest-level data explicitly instead).
type Transaction struct {
	// FeePayer pays base, priority and tip fees; always counted as the
	// first signer.
	FeePayer cryptoutil.PubKey
	// ExtraSigners are additional transaction-level signers.
	ExtraSigners []cryptoutil.PubKey
	// Instructions run in order; the transaction is atomic.
	Instructions []Instruction
	// PriorityFee is an optional tip to the block producer paid from the
	// fee payer (Solana "priority fees", §VI-B).
	PriorityFee Lamports
	// BundleTip models Jito-style bundle tips (§V-A, reference [35]); it
	// is an alternative prioritisation channel with its own accounting.
	BundleTip Lamports
	// PrecompileSigs are transaction-level Ed25519 verifications (the
	// native ed25519 program); each is charged the per-signature fee.
	PrecompileSigs []SigVerify

	// Label annotates the transaction for experiment bookkeeping (e.g.
	// "send-packet", "sign", "client-update"); it has no on-chain size.
	Label string

	// Deadline, when non-zero, lets the mempool shed this transaction
	// instead of executing it once the block time passes the deadline
	// (open-loop load shedding: stale work is dropped, not serviced).
	// It models a recent-blockhash expiry and has no on-chain size.
	Deadline time.Time
	// OnShed, when set, is invoked (outside the chain lock) after the
	// transaction is deadline-shed, so the submitter can roll back any
	// off-chain bookkeeping tied to it (e.g. a transfer escrow).
	OnShed func(*Transaction)
}

// txOverhead approximates the fixed serialized overhead of a transaction:
// recent blockhash, message header, and compact array prefixes.
const txOverhead = 64

// signatureSize is the serialized size of one signature.
const signatureSize = 64

// NumSignatures returns the number of fee-bearing signatures: transaction
// signers plus precompile verification requests.
func (tx *Transaction) NumSignatures() int {
	return 1 + len(tx.ExtraSigners) + len(tx.PrecompileSigs)
}

// Size returns the serialized transaction size in bytes.
func (tx *Transaction) Size() int {
	n := txOverhead + (1+len(tx.ExtraSigners))*signatureSize
	// Fee payer + distinct account/program references are part of the
	// message; a precise dedup is unnecessary for the size model, count
	// per instruction.
	for i := range tx.Instructions {
		n += tx.Instructions[i].size()
	}
	for i := range tx.PrecompileSigs {
		n += precompileSigSize(len(tx.PrecompileSigs[i].Msg))
	}
	return n
}

// Fee returns the total fee the fee payer is charged on execution by a
// host with profile p (a chain charges Fee(chain.Profile())).
func (tx *Transaction) Fee(p Profile) Lamports {
	return p.BaseFeePerSignature*Lamports(tx.NumSignatures()) + tx.PriorityFee + tx.BundleTip
}

// Validate checks static transaction limits under a host profile.
func (tx *Transaction) Validate(p Profile) error {
	if tx.FeePayer.IsZero() {
		return fmt.Errorf("host: transaction without fee payer")
	}
	if len(tx.Instructions) == 0 {
		return fmt.Errorf("host: transaction without instructions")
	}
	if tx.NumSignatures() > p.MaxSignatures {
		return fmt.Errorf("%w: %d > %d", ErrTooManySignatures, tx.NumSignatures(), p.MaxSignatures)
	}
	if s := tx.Size(); s > p.MaxTransactionSize {
		return fmt.Errorf("%w: %d > %d bytes", ErrTxTooLarge, s, p.MaxTransactionSize)
	}
	return nil
}

// TxResult records the outcome of an executed transaction.
type TxResult struct {
	Label string
	Err   error
	Units uint64 // compute units consumed
}
