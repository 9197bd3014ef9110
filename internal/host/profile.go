package host

import "time"

// Profile captures the host-chain runtime constraints the guest blockchain
// must live within. The paper's deployment target is Solana (§IV), whose
// restrictive profile forces chunked uploads and precompile signature
// verification; §VI-D argues the design ports to other IBC-incompatible
// hosts (NEAR, TRON) whose looser profiles need none of those workarounds.
// The experiments compare guest behaviour across profiles.
type Profile struct {
	// Name labels the profile in experiment output.
	Name string
	// MaxTransactionSize is the serialized transaction limit in bytes.
	MaxTransactionSize int
	// MaxComputeUnits is the per-transaction compute budget.
	MaxComputeUnits uint64
	// MaxSignatures bounds fee-bearing signatures per transaction.
	MaxSignatures int
	// BaseFeePerSignature is the flat per-signature fee.
	BaseFeePerSignature Lamports
	// SlotDuration is the block time.
	SlotDuration time.Duration
	// BlockComputeBudget is the per-slot compute capacity.
	BlockComputeBudget uint64
}

// SolanaProfile returns the paper's deployment constraints (§IV).
func SolanaProfile() Profile {
	return Profile{
		Name:                "solana",
		MaxTransactionSize:  MaxTransactionSize,
		MaxComputeUnits:     MaxComputeUnits,
		MaxSignatures:       MaxSignaturesPerTransaction,
		BaseFeePerSignature: BaseFeePerSignature,
		SlotDuration:        SlotDuration,
		BlockComputeBudget:  BlockComputeBudget,
	}
}

// NEARLikeProfile models a NEAR-style host (§VI-D): roomy transactions
// (receipts up to megabytes), a 1-second block time, and a large gas
// budget. NEAR's missing IBC feature is block-hash introspection, which
// the Guest Contract supplies by tracking past guest blocks — no chunking
// is needed.
func NEARLikeProfile() Profile {
	return Profile{
		Name:                "near-like",
		MaxTransactionSize:  512 * 1024,
		MaxComputeUnits:     300_000_000,
		MaxSignatures:       128,
		BaseFeePerSignature: 1_000,
		SlotDuration:        time.Second,
		BlockComputeBudget:  1_000_000_000,
	}
}

// TRONLikeProfile models a TRON-style host (§VI-D): 3-second blocks and
// generous transaction sizes. TRON's missing feature is state proofs,
// which the sealable trie supplies.
func TRONLikeProfile() Profile {
	return Profile{
		Name:                "tron-like",
		MaxTransactionSize:  128 * 1024,
		MaxComputeUnits:     100_000_000,
		MaxSignatures:       64,
		BaseFeePerSignature: 2_000,
		SlotDuration:        3 * time.Second,
		BlockComputeBudget:  500_000_000,
	}
}

// MaxInstructionData returns how many bytes of instruction data fit in a
// transaction with the given signer count and account references under
// this profile, assuming a single instruction. Chunking clients use this
// to size their chunks.
func (p Profile) MaxInstructionData(numSigners, numAccounts int) int {
	n := p.MaxTransactionSize - txOverhead - numSigners*signatureSize
	n -= 32 + 1 + numAccounts*32 + 2
	if n < 0 {
		return 0
	}
	return n
}
