// Package guest implements the paper's primary contribution: the Guest
// Contract (§III) — a smart contract on the host chain that emulates a
// complete IBC-capable blockchain. It maintains provable storage in a
// sealable Merkle trie, produces guest blocks, finalises them through a
// Proof-of-Stake quorum of staked validators, and bridges IBC packets
// between the host chain and IBC counterparties (Alg. 1).
package guest

import (
	"time"

	"repro/internal/host"
)

// Params are the guest blockchain's governance parameters. The defaults
// mirror the paper's mainnet deployment (§IV).
type Params struct {
	// Delta is the maximum age of the chain head before an empty block is
	// generated, needed to keep IBC timeouts observable (§III-A). The
	// deployment used 1 hour.
	Delta time.Duration
	// EpochLength is the minimum epoch length in host slots; the
	// deployment used 100_000 (~12 hours).
	EpochLength uint64
	// MaxValidators caps the validator set: the top-staked candidates are
	// selected each epoch (§III-B).
	MaxValidators int
	// MinStake is the minimum candidate stake.
	MinStake host.Lamports
	// UnbondingPeriod is how long stake stays locked after exit; the
	// deployment used one week.
	UnbondingPeriod time.Duration
	// PacketFee is the contract-level fee collected per sent packet
	// (Alg. 1 collect_fees).
	PacketFee host.Lamports
	// StateSize is the provable-storage account size in bytes; the
	// deployment allocated the 10 MiB Solana maximum (§V-D).
	StateSize int
	// SnapshotRetention is how many recent per-block state snapshots the
	// off-chain RPC layer keeps for proof generation.
	SnapshotRetention int
	// EmergencyTimeout implements the §VI-A mitigation for the "last
	// validator wishing to quit" problem: once no guest block has been
	// generated for this long, the chain is considered dead and anyone
	// may trigger the release of all staked assets to their owners,
	// bypassing the unbonding period. 0 disables the mechanism.
	EmergencyTimeout time.Duration
	// PipelineDepth is how many unfinalised guest blocks may trail the
	// finalised prefix. The paper's deployment serialises generation and
	// finalisation (depth 1, the default); raising it lets block minting,
	// signature collection, and relaying overlap under open-loop load.
	// Blocks still finalise strictly in height order, so light-client
	// updates remain sequential. 0 behaves like 1.
	PipelineDepth int
}

// EffectivePipelineDepth returns PipelineDepth clamped to at least 1.
func (p Params) EffectivePipelineDepth() int {
	if p.PipelineDepth < 1 {
		return 1
	}
	return p.PipelineDepth
}

// DefaultParams returns the deployment configuration from §IV.
func DefaultParams() Params {
	return Params{
		Delta:             time.Hour,
		EpochLength:       100_000,
		MaxValidators:     24,
		MinStake:          host.LamportsPerSOL, // 1 SOL
		UnbondingPeriod:   7 * 24 * time.Hour,
		PacketFee:         10_000,
		StateSize:         host.MaxAccountSize,
		SnapshotRetention: 256,
		EmergencyTimeout:  30 * 24 * time.Hour,
	}
}
