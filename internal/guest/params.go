// Package guest implements the paper's primary contribution: the Guest
// Contract (§III) — a smart contract on the host chain that emulates a
// complete IBC-capable blockchain. It maintains provable storage in a
// sealable Merkle trie, produces guest blocks, finalises them through a
// Proof-of-Stake quorum of staked validators, and bridges IBC packets
// between the host chain and IBC counterparties (Alg. 1).
package guest

import "time"

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
	// SnapshotRetention is how many recent per-block state snapshots the
	// off-chain RPC layer keeps for proof generation.
	SnapshotRetention int
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
		SnapshotRetention: 256,
	}
}
