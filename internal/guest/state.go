package guest

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/guestblock"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/guestlc"
	"repro/internal/telemetry"
)

// Errors returned by the Guest Contract.
var (
	ErrHeadNotFinalised = errors.New("guest: head block is not finalised")
	ErrNothingToCommit  = errors.New("guest: state unchanged and head younger than delta")
	// ErrUnknownHeight and ErrSnapshotPruned are the store's height
	// lookup errors: a height the chain never reached, and one that
	// existed but whose version left the retention window, so a relayer
	// can tell "bogus height" from "retry against a newer root".
	ErrUnknownHeight     = ibc.ErrUnknownHeight
	ErrSnapshotPruned    = ibc.ErrHeightPruned
	ErrNotValidator      = errors.New("guest: signer is not an epoch validator")
	ErrAlreadySigned     = errors.New("guest: validator already signed this block")
	ErrBadSignature      = errors.New("guest: signature not verified by runtime")
	ErrSlashedValidator  = errors.New("guest: validator was slashed")
	ErrStakeTooSmall     = errors.New("guest: stake below minimum")
	ErrUnknownCandidate  = errors.New("guest: unknown candidate")
	ErrUnknownBuffer     = errors.New("guest: unknown staging buffer")
	ErrRecvBatchTooLarge = errors.New("guest: staged packets exceed one commit's heap or compute")
	ErrRecvSharedTail    = errors.New("guest: staged proof shares more than the proof before it holds")
	ErrNothingToWithdraw = errors.New("guest: no matured withdrawals")
	ErrBadEvidence       = errors.New("guest: misbehaviour evidence invalid")
	ErrNotDead           = errors.New("guest: chain is not dead (emergency timeout not reached)")
	ErrHalted            = errors.New("guest: contract halted after emergency release")
)

// BlockEntry is a guest block with its finalisation bookkeeping.
type BlockEntry struct {
	Block       *guestblock.Block
	Epoch       *guestblock.Epoch
	Signatures  map[cryptoutil.PubKey]cryptoutil.Signature
	SignedStake uint64
	Finalised   bool
	// Packets are the outgoing packets committed in this block (Alg. 2
	// block.packets).
	Packets []*ibc.Packet
	// CreatedAt / FinalisedAt are host timestamps for the latency
	// experiments (Fig. 2, Fig. 6, Table I).
	CreatedAt   time.Time
	FinalisedAt time.Time
}

// SignedBlock assembles the light-client update form of a finalised block,
// with signatures in canonical (pubkey-sorted) order.
func (e *BlockEntry) SignedBlock() *guestblock.SignedBlock {
	sb := &guestblock.SignedBlock{Block: e.Block}
	keys := make([]cryptoutil.PubKey, 0, len(e.Signatures))
	for pub := range e.Signatures {
		keys = append(keys, pub)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	for _, pub := range keys {
		sb.Signatures = append(sb.Signatures, guestblock.BlockSignature{
			Height:    e.Block.Height,
			PubKey:    pub,
			Signature: e.Signatures[pub],
		})
	}
	return sb
}

// Withdrawal is stake waiting out the unbonding period.
type Withdrawal struct {
	PubKey      cryptoutil.PubKey
	Owner       cryptoutil.PubKey
	Amount      host.Lamports
	AvailableAt time.Time
}

// Candidate is a staked validator candidate.
type Candidate struct {
	PubKey cryptoutil.PubKey
	// Owner is the host account that staked and receives withdrawals.
	Owner cryptoutil.PubKey
	Stake host.Lamports
}

// stagingKey identifies a chunk-upload buffer.
type stagingKey struct {
	owner cryptoutil.PubKey
	id    uint64
}

// StagingBuffer accumulates a payload too large for one host transaction
// (the tx-size workaround of §IV), together with the set of signature
// verifications the runtime performed while the chunks were uploaded.
type StagingBuffer struct {
	Data []byte
	// VerifiedSigs records runtime-verified (pubkey, payload) digests so
	// the commit instruction can trust them without re-verification.
	VerifiedSigs map[cryptoutil.Hash]bool
	// Txs counts the host transactions that contributed to this buffer
	// (for the Fig. 4 statistics).
	Txs int
}

// sigDigest identifies a verified (pubkey, payload) pair within a buffer.
func sigDigest(pub cryptoutil.PubKey, payload []byte) cryptoutil.Hash {
	return cryptoutil.HashTagged('Q', pub[:], payload)
}

// State is the Guest Contract's account state: everything Alg. 1 keeps
// on-chain, plus off-chain-queryable bookkeeping (the store's per-height
// versions for proof generation, experiment timestamps).
type State struct {
	Params  Params
	Account cryptoutil.PubKey

	Store   *ibc.Store
	Handler *ibc.Handler

	Entries []*BlockEntry

	CurrentEpoch   *guestblock.Epoch
	EpochStartSlot uint64

	Candidates  map[cryptoutil.PubKey]*Candidate
	Slashed     map[cryptoutil.PubKey]bool
	Withdrawals []Withdrawal
	SlashedPot  host.Lamports

	// PendingPackets are packets sent since the last block was created;
	// they ride in the next block.
	PendingPackets []*ibc.Packet

	staging map[stagingKey]*StagingBuffer

	persistErr error

	// Execution context mirror: the handler's SelfInfo reads these.
	nowTime time.Time
	nowSlot uint64

	// ibcEvents buffers typed handler events during one instruction (the
	// Deploy-time bus subscription appends here); Execute forwards them to
	// the host event log after the instruction succeeds.
	ibcEvents []telemetry.Event

	// execMeter is the compute meter of the instruction currently
	// executing (set by Execute, nil between instructions). Middleware
	// callback budgets charge hook compute through it, so hooks are
	// metered like any other contract code.
	execMeter *host.ComputeMeter

	// Experiment counters.
	TotalFeesCollected host.Lamports

	// Halted is set after an emergency release (§VI-A): the guest chain
	// is dead and the contract refuses all further operations.
	Halted bool
}

// Head returns the latest block entry.
func (s *State) Head() *BlockEntry { return s.Entries[len(s.Entries)-1] }

// Height returns the current head height.
func (s *State) Height() uint64 { return s.Head().Block.Height }

// Entry returns the block entry at height.
func (s *State) Entry(height uint64) (*BlockEntry, error) {
	idx := int(height) - 1
	if idx < 0 || idx >= len(s.Entries) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownHeight, height)
	}
	return s.Entries[idx], nil
}

// SnapshotAt returns a read-only view of the store version committed when
// the block at height was created — the simulation analogue of reading
// historical account data through an RPC node; relayers prove against
// finalised roots from these. A height inside the chain's history whose
// version was released reports ErrSnapshotPruned; a height the chain never
// reached reports ErrUnknownHeight.
func (s *State) SnapshotAt(height uint64) (*ibc.ReadOnlyStore, error) {
	return s.Store.AtHeight(height)
}

// ProveMembershipAt generates a membership proof against the state root of
// the block at height (off-chain relayer API).
func (s *State) ProveMembershipAt(height uint64, path string) (value, proof []byte, err error) {
	snap, err := s.SnapshotAt(height)
	if err != nil {
		return nil, nil, err
	}
	return snap.ProveMembership(path)
}

// ProveNonMembershipAt generates an absence proof against the block at
// height (off-chain relayer API, used for timeouts).
func (s *State) ProveNonMembershipAt(height uint64, path string) ([]byte, error) {
	snap, err := s.SnapshotAt(height)
	if err != nil {
		return nil, err
	}
	return snap.ProveNonMembership(path)
}

// BeginDirect prepares the state for a direct (non-transactional) handler
// call — operator bootstrap actions such as the connection handshake,
// which in the deployment run as ordinary governance transactions but are
// not part of the evaluated packet path.
func (s *State) BeginDirect(t time.Time, slot uint64) {
	s.nowTime = t
	s.nowSlot = slot
	s.ibcEvents = nil
}

// Meter returns the compute meter of the instruction currently executing,
// or nil between instructions. Middleware meter sources read it live so
// callback budgets charge the transaction that triggered the hook.
func (s *State) Meter() *host.ComputeMeter { return s.execMeter }

// CurrentHeight implements ibc.SelfInfo: the guest chain's own height.
func (s *State) CurrentHeight() ibc.Height { return ibc.Height(s.Height()) }

// CurrentTime implements ibc.SelfInfo: the host block time.
func (s *State) CurrentTime() time.Time { return s.nowTime }

// ValidateSelfClient implements ibc.SelfInfo: it checks that the
// counterparty's light client for the guest chain refers to a real epoch
// and a plausible height — the introspection step §II requires and
// incomplete IBC ports leave blank.
func (s *State) ValidateSelfClient(clientState []byte) error {
	info, err := guestlc.DecodeClientState(clientState)
	if err != nil {
		return fmt.Errorf("guest: self-client state: %w", err)
	}
	if uint64(info.Latest) > s.Height() {
		return fmt.Errorf("guest: self-client height %d ahead of chain %d", info.Latest, s.Height())
	}
	entry, err := s.Entry(uint64(info.Latest))
	if err != nil {
		return err
	}
	// The client's trusted epoch must be the one active at that height or
	// its successor (rotation block).
	ok := entry.Epoch.Commitment() == info.EpochCommitment
	if !ok && entry.Block.NextEpoch != nil {
		ok = entry.Block.NextEpoch.Commitment() == info.EpochCommitment
	}
	if !ok {
		return errors.New("guest: self-client tracks unknown validator set")
	}
	return nil
}

// buildNextEpoch selects the top-staked candidates for the next epoch.
func (s *State) buildNextEpoch() (*guestblock.Epoch, error) {
	candidates := make([]*Candidate, 0, len(s.Candidates))
	for _, c := range s.Candidates {
		candidates = append(candidates, c)
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Stake != candidates[j].Stake {
			return candidates[i].Stake > candidates[j].Stake
		}
		return candidates[i].PubKey.Compare(candidates[j].PubKey) < 0
	})
	if len(candidates) > s.Params.MaxValidators {
		candidates = candidates[:s.Params.MaxValidators]
	}
	vals := make([]guestblock.Validator, 0, len(candidates))
	for _, c := range candidates {
		vals = append(vals, guestblock.Validator{PubKey: c.PubKey, Stake: uint64(c.Stake)})
	}
	return guestblock.NewEpoch(s.CurrentEpoch.Index+1, vals)
}

// CanGenerateBlock is Alg. 1's precondition for GenerateBlock at now:
// ErrHeadNotFinalised while the pipeline is full, ErrNothingToCommit while
// the root is unchanged and the head younger than Δ, nil when a block may
// be generated. The contract checks it, and the crank consults it before
// submitting.
func (s *State) CanGenerateBlock(now time.Time) error {
	// Pipelining gate: up to PipelineDepth unfinalised blocks may trail
	// the finalised prefix (depth 1 = the paper's serialised behaviour).
	// An unfinalised epoch-rotation block always blocks generation — the
	// next block's signer set would otherwise be uncommitted.
	depth := s.Params.EffectivePipelineDepth()
	unfinalised := 0
	for i := len(s.Entries) - 1; i >= 0 && !s.Entries[i].Finalised; i-- {
		if s.Entries[i].Block.NextEpoch != nil {
			return ErrHeadNotFinalised
		}
		unfinalised++
	}
	if unfinalised >= depth {
		return ErrHeadNotFinalised
	}
	head := s.Head()
	if head.Block.StateRoot == s.Store.Root() && now.Sub(head.Block.Time) < s.Params.Delta {
		return ErrNothingToCommit
	}
	return nil
}

// generateBlockCore is Alg. 1 GenerateBlock minus metering and events; it
// is shared by the contract instruction path and the direct (operator
// bootstrap) path.
func (s *State) generateBlockCore(now time.Time, slot uint64) (*BlockEntry, error) {
	if err := s.CanGenerateBlock(now); err != nil {
		return nil, err
	}
	head := s.Head()

	block := &guestblock.Block{
		Height:          head.Block.Height + 1,
		HostHeight:      slot,
		Time:            now,
		PrevHash:        head.Block.Hash(),
		StateRoot:       s.Store.Root(),
		EpochIndex:      s.CurrentEpoch.Index,
		EpochCommitment: s.CurrentEpoch.Commitment(),
	}

	// Epoch rotation: once the minimum epoch length has elapsed, this
	// block carries the next validator set and is the epoch's last block.
	if slot-s.EpochStartSlot >= s.Params.EpochLength {
		next, err := s.buildNextEpoch()
		if err != nil {
			return nil, fmt.Errorf("guest: build next epoch: %w", err)
		}
		block.NextEpoch = next
	}

	entry := &BlockEntry{
		Block:      block,
		Epoch:      s.CurrentEpoch,
		Signatures: make(map[cryptoutil.PubKey]cryptoutil.Signature),
		Packets:    s.PendingPackets,
		CreatedAt:  now,
	}
	s.PendingPackets = nil
	s.Entries = append(s.Entries, entry)
	// Params are read live: a retention change applies from this commit on.
	s.Store.SetProvableHeights(s.Params.SnapshotRetention)
	s.Store.CommitAt(block.Height)

	if block.NextEpoch != nil {
		s.CurrentEpoch = block.NextEpoch
		s.EpochStartSlot = slot
	}
	return entry, nil
}

// applySignature records a verified validator vote and returns the block
// entries it newly finalised, in height order. With pipelining, a block may
// reach quorum before its parent; it then finalises only when the parent
// does (in-order cascade), so light-client updates stay sequential.
func (s *State) applySignature(entry *BlockEntry, pub cryptoutil.PubKey, sig cryptoutil.Signature, now time.Time) []*BlockEntry {
	entry.Signatures[pub] = sig
	entry.SignedStake += entry.Epoch.StakeOf(pub)
	done := s.cascadeFinalise(now)
	if len(done) > 0 && s.Store.Persistent() {
		// Finalised ⇒ durable: one group fsync covers every record the
		// finalised blocks' commits appended, so a crash can never roll
		// the chain back behind a finalised block.
		if err := s.Store.SyncBackend(); err != nil && s.persistErr == nil {
			s.persistErr = err
		}
	}
	return done
}

// PersistError returns the first persistence failure the finalisation
// path recorded, or nil. A non-nil value means durability is no longer
// guaranteed and the operator should treat the node as failed.
func (s *State) PersistError() error { return s.persistErr }

// cascadeFinalise finalises, in height order, every tail entry whose quorum
// is reached and whose parent is finalised, returning the newly finalised
// entries. Entries always form a finalised prefix plus an unfinalised tail
// of at most PipelineDepth blocks, so the backward scan is O(depth).
func (s *State) cascadeFinalise(now time.Time) []*BlockEntry {
	first := len(s.Entries)
	for first > 0 && !s.Entries[first-1].Finalised {
		first--
	}
	var done []*BlockEntry
	for i := first; i < len(s.Entries); i++ {
		e := s.Entries[i]
		if e.SignedStake < e.Epoch.QuorumStake {
			break
		}
		e.Finalised = true
		e.FinalisedAt = now
		done = append(done, e)
	}
	return done
}

// DirectGenerateBlock mints a guest block outside a transaction (operator
// bootstrap, e.g. during the connection handshake). The caller must have
// called BeginDirect.
func (s *State) DirectGenerateBlock() (*BlockEntry, error) {
	return s.generateBlockCore(s.nowTime, s.nowSlot)
}

// DirectFinalise signs the entry with the given validator keys until the
// quorum is reached (operator bootstrap).
func (s *State) DirectFinalise(entry *BlockEntry, keys []*cryptoutil.PrivKey) error {
	payload := entry.Block.SigningPayload()
	for _, k := range keys {
		if entry.Finalised {
			return nil
		}
		if !entry.Epoch.Has(k.Public()) || s.Slashed[k.Public()] {
			continue
		}
		if _, dup := entry.Signatures[k.Public()]; dup {
			continue
		}
		s.applySignature(entry, k.Public(), k.SignHash(payload), s.nowTime)
	}
	if !entry.Finalised {
		return fmt.Errorf("guest: direct finalise: quorum not reached at height %d", entry.Block.Height)
	}
	return nil
}

// StorageNodeCount exposes trie occupancy for the §V-D experiments.
func (s *State) StorageNodeCount() int { return s.Store.Trie().NodeCount() }

// StorageBytes exposes the modelled storage footprint.
func (s *State) StorageBytes() int { return s.Store.Trie().StorageBytes() }

// StagingBuffers returns how many staging buffers are open: staged by a
// fee payer and neither committed nor closed.
func (s *State) StagingBuffers() int { return len(s.staging) }

// RetainedSnapshots returns how many historical store versions the state
// holds (telemetry): one per provable height, as every block commits one.
func (s *State) RetainedSnapshots() int { return s.Store.RetainedVersions() }

// LatestFinalised returns the newest finalised block entry, or nil if none
// is finalised yet. Relayers fall back to it when a proof height has been
// pruned.
func (s *State) LatestFinalised() *BlockEntry {
	for i := len(s.Entries) - 1; i >= 0; i-- {
		if s.Entries[i].Finalised {
			return s.Entries[i]
		}
	}
	return nil
}
