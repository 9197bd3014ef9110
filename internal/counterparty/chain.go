// Package counterparty simulates the Cosmos-based IBC counterparty chain
// (Picasso in the paper's deployment, §IV): a BFT chain with instant
// finality, a native IBC stack over a provable store, and Tendermint-style
// headers whose commit signatures drive the size — and therefore the
// transaction count — of the light-client updates the relayer submits to
// the guest blockchain (§V-A).
package counterparty

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
	"repro/internal/telemetry"
)

// Config parameterises the chain.
type Config struct {
	// ChainID is the chain identifier ("picasso-sim").
	ChainID string
	// NumValidators is the BFT validator count (drives update sizes).
	NumValidators int
	// BlockInterval is the BFT block time (~6 s Cosmos-style).
	BlockInterval time.Duration
	// ParticipationMin is the minimum fraction of validators taking part
	// in a block (must exceed 2/3); per-block participation is drawn
	// uniformly from [ParticipationMin, 1] and extended until it carries
	// more than 2/3 of the power. An update carries the minimal quorum of
	// the participants, so which validators took part is what varies its
	// size (Fig. 4-5).
	ParticipationMin float64
	// Seed makes the participation draw deterministic.
	Seed int64
}

// DefaultConfig mirrors the evaluation setup.
func DefaultConfig() Config {
	return Config{
		ChainID:          "picasso-sim",
		NumValidators:    115,
		BlockInterval:    6 * time.Second,
		ParticipationMin: 0.68,
		Seed:             1,
	}
}

// provableHeights is how many of the newest heights the chain serves
// proofs at.
const provableHeights = 4096

// Event is a chain event the relayer polls. The log holds one
// EventPacketsCommitted per block that committed packets; handler events
// stay on the handler's bus (Handler().Events()).
type Event struct {
	Height  uint64
	Payload telemetry.Event
}

// EventPacketsCommitted reports the packets committed by a block (relayable
// from that height on).
type EventPacketsCommitted struct {
	Packets []*ibc.Packet
}

// EventKind implements telemetry.Event.
func (EventPacketsCommitted) EventKind() string { return "PacketsCommitted" }

// Option configures the chain.
type Option func(*Chain)

// WithTelemetry registers the chain's IBC handler metrics (under "cp.ibc."
// unless WithMetricsNamespace overrides it) in the given registry.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *Chain) { c.telemetry = reg }
}

// WithMetricsNamespace overrides the handler metric prefix; mesh
// deployments give each chain its own so two chains sharing a registry
// never collide on a key.
func WithMetricsNamespace(ns string) Option {
	return func(c *Chain) { c.metricsNS = ns }
}

// Chain is the simulated counterparty.
type Chain struct {
	cfg   Config
	clock host.Clock
	rng   *rand.Rand

	// keys[j] signs for valset.Validators[j]; setIndex[i] is the set
	// position of the i-th generated key, which the signer permutation
	// draws.
	keys     []*cryptoutil.PrivKey
	setIndex []int
	valset   *tendermint.ValidatorSet
	// valsetHash is valset.Hash(), which every header carries twice; the
	// set never changes, so it is computed once.
	valsetHash cryptoutil.Hash
	// signerRng draws UpdateAt's signer permutation; it is re-seeded from
	// the height on every draw, which yields the permutation a fresh
	// source with that seed would.
	signerRng *rand.Rand

	store   *ibc.Store
	handler *ibc.Handler

	height  uint64
	headers []*tendermint.Header
	// signerCounts[h-1] is how many validators signed block h; the
	// commit signatures themselves are generated lazily in UpdateAt
	// (a month of 6-second blocks would otherwise cost 40M+ Ed25519
	// operations for updates nobody relays).
	signerCounts []int
	commitCache  map[uint64][]tendermint.CommitSig

	// pendingPackets are packets sent since the last block; like the
	// guest chain, a packet becomes relayable once a block commits it.
	pendingPackets []*ibc.Packet

	events    []Event
	telemetry *telemetry.Registry
	metricsNS string
}

// New creates the chain and produces its genesis block.
func New(cfg Config, clock host.Clock, opts ...Option) (*Chain, error) {
	if cfg.NumValidators <= 0 {
		return nil, errors.New("counterparty: need validators")
	}
	if cfg.ParticipationMin <= 2.0/3.0 {
		return nil, errors.New("counterparty: participation minimum must exceed 2/3")
	}
	c := &Chain{
		cfg:         cfg,
		clock:       clock,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		signerRng:   rand.New(rand.NewSource(cfg.Seed)),
		commitCache: make(map[uint64][]tendermint.CommitSig),
	}
	vals := make([]tendermint.Validator, cfg.NumValidators)
	generated := make([]*cryptoutil.PrivKey, cfg.NumValidators)
	generation := make(map[cryptoutil.PubKey]int, cfg.NumValidators)
	for i := range vals {
		generated[i] = cryptoutil.GenerateKeyIndexed(cfg.ChainID+"-val", i)
		generation[generated[i].Public()] = i
		vals[i] = tendermint.Validator{PubKey: generated[i].Public(), Power: 10 + uint64(i%7)}
	}
	vs, err := tendermint.NewValidatorSet(vals)
	if err != nil {
		return nil, err
	}
	c.valset = vs
	c.keys = make([]*cryptoutil.PrivKey, len(vals))
	c.setIndex = make([]int, len(vals))
	for j, v := range vs.Validators {
		i := generation[v.PubKey]
		c.keys[j], c.setIndex[i] = generated[i], j
	}
	c.valsetHash = vs.Hash()
	for _, o := range opts {
		o(c)
	}
	c.store = ibc.NewStore()
	c.store.SetProvableHeights(provableHeights)
	if c.metricsNS == "" {
		c.metricsNS = "cp.ibc"
	}
	c.handler = ibc.NewHandler(c.store, c,
		ibc.WithTelemetry(c.telemetry),
		ibc.WithMetricsNamespace(c.metricsNS),
	)
	if _, err := c.produceBlockLocked(); err != nil { // genesis
		return nil, err
	}
	return c, nil
}

// Handler exposes the chain's native IBC handler.
func (c *Chain) Handler() *ibc.Handler { return c.handler }

// Store exposes the provable store.
func (c *Chain) Store() *ibc.Store { return c.store }

// ChainID returns the chain identifier.
func (c *Chain) ChainID() string { return c.cfg.ChainID }

// Height returns the latest committed height.
func (c *Chain) Height() uint64 { return c.height }

// BlockInterval returns the configured block time.
func (c *Chain) BlockInterval() time.Duration { return c.cfg.BlockInterval }

// CurrentHeight implements ibc.SelfInfo.
func (c *Chain) CurrentHeight() ibc.Height { return ibc.Height(c.height) }

// CurrentTime implements ibc.SelfInfo.
func (c *Chain) CurrentTime() time.Time { return c.clock.Now() }

// ValidateSelfClient implements ibc.SelfInfo for the Tendermint client the
// guest chain runs against this chain.
func (c *Chain) ValidateSelfClient(clientState []byte) error {
	chainID, latest, trusting, err := tendermint.DecodeClientState(clientState)
	if err != nil {
		return err
	}
	if chainID != c.cfg.ChainID {
		return fmt.Errorf("counterparty: client tracks chain %q, we are %q", chainID, c.cfg.ChainID)
	}
	if uint64(latest) > c.height {
		return fmt.Errorf("counterparty: client height %d ahead of chain %d", latest, c.height)
	}
	if trusting <= 0 {
		return errors.New("counterparty: client has no trusting period")
	}
	return nil
}

// ProduceBlock commits the current store root into a new header with a
// randomly-sized (but quorum-satisfying) commit. The chain numbers its
// heights itself, so its store refuses the next one only after something
// else indexed it through Store (ibc.ErrHeightOrder); the chain then keeps
// its head and returns that.
func (c *Chain) ProduceBlock() *tendermint.Header {
	h, err := c.produceBlockLocked()
	if err != nil {
		return c.headers[len(c.headers)-1]
	}
	return h
}

// produceBlockLocked indexes the next height in the store, then builds its
// header. A height the store refuses leaves the chain unchanged.
func (c *Chain) produceBlockLocked() (*tendermint.Header, error) {
	height := c.height + 1
	root := c.store.Root()
	// Commit-on-change: a block whose root equals its parent's shares the
	// parent's version.
	var err error
	if n := len(c.headers); n > 0 && c.headers[n-1].AppRoot == root {
		err = c.store.ShareAt(height)
	} else {
		_, err = c.store.CommitAt(height)
	}
	if err != nil {
		return nil, fmt.Errorf("counterparty: block %d: %w", height, err)
	}
	c.height = height
	h := &tendermint.Header{
		ChainID:        c.cfg.ChainID,
		Height:         c.height,
		Time:           c.clock.Now(),
		AppRoot:        root,
		ValSetHash:     c.valsetHash,
		NextValSetHash: c.valsetHash,
	}
	// Draw participation in [min, 1]; the signer subset is derived
	// deterministically from the height when (and if) an update is built.
	span := 1.0 - c.cfg.ParticipationMin
	target := c.cfg.ParticipationMin + c.rng.Float64()*span
	n := int(float64(len(c.keys))*target + 0.5)
	if n > len(c.keys) {
		n = len(c.keys)
	}

	c.headers = append(c.headers, h)
	c.signerCounts = append(c.signerCounts, n)

	if len(c.pendingPackets) > 0 {
		c.events = append(c.events, Event{Height: c.height, Payload: EventPacketsCommitted{Packets: c.pendingPackets}})
		c.pendingPackets = nil
	}
	return h, nil
}

// HeaderAt returns the header at height.
func (c *Chain) HeaderAt(height uint64) (*tendermint.Header, error) {
	if height == 0 || height > c.height {
		return nil, fmt.Errorf("counterparty: no header at %d", height)
	}
	return c.headers[height-1], nil
}

// ValidatorSetAt returns the validator set whose hash the header at height
// carries: what an update for that height starts with, known before its
// commit is signed. The set never rotates.
func (c *Chain) ValidatorSetAt(height uint64) (*tendermint.ValidatorSet, error) {
	if _, err := c.HeaderAt(height); err != nil {
		return nil, err
	}
	return c.valset, nil
}

// UpdateAt builds the light-client update for height: validator set +
// header + commit. Its serialized size is what the relayer must chunk. The
// commit carries the fewest of the block's participants whose power is more
// than 2/3 (ValidatorSet.Quorum), in set order; only those are signed,
// lazily and deterministically from the height, and cached.
func (c *Chain) UpdateAt(height uint64) (*tendermint.Update, error) {
	h, err := c.HeaderAt(height)
	if err != nil {
		return nil, err
	}
	commit, ok := c.commitCache[height]
	if !ok {
		quorum := c.valset.Quorum(c.participants(height))
		signers := make([]*cryptoutil.PrivKey, len(quorum))
		for i, j := range quorum {
			signers[i] = c.keys[j]
		}
		commit = tendermint.SignCommit(h, signers, h.Time)
		if len(c.commitCache) > 8 {
			c.commitCache = make(map[uint64][]tendermint.CommitSig, 8)
		}
		c.commitCache[height] = commit
	}
	return &tendermint.Update{
		Header: h,
		Commit: commit,
		ValSet: c.valset,
	}, nil
}

// participants draws the validators that sign block height, as set
// indices: the first signerCounts[height-1] of a permutation seeded by the
// height, extended along it until they carry more than 2/3 of the power, so
// every block has a commit its light clients accept.
func (c *Chain) participants(height uint64) []int {
	c.signerRng.Seed(c.cfg.Seed ^ int64(height)*0x9e3779b9)
	perm := c.signerRng.Perm(len(c.keys))
	n, total := c.signerCounts[height-1], c.valset.TotalPower()
	var power uint64
	out := make([]int, 0, len(perm))
	for i, gen := range perm {
		if i >= n && tendermint.OverTwoThirds(power, total) {
			break
		}
		j := c.setIndex[gen]
		out = append(out, j)
		power += c.valset.Validators[j].Power
	}
	return out
}

// GenesisUpdate returns the trust anchor for initialising clients.
func (c *Chain) GenesisUpdate() (*tendermint.Header, *tendermint.ValidatorSet) {
	return c.headers[0], c.valset
}

// SnapshotAt returns a read-only view of the store version committed at
// height, for proof generation: ibc.ErrHeightPruned once height left the
// provable window, ibc.ErrUnknownHeight for a height never produced.
func (c *Chain) SnapshotAt(height uint64) (*ibc.ReadOnlyStore, error) {
	return c.store.AtHeight(height)
}

// ProveMembershipAt proves a path against the root committed at height.
func (c *Chain) ProveMembershipAt(height uint64, path string) (value, proof []byte, err error) {
	snap, err := c.SnapshotAt(height)
	if err != nil {
		return nil, nil, err
	}
	return snap.ProveMembership(path)
}

// ProveNonMembershipAt proves a path absent at height.
func (c *Chain) ProveNonMembershipAt(height uint64, path string) ([]byte, error) {
	snap, err := c.SnapshotAt(height)
	if err != nil {
		return nil, err
	}
	return snap.ProveNonMembership(path)
}

// SendPacket sends a packet from an application on this chain; it threads
// the port's middleware stack (fees, forwarding, ...) and becomes
// relayable at the next block. It implements ibc.PacketSender, so
// forwarding middleware can use the chain itself for onward hops.
func (c *Chain) SendPacket(port ibc.PortID, channel ibc.ChannelID, data []byte, timeoutHeight ibc.Height, timeoutTs time.Time) (*ibc.Packet, error) {
	p, err := c.handler.AppSendPacket(port, channel, data, timeoutHeight, timeoutTs)
	if err != nil {
		return nil, err
	}
	c.pendingPackets = append(c.pendingPackets, p)
	return p, nil
}

// EventsSince returns events with index > cursor, and the new cursor.
func (c *Chain) EventsSince(cursor int) ([]Event, int) {
	if cursor >= len(c.events) {
		return nil, cursor
	}
	out := c.events[cursor:]
	return out, len(c.events)
}
