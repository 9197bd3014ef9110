package tendermint

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/ibc"
	"repro/internal/wire"
)

// ClientType identifies this light client kind.
const ClientType = "07-tendermint"

// Errors returned by the client.
var (
	ErrFrozen          = errors.New("tendermint: client frozen due to misbehaviour")
	ErrStaleHeader     = errors.New("tendermint: header height not newer than latest")
	ErrTrustExpired    = errors.New("tendermint: trusting period expired")
	ErrInsufficientSig = errors.New("tendermint: commit below 2/3 of header validator set")
	ErrNoTrustOverlap  = errors.New("tendermint: commit below 1/3 of trusted validator set")
	ErrRateLimited     = errors.New("tendermint: update rate limit exceeded")
	ErrUnknownHeight   = errors.New("tendermint: no consensus state at height")
)

// ConsensusState is the verified counterparty state at one height.
type ConsensusState struct {
	Time           time.Time
	AppRoot        cryptoutil.Hash
	NextValSetHash cryptoutil.Hash
}

// Option configures a Client.
type Option func(*Client)

// WithRateLimit caps client updates per window — the mitigation §VI-C
// recommends so a compromised counterparty cannot flood the client.
func WithRateLimit(maxUpdates int, window time.Duration) Option {
	return func(c *Client) {
		c.rateMax = maxUpdates
		c.rateWindow = window
	}
}

// Client is a Tendermint-style light client instance.
type Client struct {
	chainID        string
	trustingPeriod time.Duration

	latest      ibc.Height
	frozen      bool
	consensus   map[ibc.Height]ConsensusState
	trustedVals *ValidatorSet
	// lastUpdateLocal is the local time of the last accepted update.
	lastUpdateLocal time.Time

	rateMax    int
	rateWindow time.Duration
	rateCount  int
	rateStart  time.Time
}

var _ ibc.Client = (*Client)(nil)

// NewClient initialises a client from a trusted genesis-like anchor: the
// first header is accepted on trust (operator-verified out of band).
func NewClient(chainID string, trustedHeader *Header, trustedVals *ValidatorSet, opts ...Option) (*Client, error) {
	if trustedHeader.ChainID != chainID {
		return nil, fmt.Errorf("tendermint: anchor header chain id %q != %q", trustedHeader.ChainID, chainID)
	}
	if trustedVals.Hash() != trustedHeader.ValSetHash {
		return nil, errors.New("tendermint: anchor validator set does not match header")
	}
	c := &Client{
		chainID:        chainID,
		trustingPeriod: 14 * 24 * time.Hour,
		latest:         ibc.Height(trustedHeader.Height),
		consensus:      make(map[ibc.Height]ConsensusState),
		trustedVals:    trustedVals,
	}
	c.consensus[c.latest] = ConsensusState{
		Time:           trustedHeader.Time,
		AppRoot:        trustedHeader.AppRoot,
		NextValSetHash: trustedHeader.NextValSetHash,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// LatestHeight implements ibc.Client.
func (c *Client) LatestHeight() ibc.Height { return c.latest }

// Frozen implements ibc.Client.
func (c *Client) Frozen() bool { return c.frozen }

// SigChecker verifies that pub signed payload. The default checker runs
// Ed25519 in-process; the Guest Contract instead supplies a checker backed
// by the host's transaction-level precompile, because verifying dozens of
// signatures inside the 1.4M CU budget is impossible (§IV).
type SigChecker func(pub cryptoutil.PubKey, payload cryptoutil.Hash) bool

// Update implements ibc.Client: it verifies a serialized Update.
func (c *Client) Update(headerBytes []byte, now time.Time) error {
	u, err := UnmarshalUpdate(headerBytes)
	if err != nil {
		return err
	}
	return c.UpdateVerified(u, now)
}

// UpdatePresigned applies an update whose commit signatures were already
// verified out of band; check reports whether (pub, vote payload) was
// covered. All non-signature validation still runs in full.
func (c *Client) UpdatePresigned(u *Update, now time.Time, check SigChecker) error {
	return c.update(u, now, check)
}

// UpdateVerified verifies and applies a decoded update, checking
// signatures in-process.
func (c *Client) UpdateVerified(u *Update, now time.Time) error {
	return c.update(u, now, nil)
}

// update is the shared verification path; check==nil means verify
// signatures in-process.
func (c *Client) update(u *Update, now time.Time, check SigChecker) error {
	if c.frozen {
		return ErrFrozen
	}
	if err := c.checkRate(now); err != nil {
		return err
	}
	if err := c.checkChain(u.Header); err != nil {
		return err
	}
	h := ibc.Height(u.Header.Height)
	if h <= c.latest {
		return fmt.Errorf("%w: %d <= %d", ErrStaleHeader, h, c.latest)
	}
	if !c.lastUpdateLocal.IsZero() && now.Sub(c.lastUpdateLocal) > c.trustingPeriod {
		return ErrTrustExpired
	}
	if err := c.verifyCommit(u, check); err != nil {
		return err
	}

	c.latest = h
	c.consensus[h] = ConsensusState{
		Time:           u.Header.Time,
		AppRoot:        u.Header.AppRoot,
		NextValSetHash: u.Header.NextValSetHash,
	}
	c.trustedVals = u.ValSet
	c.lastUpdateLocal = now
	c.rateCount++
	return nil
}

// checkChain refuses a header of another chain.
func (c *Client) checkChain(h *Header) error {
	if h.ChainID != c.chainID {
		return fmt.Errorf("tendermint: header chain id %q != %q", h.ChainID, c.chainID)
	}
	return nil
}

func (c *Client) checkRate(now time.Time) error {
	if c.rateMax <= 0 {
		return nil
	}
	if c.rateStart.IsZero() || now.Sub(c.rateStart) >= c.rateWindow {
		c.rateStart = now
		c.rateCount = 0
	}
	if c.rateCount >= c.rateMax {
		return ErrRateLimited
	}
	return nil
}

// OverTwoThirds reports whether power is more than 2/3 of total: the share
// of the header's own validator set a commit must carry.
func OverTwoThirds(power, total uint64) bool { return power*3 > total*2 }

// Quorum returns the fewest of participants (set indices) whose power is
// more than 2/3 of the set's total, in ascending set order: highest power
// first, ties broken by set index. It is the commit a light client needs,
// and nil if all participants together fall short.
func (vs *ValidatorSet) Quorum(participants []int) []int {
	byPower := append([]int(nil), participants...)
	sort.Slice(byPower, func(a, b int) bool {
		pa, pb := vs.Validators[byPower[a]].Power, vs.Validators[byPower[b]].Power
		return pa > pb || pa == pb && byPower[a] < byPower[b]
	})
	total := vs.TotalPower()
	var power uint64
	for n, i := range byPower {
		if power += vs.Validators[i].Power; OverTwoThirds(power, total) {
			quorum := byPower[:n+1]
			sort.Ints(quorum)
			return quorum
		}
	}
	return nil
}

// verifyCommit checks the update's commit against both the header's own
// validator set (>2/3) and the currently trusted set (>1/3 overlap — the
// skipping-verification trust rule; sequential updates where the set hash
// matches the trusted NextValSetHash trivially satisfy it). The commit must
// list members of the header's set in strictly ascending set order, as the
// wire format does (ErrCommitIndex), so one walk over each set tallies the
// powers. They are tallied before any signature is verified: a commit that
// cannot reach either threshold is refused without paying for its Ed25519.
// check==nil verifies signatures in-process; otherwise it consults the
// supplied out-of-band checker.
func (c *Client) verifyCommit(u *Update, check SigChecker) error {
	if u.ValSet.Hash() != u.Header.ValSetHash {
		return errors.New("tendermint: update validator set does not match header")
	}
	var ownPower, trustedPower uint64
	own, trusted := -1, 0
	for _, sig := range u.Commit {
		i, ok := u.ValSet.seek(sig.PubKey, own+1)
		if !ok {
			return fmt.Errorf("%w: %s", ErrCommitIndex, sig.PubKey.Short())
		}
		own = i
		ownPower += u.ValSet.Validators[i].Power
		if trusted, ok = c.trustedVals.seek(sig.PubKey, trusted); ok {
			trustedPower += c.trustedVals.Validators[trusted].Power
		}
	}
	if !OverTwoThirds(ownPower, u.ValSet.TotalPower()) {
		return fmt.Errorf("%w: %d of %d", ErrInsufficientSig, ownPower, u.ValSet.TotalPower())
	}
	if trustedPower*3 <= c.trustedVals.TotalPower() {
		return fmt.Errorf("%w: %d of %d", ErrNoTrustOverlap, trustedPower, c.trustedVals.TotalPower())
	}

	headerHash := u.Header.Hash()
	if check != nil {
		// Out-of-band checker (host precompile lookup): a map probe,
		// nothing to parallelise.
		for _, sig := range u.Commit {
			if !check(sig.PubKey, VotePayload(headerHash, sig.Timestamp)) {
				return fmt.Errorf("tendermint: invalid commit signature from %s", sig.PubKey.Short())
			}
		}
		return nil
	}
	tasks := make([]cryptoutil.VerifyTask, len(u.Commit))
	for i, sig := range u.Commit {
		tasks[i] = cryptoutil.HashTask(sig.PubKey, VotePayload(headerHash, sig.Timestamp), sig.Signature)
	}
	for i, ok := range cryptoutil.DefaultBatchVerifier().VerifyEach(tasks) {
		if !ok {
			return fmt.Errorf("tendermint: invalid commit signature from %s", u.Commit[i].PubKey.Short())
		}
	}
	return nil
}

// VerifyMembership implements ibc.Client.
func (c *Client) VerifyMembership(height ibc.Height, path string, value []byte, proof []byte) error {
	cs, ok := c.consensus[height]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownHeight, height)
	}
	return ibc.VerifyStoredMembership(cs.AppRoot, path, value, proof)
}

// VerifyNonMembership implements ibc.Client.
func (c *Client) VerifyNonMembership(height ibc.Height, path string, proof []byte) error {
	cs, ok := c.consensus[height]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownHeight, height)
	}
	return ibc.VerifyStoredNonMembership(cs.AppRoot, path, proof)
}

// ConsensusTime implements ibc.Client.
func (c *Client) ConsensusTime(height ibc.Height) (time.Time, error) {
	cs, ok := c.consensus[height]
	if !ok {
		return time.Time{}, fmt.Errorf("%w: %d", ErrUnknownHeight, height)
	}
	return cs.Time, nil
}

// ConsensusRoot returns the verified app root at height.
func (c *Client) ConsensusRoot(height ibc.Height) (cryptoutil.Hash, error) {
	cs, ok := c.consensus[height]
	if !ok {
		return cryptoutil.ZeroHash, fmt.Errorf("%w: %d", ErrUnknownHeight, height)
	}
	return cs.AppRoot, nil
}

// StateBytes implements ibc.Client: {type, chainID, latest, trusting}.
func (c *Client) StateBytes() []byte {
	w := wire.NewWriter()
	w.String16(ClientType)
	w.String16(c.chainID)
	w.U64(uint64(c.latest))
	w.U64(uint64(c.trustingPeriod))
	return w.Bytes()
}

// DecodeClientState parses StateBytes output.
func DecodeClientState(data []byte) (chainID string, latest ibc.Height, trusting time.Duration, err error) {
	r := wire.NewReader(data)
	typ := r.String16()
	chainID = r.String16()
	latest = ibc.Height(r.U64())
	trusting = time.Duration(r.U64())
	if err := r.Done(); err != nil {
		return "", 0, 0, err
	}
	if typ != ClientType {
		return "", 0, 0, fmt.Errorf("tendermint: client state type %q", typ)
	}
	return chainID, latest, trusting, nil
}

// SubmitMisbehaviour freezes the client given two conflicting valid
// updates of its chain for the same height.
func (c *Client) SubmitMisbehaviour(u1, u2 *Update) error {
	for _, u := range []*Update{u1, u2} {
		if err := c.checkChain(u.Header); err != nil {
			return err
		}
	}
	if u1.Header.Height != u2.Header.Height {
		return errors.New("tendermint: misbehaviour headers at different heights")
	}
	if u1.Header.Hash() == u2.Header.Hash() {
		return errors.New("tendermint: headers identical")
	}
	if err := c.verifyCommit(u1, nil); err != nil {
		return fmt.Errorf("tendermint: first header: %w", err)
	}
	if err := c.verifyCommit(u2, nil); err != nil {
		return fmt.Errorf("tendermint: second header: %w", err)
	}
	c.frozen = true
	return nil
}
