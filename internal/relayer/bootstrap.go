package relayer

import (
	"fmt"

	"repro/internal/counterparty"
	"repro/internal/cryptoutil"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/guestlc"
	"repro/internal/lightclient/tendermint"
)

// Bootstrap runs the operator-side setup between a freshly deployed guest
// blockchain and the counterparty: create the light clients on both sides,
// run the four-step connection handshake (§II), and open a channel between
// the two ports. Every handshake step verifies a real membership proof and
// the self-client validation the paper highlights as the introspection
// requirement.
//
// Bootstrap runs "directly" — outside the paced transaction machinery —
// because it is a one-off operator action, not part of the evaluated
// packet path. Guest blocks minted during the handshake are finalised with
// the supplied genesis validator keys.
type Bootstrap struct {
	HostChain *host.Chain
	Contract  *guest.Contract
	CP        *counterparty.Chain
	// ValidatorKeys finalise the handshake's guest blocks.
	ValidatorKeys []*cryptoutil.PrivKey

	GuestPort ibc.PortID
	CPPort    ibc.PortID
	Ordering  ibc.Ordering
	Version   string

	// GuestClientID / GuestOnCPClientID override the default client
	// identifiers ("tendermint-0" / "guest-0"). A mesh bootstraps one
	// guest↔cosmos link per counterparty, and each link needs its own
	// client pair on the shared guest chain.
	GuestClientID     ibc.ClientID
	GuestOnCPClientID ibc.ClientID

	// Reuse, when set, opens the new channel over an existing
	// connection (and its clients) instead of creating fresh ones —
	// IBC multiplexes any number of channels over one connection.
	Reuse *Result
}

// Result reports the identifiers Bootstrap created.
type Result struct {
	GuestClientID     ibc.ClientID // tendermint client on the guest
	GuestOnCPClientID ibc.ClientID // guest client on the counterparty
	GuestConnection   ibc.ConnectionID
	CPConnection      ibc.ConnectionID
	GuestChannel      ibc.ChannelID
	CPChannel         ibc.ChannelID
}

// Run executes the bootstrap; the guest initiates both handshakes.
func (b *Bootstrap) Run() (*Result, error) {
	st, err := b.Contract.State(b.HostChain)
	if err != nil {
		return nil, err
	}
	st.BeginDirect(b.HostChain.Now(), uint64(b.HostChain.Slot()))
	ids := linkIDs{clientOnA: "tendermint-0", clientOnB: "guest-0"}
	if b.GuestClientID != "" {
		ids.clientOnA = b.GuestClientID
	}
	if b.GuestOnCPClientID != "" {
		ids.clientOnB = b.GuestOnCPClientID
	}
	if r := b.Reuse; r != nil {
		ids = linkIDs{clientOnA: r.GuestClientID, clientOnB: r.GuestOnCPClientID, connA: r.GuestConnection, connB: r.CPConnection}
	}
	err = handshake(guestBoot{st, b.ValidatorKeys}, cosmosBoot{b.CP}, &ids, b.Reuse != nil,
		b.GuestPort, b.CPPort, b.Ordering, b.Version)
	if err != nil {
		return nil, err
	}
	return &Result{
		GuestClientID: ids.clientOnA, GuestOnCPClientID: ids.clientOnB,
		GuestConnection: ids.connA, CPConnection: ids.connB,
		GuestChannel: ids.chanA, CPChannel: ids.chanB,
	}, nil
}

// PairBootstrap is Bootstrap between two Cosmos-style chains: a tendermint
// client on each side, the connection, and one channel. Both ends' headers
// advance through the same lazy commit-signature machinery the relayer
// later pays for.
type PairBootstrap struct {
	A, B *counterparty.Chain

	PortA, PortB ibc.PortID
	Ordering     ibc.Ordering
	Version      string

	// ClientBOnA / ClientAOnB override the default client identifiers
	// ("tm-<peer chain id>"); a chain carrying several mesh links needs a
	// distinct client per peer.
	ClientBOnA ibc.ClientID // tendermint client of B living on A
	ClientAOnB ibc.ClientID // tendermint client of A living on B

	// Reuse opens the new channel over an existing connection.
	Reuse *PairResult
}

// PairResult reports the identifiers PairBootstrap created.
type PairResult struct {
	ClientBOnA ibc.ClientID
	ClientAOnB ibc.ClientID
	ConnA      ibc.ConnectionID
	ConnB      ibc.ConnectionID
	ChanA      ibc.ChannelID
	ChanB      ibc.ChannelID
}

// Run executes the bootstrap; A initiates both handshakes.
func (b *PairBootstrap) Run() (*PairResult, error) {
	ids := linkIDs{clientOnA: b.ClientBOnA, clientOnB: b.ClientAOnB}
	if ids.clientOnA == "" {
		ids.clientOnA = ibc.ClientID("tm-" + b.B.ChainID())
	}
	if ids.clientOnB == "" {
		ids.clientOnB = ibc.ClientID("tm-" + b.A.ChainID())
	}
	if r := b.Reuse; r != nil {
		ids = linkIDs{clientOnA: r.ClientBOnA, clientOnB: r.ClientAOnB, connA: r.ConnA, connB: r.ConnB}
	}
	err := handshake(cosmosBoot{b.A}, cosmosBoot{b.B}, &ids, b.Reuse != nil, b.PortA, b.PortB, b.Ordering, b.Version)
	if err != nil {
		return nil, err
	}
	return &PairResult{
		ClientBOnA: ids.clientOnA, ClientAOnB: ids.clientOnB,
		ConnA: ids.connA, ConnB: ids.connB, ChanA: ids.chanA, ChanB: ids.chanB,
	}, nil
}

// linkIDs are the identifiers a handshake between ends a and b produces:
// clientOnA is the client of b living on a.
type linkIDs struct {
	clientOnA, clientOnB ibc.ClientID
	connA, connB         ibc.ConnectionID
	chanA, chanB         ibc.ChannelID
}

// bootEnd is one chain as the handshake drives it.
type bootEnd interface {
	handler() *ibc.Handler
	// lightClient builds a fresh light client of this chain for the peer
	// to host.
	lightClient() (ibc.Client, error)
	// commit seals pending state into a block, teaches that block to the
	// peer's client of this chain, and returns its height.
	commit(peer *ibc.Handler, client ibc.ClientID) (uint64, error)
	prove(height uint64, path string) ([]byte, error)
}

type cosmosBoot struct{ c *counterparty.Chain }

func (e cosmosBoot) handler() *ibc.Handler { return e.c.Handler() }

func (e cosmosBoot) lightClient() (ibc.Client, error) {
	hdr, vals := e.c.GenesisUpdate()
	c, err := tendermint.NewClient(e.c.ChainID(), hdr, vals)
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (e cosmosBoot) commit(peer *ibc.Handler, client ibc.ClientID) (uint64, error) {
	h := e.c.ProduceBlock().Height
	upd, err := e.c.UpdateAt(h)
	if err != nil {
		return 0, err
	}
	return h, peer.UpdateClient(client, upd.Marshal())
}

func (e cosmosBoot) prove(height uint64, path string) ([]byte, error) {
	_, proof, err := e.c.ProveMembershipAt(height, path)
	return proof, err
}

type guestBoot struct {
	st   *guest.State
	keys []*cryptoutil.PrivKey
}

func (e guestBoot) handler() *ibc.Handler { return e.st.Handler }

func (e guestBoot) lightClient() (ibc.Client, error) {
	genesis, err := e.st.Entry(1)
	if err != nil {
		return nil, err
	}
	c, err := guestlc.NewClient(genesis.Block, genesis.Epoch)
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (e guestBoot) commit(peer *ibc.Handler, client ibc.ClientID) (uint64, error) {
	entry, err := e.st.DirectGenerateBlock()
	if err != nil {
		return 0, err
	}
	if err := e.st.DirectFinalise(entry, e.keys); err != nil {
		return 0, err
	}
	return entry.Block.Height, peer.UpdateClient(client, entry.SignedBlock().Marshal())
}

func (e guestBoot) prove(height uint64, path string) ([]byte, error) {
	_, proof, err := e.st.ProveMembershipAt(height, path)
	return proof, err
}

// handshake creates the two light clients and runs the ICS-03 connection
// handshake (both skipped when reusing the connection recorded in ids),
// then the ICS-04 channel handshake, with a initiating. Every step's
// proof is taken at a block the proving end just committed and taught to
// the verifying end's client.
func handshake(a, b bootEnd, ids *linkIDs, reuse bool, portA, portB ibc.PortID, ordering ibc.Ordering, version string) error {
	if ordering == 0 {
		ordering = ibc.Unordered
	}
	if version == "" {
		version = "ics20-1"
	}
	ha, hb := a.handler(), b.handler()
	step := func(name string, err error) error {
		if err != nil {
			return fmt.Errorf("bootstrap: %s: %w", name, err)
		}
		return nil
	}
	// proven finishes a step that changed x's state: it reports the step's
	// error, or commits x's state into a block y's client learns and
	// leaves the proof of path at that block in proof/at for the next step.
	var proof []byte
	var at ibc.Height
	proven := func(name string, err error, x bootEnd, y *ibc.Handler, clientOnY ibc.ClientID, path string) error {
		if err = step(name, err); err != nil {
			return err
		}
		h, err := x.commit(y, clientOnY)
		if err != nil {
			return err
		}
		proof, err = x.prove(h, path)
		at = ibc.Height(h)
		return err
	}

	if !reuse {
		clientOfB, err := b.lightClient()
		if err != nil {
			return step("light client", err)
		}
		if err := ha.CreateClient(ids.clientOnA, clientOfB); err != nil {
			return err
		}
		clientOfA, err := a.lightClient()
		if err != nil {
			return step("light client", err)
		}
		if err := hb.CreateClient(ids.clientOnB, clientOfA); err != nil {
			return err
		}

		ids.connA, err = ha.ConnOpenInit(ids.clientOnA, ids.clientOnB)
		if err := proven("ConnOpenInit", err, a, hb, ids.clientOnB, ibc.ConnectionPath(ids.connA)); err != nil {
			return err
		}
		ids.connB, err = hb.ConnOpenTry(ids.clientOnB,
			ibc.Counterparty{ClientID: ids.clientOnA, ConnectionID: ids.connA}, clientOfB.StateBytes(), proof, at)
		if err := proven("ConnOpenTry", err, b, ha, ids.clientOnA, ibc.ConnectionPath(ids.connB)); err != nil {
			return err
		}
		err = ha.ConnOpenAck(ids.connA, ids.connB, clientOfA.StateBytes(), proof, at)
		if err := proven("ConnOpenAck", err, a, hb, ids.clientOnB, ibc.ConnectionPath(ids.connA)); err != nil {
			return err
		}
		if err := step("ConnOpenConfirm", hb.ConnOpenConfirm(ids.connB, proof, at)); err != nil {
			return err
		}
	}

	var err error
	ids.chanA, err = ha.ChanOpenInit(portA, ids.connA, portB, ordering, version)
	if err := proven("ChanOpenInit", err, a, hb, ids.clientOnB, ibc.ChannelPath(portA, ids.chanA)); err != nil {
		return err
	}
	ids.chanB, err = hb.ChanOpenTry(portB, ids.connB,
		ibc.ChannelCounterparty{PortID: portA, ChannelID: ids.chanA}, ordering, version, proof, at)
	if err := proven("ChanOpenTry", err, b, ha, ids.clientOnA, ibc.ChannelPath(portB, ids.chanB)); err != nil {
		return err
	}
	err = ha.ChanOpenAck(portA, ids.chanA, ids.chanB, proof, at)
	if err := proven("ChanOpenAck", err, a, hb, ids.clientOnB, ibc.ChannelPath(portA, ids.chanA)); err != nil {
		return err
	}
	return step("ChanOpenConfirm", hb.ChanOpenConfirm(portB, ids.chanB, proof, at))
}
