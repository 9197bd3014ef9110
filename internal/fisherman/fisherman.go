// Package fisherman implements the misbehaviour watchdog of §III-C:
// fishermen monitor published validator signatures (gossip, mempools,
// counterparty light-client submissions) and report to the Guest Contract
// any of the three offences — double-signing a height, signing a height
// beyond the head, or signing a block that differs from the canonical
// block at its height. Valid evidence slashes the offender's stake.
package fisherman

import (
	"repro/internal/cryptoutil"
	"repro/internal/guest"
	"repro/internal/guestblock"
	"repro/internal/host"
	"repro/internal/netsim"
)

// Observation is a signature sighting: a validator's signature over a
// claimed (height, block hash).
type Observation struct {
	Height    uint64
	BlockHash cryptoutil.Hash
	PubKey    cryptoutil.PubKey
	Signature cryptoutil.Signature
}

// Gossip is the shared sighting bus fishermen subscribe to. In the
// deployment sightings come from the P2P layer; the simulation publishes
// byzantine signatures here.
type Gossip struct {
	observations []Observation
}

// Publish adds a sighting.
func (g *Gossip) Publish(o Observation) { g.observations = append(g.observations, o) }

// Since returns sightings after cursor and the new cursor.
func (g *Gossip) Since(cursor int) ([]Observation, int) {
	if cursor >= len(g.observations) {
		return nil, cursor
	}
	return g.observations[cursor:], len(g.observations)
}

// Fisherman watches gossip and submits evidence.
type Fisherman struct {
	chain    *host.Chain
	contract *guest.Contract
	gossip   *Gossip
	builder  *guest.TxBuilder
	key      *cryptoutil.PrivKey

	cursor int
	// seen[pub][height] remembers the first sighting per validator and
	// height to detect double-signing.
	seen map[cryptoutil.PubKey]map[uint64]Observation

	// Evidence goes out over the simulated network as reliable calls that
	// retry until the host acknowledges.
	ep    *netsim.Endpoint
	retry netsim.RetryPolicy

	// Submitted counts evidence transactions sent.
	Submitted int
}

// New creates a fisherman at netsim.FishermanNode(index) on net; fund its
// account for fees. Fishermen are permissionless — anyone can run one
// (§III-C).
func New(name string, chain *host.Chain, contract *guest.Contract, gossip *Gossip, net *netsim.Network, index int) *Fisherman {
	key := cryptoutil.GenerateKey("fisherman/" + name)
	return &Fisherman{
		chain:    chain,
		contract: contract,
		gossip:   gossip,
		builder:  guest.NewTxBuilder(contract, key.Public()),
		key:      key,
		seen:     make(map[cryptoutil.PubKey]map[uint64]Observation),
		ep:       net.Node(netsim.FishermanNode(index), nil, nil),
		retry:    netsim.DefaultRetryPolicy(),
	}
}

// Key returns the fisherman's fee-paying key.
func (f *Fisherman) Key() *cryptoutil.PrivKey { return f.key }

// Poll scans new sightings and submits evidence for offences. The audit
// screens the whole poll window's signatures as one batch — forged
// sightings are dropped per-entry rather than failing the poll — and
// classification stays serial to keep evidence submission order
// deterministic.
func (f *Fisherman) Poll() error {
	obs, cursor := f.gossip.Since(f.cursor)
	f.cursor = cursor
	st, err := f.contract.State(f.chain)
	if err != nil {
		return err
	}
	tasks := make([]cryptoutil.VerifyTask, len(obs))
	for i, o := range obs {
		tasks[i] = cryptoutil.HashTask(o.PubKey, guestblock.SigningPayloadForHash(o.BlockHash), o.Signature)
	}
	valid := cryptoutil.DefaultBatchVerifier().VerifyEach(tasks)
	for i, o := range obs {
		if !valid[i] {
			continue // forged sighting, not usable evidence
		}
		if ev := f.classify(st, o); ev != nil {
			f.submit(ev)
		}
		f.remember(o)
	}
	return nil
}

// classify maps a sighting to evidence, or nil if it is benign.
func (f *Fisherman) classify(st *guest.State, o Observation) *guest.Evidence {
	// Offence 2: height beyond the head.
	if o.Height > st.Height() {
		return &guest.Evidence{
			Kind:      guest.EvidenceFutureHeight,
			Validator: o.PubKey,
			Height:    o.Height,
			BlockA:    o.BlockHash,
			SigA:      o.Signature,
		}
	}
	// Offence 3: signature for a block that differs from the canonical
	// block at that height.
	entry, err := st.Entry(o.Height)
	if err == nil && entry.Block.Hash() != o.BlockHash {
		return &guest.Evidence{
			Kind:      guest.EvidenceWrongFork,
			Validator: o.PubKey,
			Height:    o.Height,
			BlockA:    o.BlockHash,
			SigA:      o.Signature,
		}
	}
	// Offence 1: double-signing — two different hashes at one height.
	if prev, ok := f.seen[o.PubKey][o.Height]; ok && prev.BlockHash != o.BlockHash {
		return &guest.Evidence{
			Kind:      guest.EvidenceDoubleSign,
			Validator: o.PubKey,
			Height:    o.Height,
			BlockA:    prev.BlockHash,
			SigA:      prev.Signature,
			BlockB:    o.BlockHash,
			SigB:      o.Signature,
		}
	}
	return nil
}

func (f *Fisherman) remember(o Observation) {
	m, ok := f.seen[o.PubKey]
	if !ok {
		m = make(map[uint64]Observation)
		f.seen[o.PubKey] = m
	}
	if _, ok := m[o.Height]; !ok {
		m[o.Height] = o
	}
}

func (f *Fisherman) submit(ev *guest.Evidence) {
	tx := f.builder.MisbehaviourTx(ev)
	f.ep.ReliableCall(netsim.HostNode, netsim.KindSubmitTx, netsim.MsgSubmitTx{Txs: []*host.Transaction{tx}},
		f.retry, netsim.RetryObserver{}, func(_ any, err error) {
			if err != nil {
				return
			}
			f.Submitted++
		})
}
