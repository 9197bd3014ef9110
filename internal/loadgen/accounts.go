package loadgen

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/cryptoutil"
)

// Accounts is a Zipf-popular population of synthetic sender accounts.
// Host transactions declare rather than verify their signers, so senders
// need no private keys: a pubkey is derived by hashing the account index,
// which makes populations of millions free until an account is actually
// touched. Index 0 is the most popular account (rand.Zipf assigns mass
// monotonically), so "the head" is always the lowest indices.
type Accounts struct {
	zipf *rand.Zipf

	cache map[uint64]cryptoutil.PubKey
	// materialise is called once per distinct account on first touch
	// (funding, token minting); nil for pure sampling.
	materialise func(idx uint64, pub cryptoutil.PubKey)
}

// NewAccounts builds the population, sampling with rng. materialise, when
// non-nil, runs once per distinct account the first time it is drawn.
func NewAccounts(rng *rand.Rand, materialise func(idx uint64, pub cryptoutil.PubKey)) *Accounts {
	return &Accounts{
		zipf:        rand.NewZipf(rng, zipfS, 1, Population-1),
		cache:       make(map[uint64]cryptoutil.PubKey),
		materialise: materialise,
	}
}

// Materialised returns how many distinct accounts have been touched.
func (a *Accounts) Materialised() int { return len(a.cache) }

// SampleIndex draws an account index by popularity.
func (a *Accounts) SampleIndex() uint64 { return a.zipf.Uint64() }

// Pub returns (deriving and materialising on first touch) the pubkey of
// account idx.
func (a *Accounts) Pub(idx uint64) cryptoutil.PubKey {
	if pub, ok := a.cache[idx]; ok {
		return pub
	}
	pub := AccountKey(idx)
	a.cache[idx] = pub
	if a.materialise != nil {
		a.materialise(idx, pub)
	}
	return pub
}

// AccountKey derives the synthetic pubkey of account idx.
func AccountKey(idx uint64) cryptoutil.PubKey {
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], idx)
	h := cryptoutil.HashTagged('L', []byte("loadgen/account"), be[:])
	var pub cryptoutil.PubKey
	copy(pub[:], h[:])
	return pub
}
