package guest

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/host"
	"repro/internal/lightclient/tendermint"
)

// tendermintKeys are n validator keys of a counterparty chain.
func tendermintKeys(tb testing.TB, n int) []*cryptoutil.PrivKey {
	tb.Helper()
	keys := make([]*cryptoutil.PrivKey, n)
	for i := range keys {
		keys[i] = cryptoutil.GenerateKeyIndexed("upload-tm", i)
	}
	return keys
}

// testUpdate is an update over the first n of keys, powers 10+i%7 as the
// counterparty assigns them, whose commit holds the first s members of the
// set, and the claims an upload of it carries. The signatures are
// placeholders: only the sizes and the layout matter here.
func testUpdate(keys []*cryptoutil.PrivKey, n, s int) (*tendermint.Update, []SigBatch) {
	vals := make([]tendermint.Validator, n)
	for i := range vals {
		vals[i] = tendermint.Validator{PubKey: keys[i].Public(), Power: 10 + uint64(i%7)}
	}
	vs, err := tendermint.NewValidatorSet(vals)
	if err != nil {
		panic(err)
	}
	h := &tendermint.Header{
		ChainID:    "picasso-sim",
		Height:     42,
		Time:       time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC),
		ValSetHash: vs.Hash(),
	}
	u := &tendermint.Update{Header: h, ValSet: vs}
	var sigs []SigBatch
	for _, v := range vs.Validators[:s] {
		cs := tendermint.CommitSig{PubKey: v.PubKey, Timestamp: h.Time}
		u.Commit = append(u.Commit, cs)
		payload := tendermint.VotePayload(h.Hash(), cs.Timestamp)
		sigs = append(sigs, SigBatch{Pub: cs.PubKey, Payload: payload[:], Sig: cs.Signature})
	}
	return u, sigs
}

// TestUpdateClientPrefixCostsNothing: an update staged as its set's whole
// claim-free chunks first and the rest later fills the same buffer as the
// one-shot upload, in no more transactions, for every set size up to the
// counterparty's 115 and every commit size from the set's quorum up, on the
// three host profiles. Only the Solana profile stages ahead, and there the
// 115-validator set does.
func TestUpdateClientPrefixCostsNothing(t *testing.T) {
	keys := tendermintKeys(t, 115)
	payer := cryptoutil.GenerateKey("upload-relayer").Public()
	for _, profile := range []host.Profile{host.SolanaProfile(), host.NEARLikeProfile(), host.TRONLikeProfile()} {
		b := NewTxBuilder(&Contract{profile: profile}, payer)
		largest := 0
		for n := 1; n <= len(keys); n++ {
			full, _ := testUpdate(keys, n, n)
			everyone := make([]int, n)
			for i := range everyone {
				everyone[i] = i
			}
			quorum := len(full.ValSet.Quorum(everyone))
			set := full.ValSet.Marshal()
			for s := quorum; s <= n; s++ {
				u, sigs := testUpdate(keys, n, s)
				data := u.Marshal()
				oneShot := b.UpdateClientTxs("07-tendermint-0", data, sigs)
				up := b.BeginUpdateClient("07-tendermint-0", set)
				txs := append(append([]*host.Transaction(nil), up.Prefix...), up.Tail(data, sigs)...)
				if got, want := staged(t, txs), staged(t, oneShot); !bytes.Equal(got, want) || !bytes.Equal(got, data) {
					t.Fatalf("%s, %d validators, %d signers: prefix + tail stage %d bytes, one-shot %d, update %d", profile.Name, n, s, len(got), len(want), len(data))
				}
				if len(txs) > len(oneShot) {
					t.Fatalf("%s, %d validators, %d signers: prefix + tail take %d transactions, one-shot %d", profile.Name, n, s, len(txs), len(oneShot))
				}
				if prefix := staged(t, append(up.Prefix, up.Commit)); len(prefix) > len(set) {
					t.Fatalf("%s, %d validators: the prefix stages %d bytes of a %d-byte set", profile.Name, n, len(prefix), len(set))
				}
				for _, tx := range up.Prefix {
					if len(tx.PrecompileSigs) != 0 {
						t.Fatalf("%s, %d validators: a prefix chunk carries claims", profile.Name, n)
					}
				}
				for _, tx := range txs {
					if err := tx.Validate(profile); err != nil {
						t.Fatalf("%s, %d validators, %d signers: %v", profile.Name, n, s, err)
					}
				}
				largest = max(largest, len(up.Prefix))
			}
		}
		if solana := profile.Name == host.SolanaProfile().Name; solana != (largest > 0) {
			t.Errorf("%s: the largest set stages %d chunks ahead", profile.Name, largest)
		}
	}
}

// TestTxBuilderSizesForItsHost: a builder for a contract deployed on a
// host sizes its uploads and batches to that host's profile. An update's
// first chunk carries as many claims as the host's signature limit allows
// and fills the host's instruction room, and a recv batch is cut to half
// the host's compute limit: on the roomy §VI-D hosts, fewer transactions
// and longer batches than on Solana.
func TestTxBuilderSizesForItsHost(t *testing.T) {
	keys := tendermintKeys(t, 24)
	u, sigs := testUpdate(keys, 24, 17)
	update := u.Marshal()
	const budget = 2_000_000 // a hook's declared compute, per packet
	ps := payloads(100, 32)
	solanaUnits := host.SolanaProfile().MaxComputeUnits/2 - host.CUBaseInstruction
	var solanaTxs int
	for _, p := range []host.Profile{host.SolanaProfile(), host.NEARLikeProfile(), host.TRONLikeProfile()} {
		e := newEnvOn(t, 2, p)
		st := e.state()
		st.BeginDirect(e.clock.Now(), uint64(e.chain.Slot()))
		if err := st.Handler.BindPort("transfer", &hookedModule{st: st, budget: budget}); err != nil {
			t.Fatal(err)
		}
		b := NewTxBuilder(e.contract, e.payer)

		txs := b.UpdateClientTxs("07-tendermint-0", update, sigs)
		claims := maxClaimsPerChunk
		if p.MaxTransactionSize > 8*host.MaxTransactionSize {
			claims = p.MaxSignatures - 1
		}
		claims = min(claims, len(sigs))
		room := p.MaxInstructionData(1, 1) - chunkEnvelope - claims*(claimDataBytes+claimEntryBytes)
		if got := len(txs[0].PrecompileSigs); got != claims {
			t.Errorf("%s: the first chunk carries %d claims, want %d", p.Name, got, claims)
		}
		if got, want := len(staged(t, txs[:2])), min(room, len(update)); got != want {
			t.Errorf("%s: the first chunk stages %d bytes, want %d", p.Name, got, want)
		}
		if !bytes.Equal(staged(t, txs), update) {
			t.Errorf("%s: the upload does not stage the update", p.Name)
		}
		for _, tx := range txs {
			if err := tx.Validate(p); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
		}

		units := p.MaxComputeUnits/2 - host.CUBaseInstruction
		got := b.RecvBatchLen(ps, st)
		if want := batchLen(units, ps, st); got != want {
			t.Errorf("%s: RecvBatchLen = %d, want %d (half the host's %d compute units)", p.Name, got, want, p.MaxComputeUnits)
		}
		if p.Name == host.SolanaProfile().Name {
			solanaTxs = len(txs)
			continue
		}
		if solana := batchLen(solanaUnits, ps, st); got <= solana {
			t.Errorf("%s: RecvBatchLen = %d, no more than Solana's %d", p.Name, got, solana)
		}
		if len(txs) >= solanaTxs {
			t.Errorf("%s: the update takes %d transactions, Solana %d", p.Name, len(txs), solanaTxs)
		}
	}
}
