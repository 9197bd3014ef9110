package relayer

import (
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
)

// TestChunkedClientUpdateThroughTransactions pins the §IV mechanism end to
// end: a real counterparty update (tens of kilobytes, ~100 signatures) is
// staged across size-limited host transactions whose precompile entries
// verify the commit signatures, and the final commit applies it to the
// Tendermint client inside the contract without any in-contract Ed25519.
func TestChunkedClientUpdateThroughTransactions(t *testing.T) {
	e := newBootEnvWithCP(t, 100)
	b := &Bootstrap{
		HostChain: e.chain, Contract: e.contract, CP: e.cp,
		ValidatorKeys: e.keys, GuestPort: "transfer", CPPort: "transfer",
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.contract.State(e.chain)
	if err != nil {
		t.Fatal(err)
	}
	client, err := st.Handler.Client(res.GuestClientID)
	if err != nil {
		t.Fatal(err)
	}
	before := client.LatestHeight()

	// Advance the counterparty several blocks and build the update.
	for i := 0; i < 5; i++ {
		e.clock.Advance(6 * time.Second)
		e.cp.ProduceBlock()
	}
	target := e.cp.Height()
	update, err := e.cp.UpdateAt(target)
	if err != nil {
		t.Fatal(err)
	}
	headerBytes := update.Marshal()
	if len(headerBytes) < 5*host.MaxTransactionSize {
		t.Fatalf("update only %d bytes; the scenario should not fit a few transactions", len(headerBytes))
	}

	relayerKey := e.keys[0].Public() // reuse a funded account
	builder := guest.NewTxBuilder(e.contract, relayerKey)
	headerHash := update.Header.Hash()
	var sigs []guest.SigBatch
	for _, cs := range update.Commit {
		payload := tendermint.VotePayload(headerHash, cs.Timestamp)
		sigs = append(sigs, guest.SigBatch{Pub: cs.PubKey, Payload: payload[:], Sig: cs.Signature})
	}
	txs := builder.UpdateClientTxs(res.GuestClientID, headerBytes, sigs)
	if len(txs) < 5 {
		t.Fatalf("update packed into %d txs; expected a long chunk sequence", len(txs))
	}
	// The update carries a minimal quorum: its signers, strongest first,
	// pass 2/3 of the set's power only with the last of them.
	power := make(map[cryptoutil.PubKey]uint64, len(update.ValSet.Validators))
	var total uint64
	for _, v := range update.ValSet.Validators {
		power[v.PubKey] = v.Power
		total += v.Power
	}
	signers := make([]uint64, len(update.Commit))
	for i, cs := range update.Commit {
		signers[i] = power[cs.PubKey]
	}
	sort.Slice(signers, func(i, j int) bool { return signers[i] > signers[j] })
	var signed uint64
	for i, p := range signers {
		if signed += p; (signed*3 > total*2) != (i == len(signers)-1) {
			t.Fatalf("%d signers: the first %d carry %d of %d power; want exactly the last to pass 2/3", len(signers), i+1, signed, total)
		}
	}
	// Every signature it carries is a precompile entry of the upload.
	verified := make(map[cryptoutil.PubKey]int)
	for _, tx := range txs {
		for _, sv := range tx.PrecompileSigs {
			verified[sv.Pub]++
		}
	}
	for _, cs := range update.Commit {
		if verified[cs.PubKey] != 1 {
			t.Fatalf("signer %s verified %d times by the precompile, want once", cs.PubKey.Short(), verified[cs.PubKey])
		}
	}
	if len(verified) != len(update.Commit) {
		t.Fatalf("precompile verifies %d keys for %d commit entries", len(verified), len(update.Commit))
	}

	var updatedBy []int // the txs whose blocks report the update
	for i, tx := range txs {
		if tx.Size() > host.MaxTransactionSize {
			t.Fatalf("chunk tx of %d bytes exceeds the limit", tx.Size())
		}
		if err := e.chain.Submit(tx); err != nil {
			t.Fatal(err)
		}
		e.clock.Advance(host.SlotDuration)
		blk := e.chain.ProduceBlock()
		for _, r := range blk.Results {
			if r.Err != nil {
				t.Fatalf("tx %q failed: %v", r.Label, r.Err)
			}
			if r.Units > host.MaxComputeUnits {
				t.Fatalf("tx %q used %d CU", r.Label, r.Units)
			}
		}
		for range blk.EventsOfKind("ClientUpdated") {
			updatedBy = append(updatedBy, i)
		}
	}

	if client.LatestHeight() != ibc.Height(target) {
		t.Fatalf("client at %d, want %d (was %d)", client.LatestHeight(), target, before)
	}
	if len(updatedBy) != 1 || updatedBy[0] != len(txs)-1 {
		t.Fatalf("ClientUpdated events after txs %v of %d, want one, after the last", updatedBy, len(txs))
	}

	// A tampered commit signature must make the whole upload fail.
	for i := 0; i < 3; i++ {
		e.clock.Advance(6 * time.Second)
		e.cp.ProduceBlock()
	}
	target2 := e.cp.Height()
	update2, err := e.cp.UpdateAt(target2)
	if err != nil {
		t.Fatal(err)
	}
	headerHash2 := update2.Header.Hash()
	var sigs2 []guest.SigBatch
	for _, cs := range update2.Commit {
		payload := tendermint.VotePayload(headerHash2, cs.Timestamp)
		sigs2 = append(sigs2, guest.SigBatch{Pub: cs.PubKey, Payload: payload[:], Sig: cs.Signature})
	}
	sigs2[0].Sig[3] ^= 0xff // corrupt
	txs2 := builder.UpdateClientTxs(res.GuestClientID, update2.Marshal(), sigs2)
	sawFailure := false
	for _, tx := range txs2 {
		if err := e.chain.Submit(tx); err != nil {
			t.Fatal(err)
		}
		e.clock.Advance(host.SlotDuration)
		blk := e.chain.ProduceBlock()
		for _, r := range blk.Results {
			if r.Err != nil {
				sawFailure = true
			}
		}
	}
	if !sawFailure {
		t.Fatal("corrupted signature upload fully succeeded")
	}
	if client.LatestHeight() != ibc.Height(target) {
		t.Fatalf("client moved to %d on a corrupted update", client.LatestHeight())
	}
}

// TestDoubleDeliveryRejectedThroughContract drives the paper's headline
// double-delivery guard through the whole stack: the same packet delivered
// twice via chunked RecvPacket transactions — the second commit hits the
// sealed receipt and fails.
func TestDoubleDeliveryRejectedThroughContract(t *testing.T) {
	e := newBootEnv(t)
	b := &Bootstrap{
		HostChain: e.chain, Contract: e.contract, CP: e.cp,
		ValidatorKeys: e.keys, GuestPort: "transfer", CPPort: "transfer",
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.contract.State(e.chain)
	if err != nil {
		t.Fatal(err)
	}

	// The counterparty sends a packet and commits it.
	pkt, err := e.cp.SendPacket("transfer", res.CPChannel, []byte("deliver-once"), 0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(6 * time.Second)
	e.cp.ProduceBlock()
	cpHeight := e.cp.Height()

	// Teach the guest's client about the height.
	update, err := e.cp.UpdateAt(cpHeight)
	if err != nil {
		t.Fatal(err)
	}
	st.BeginDirect(e.clock.Now(), uint64(e.chain.Slot()))
	if err := st.Handler.UpdateClient(res.GuestClientID, update.Marshal()); err != nil {
		t.Fatal(err)
	}

	_, proof, err := e.cp.ProveMembershipAt(cpHeight, ibc.CommitmentPath(pkt.SourcePort, pkt.SourceChannel, pkt.Sequence))
	if err != nil {
		t.Fatal(err)
	}
	builder := guest.NewTxBuilder(e.contract, e.keys[0].Public())
	deliver := func() error {
		txs := builder.RecvPacketTxs(&guest.RecvPayload{
			Packet:      pkt,
			ProofHeight: ibc.Height(cpHeight),
			Proof:       proof,
		})
		var lastErr error
		for _, tx := range txs {
			if err := e.chain.Submit(tx); err != nil {
				return err
			}
			e.clock.Advance(host.SlotDuration)
			blk := e.chain.ProduceBlock()
			for _, r := range blk.Results {
				if r.Err != nil {
					lastErr = r.Err
				}
			}
		}
		return lastErr
	}

	if err := deliver(); err != nil {
		t.Fatalf("first delivery failed: %v", err)
	}
	// The receipt is sealed in the provable store (§III-A).
	receiptPath := ibc.ReceiptPath(pkt.DestPort, pkt.DestChannel, pkt.Sequence)
	if !st.Store.IsSealed(receiptPath) {
		t.Fatal("receipt not sealed after delivery")
	}
	// The second identical delivery must be rejected by the sealed trie.
	err = deliver()
	if err == nil {
		t.Fatal("double delivery succeeded")
	}
	if !errors.Is(err, ibc.ErrPacketAlreadyDelivered) {
		t.Fatalf("second delivery error = %v, want ErrPacketAlreadyDelivered", err)
	}
}
