package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/counterparty"
	"repro/internal/cryptoutil"
	"repro/internal/experiments"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
	"repro/internal/middleware"
	"repro/internal/relayer"
	"repro/internal/transfer"
)

// Drivers of the layers that only exist inside a chain: the IBC handler,
// the counterparty chain and its light client on a bootstrapped chain
// pair; the host runtime, the guest contract, quorum verification and the
// guest light client on a live deployment whose scheduler never runs, so
// every call below is the benchmark's.

// blockBatch is how many packets a driver round puts into one block.
const blockBatch = 64

// driveChainPair bootstraps two counterparty chains with the workload's
// validator-set size (full ICS-03/04 handshake) and then plays the relayer
// by hand: send on A, commit, update B's client of A, prove, receive on B,
// commit, update A's client of B, acknowledge on A.
func driveChainPair(c *driverCtx) error {
	in := c.in
	clock := host.NewManualClock(time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC))
	newChain := func(id string) (*counterparty.Chain, error) {
		cfg := counterparty.DefaultConfig()
		cfg.ChainID = id
		cfg.NumValidators = in.cpValidators
		chain, err := counterparty.New(cfg, clock)
		if err != nil {
			return nil, err
		}
		return chain, chain.Handler().BindPort("transfer", middleware.NewStack(transfer.New("transfer")))
	}
	a, err := newChain("bench-a")
	if err != nil {
		return err
	}
	b, err := newChain("bench-b")
	if err != nil {
		return err
	}
	boot, err := (&relayer.PairBootstrap{A: a, B: b, PortA: "transfer", PortB: "transfer"}).Run()
	if err != nil {
		return err
	}
	clientOfA, err := b.Handler().Client(boot.ClientAOnB)
	if err != nil {
		return err
	}

	next := 0
	for c.more() {
		pkts := make([]*ibc.Packet, blockBatch)
		if err := c.each("ibc.send_packet_ns", blockBatch, func(i int) (err error) {
			pkts[i], err = a.Handler().SendPacket("transfer", boot.ChanA, in.datas[next%len(in.datas)], 0, time.Time{})
			next++
			return err
		}); err != nil {
			return err
		}
		hA, err := commitAndUpdate(c, clock, a, b, boot.ClientAOnB, true)
		if err != nil {
			return err
		}
		paths := make([]string, blockBatch)
		values := make([][]byte, blockBatch)
		proofs := make([][]byte, blockBatch)
		if err := c.each("counterparty.prove_at_ns", blockBatch, func(i int) (err error) {
			paths[i] = ibc.CommitmentPath(pkts[i].SourcePort, pkts[i].SourceChannel, pkts[i].Sequence)
			values[i], proofs[i], err = a.ProveMembershipAt(hA, paths[i])
			return err
		}); err != nil {
			return err
		}
		if err := c.each("tendermint.verify_membership_ns", blockBatch, func(i int) error {
			return clientOfA.VerifyMembership(ibc.Height(hA), paths[i], values[i], proofs[i])
		}); err != nil {
			return err
		}
		acks := make([][]byte, blockBatch)
		if err := c.each("ibc.recv_packet_ns", blockBatch, func(i int) (err error) {
			acks[i], err = b.Handler().RecvPacket(pkts[i], proofs[i], ibc.Height(hA))
			return err
		}); err != nil {
			return err
		}
		hB, err := commitAndUpdate(c, clock, b, a, boot.ClientBOnA, false)
		if err != nil {
			return err
		}
		for i, p := range pkts {
			if _, proofs[i], err = b.ProveMembershipAt(hB, ibc.AckPath(p.DestPort, p.DestChannel, p.Sequence)); err != nil {
				return err
			}
		}
		if err := c.each("ibc.ack_packet_ns", blockBatch, func(i int) error {
			return a.Handler().AcknowledgePacket(pkts[i], acks[i], proofs[i], ibc.Height(hB))
		}); err != nil {
			return err
		}
	}
	return nil
}

// commitAndUpdate commits src's pending state into a block and teaches it
// to src's light client on dst, timing the three steps when measured is
// set. A block whose drawn signer subset carries less than 2/3 of the
// voting power yields an update the client rightly refuses (small
// validator sets draw one every few dozen blocks: README, known limits);
// the relayers move on to a later height, and so does this.
func commitAndUpdate(c *driverCtx, clock *host.ManualClock, src, dst *counterparty.Chain, client ibc.ClientID, measured bool) (uint64, error) {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		clock.Advance(src.BlockInterval())
		start := time.Now()
		height := src.ProduceBlock().Height
		produced := time.Since(start)
		var update *tendermint.Update
		if update, err = src.UpdateAt(height); err != nil {
			return 0, err
		}
		signed := time.Since(start) - produced
		header := update.Marshal()
		start = time.Now()
		if err = dst.Handler().UpdateClient(client, header); err != nil {
			continue
		}
		if measured {
			c.record("counterparty.produce_block_ns", float64(produced.Nanoseconds()))
			c.record("counterparty.update_at_ns", float64(signed.Nanoseconds()))
			c.record("tendermint.update_ns", float64(time.Since(start).Nanoseconds()))
		}
		return height, nil
	}
	return 0, err
}

// driveDeployment builds the workload's pair deployment (its store
// backend included) and drives the host and guest layers directly.
func driveDeployment(c *driverCtx) error {
	in := c.in
	params := guest.DefaultParams()
	params.PipelineDepth = 3
	cfg := core.Config{
		Seed:        networkSeed,
		Channels:    experiments.ChannelTopology(2, 0),
		GuestParams: params,
		Behaviours:  experiments.HealthyBehaviours(8),
	}
	if in.w.disk {
		dir, err := os.MkdirTemp(in.scratch, "deployment-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.Store = core.StoreSpec{Dir: dir, ColdRetention: 8}
	}
	net, err := core.NewNetwork(cfg)
	if err != nil {
		return err
	}
	defer net.CloseStores()
	st, err := net.GuestState()
	if err != nil {
		return err
	}
	sender, err := net.Contract.PacketSender(net.Host)
	if err != nil {
		return err
	}
	clientOfGuest, err := net.CP.Handler().Client(net.Boot.GuestOnCPClientID)
	if err != nil {
		return err
	}
	rt := net.Channels[0]
	relayerTxs := guest.NewTxBuilder(net.Contract, net.Relayer.Key().Public())
	clock := net.Sched.Clock()
	slot := uint64(net.Host.Slot())

	// drain produces host blocks until the mempool is empty and returns how
	// many transactions ran, and the first failure among them if any.
	drain := func() (ran int, err error) {
		for net.Host.PendingCount() > 0 {
			clock.Advance(net.Host.Profile().SlotDuration)
			block := net.Host.ProduceBlock()
			for _, r := range block.Results {
				if r.Err != nil && err == nil {
					err = fmt.Errorf("host tx %q failed: %w", r.Label, r.Err)
				}
			}
			ran += len(block.Results)
		}
		return ran, err
	}
	// timedDrain records the drain's host time per unit, units being known
	// only afterwards (transactions run, signatures checked, packets).
	timedDrain := func(metric string, units func(ran int) int) error {
		start := time.Now()
		ran, err := drain()
		if err != nil {
			return fmt.Errorf("%s: %w", metric, err)
		}
		c.record(metric, float64(time.Since(start).Nanoseconds())/float64(max(units(ran), 1)))
		return nil
	}

	transfers := in.transfers
	next := 0
	for c.more() {
		// Outbound through the host runtime: submit and execute SendPacket
		// transactions, escrowed as core.InjectTransfer does.
		txs := make([]*host.Transaction, blockBatch)
		for i := range txs {
			t := &transfers[next%len(transfers)]
			next++
			net.Host.Fund(t.sender, host.LamportsPerSOL)
			rt.GuestApp.Mint(t.sender.String(), loadDenom, t.amount)
			data := &transfer.PacketData{Denom: loadDenom, Amount: t.amount, Sender: t.sender.String(), Receiver: receiverOf(t), Memo: t.memo}
			if err := rt.GuestApp.PrepareSend(rt.GuestChannel, data); err != nil {
				return err
			}
			txs[i] = guest.NewTxBuilder(net.Contract, t.sender).SendPacketTx(&guest.SendPacketArgs{
				Sender: t.sender, Port: rt.Spec.GuestPort, Channel: rt.GuestChannel, Data: data.Marshal()})
		}
		if err := c.each("host.submit_ns", blockBatch, func(i int) error { return net.Host.Submit(txs[i]) }); err != nil {
			return err
		}
		if err := timedDrain("host.produce_block_ns_per_tx", func(ran int) int { return ran }); err != nil {
			return err
		}

		// The guest contract without the host around it: handler sends, then
		// a block, its quorum, and the counterparty's client update.
		slot++
		st.BeginDirect(clock.Now(), slot)
		sent := make([]*ibc.Packet, blockBatch)
		if err := c.each("guest.send_exec_ns", blockBatch, func(i int) (err error) {
			sent[i], err = sender.SendPacket(rt.Spec.GuestPort, rt.GuestChannel, in.datas[next%len(in.datas)], 0, time.Time{})
			next++
			return err
		}); err != nil {
			return err
		}
		clock.Advance(time.Second)
		slot++
		st.BeginDirect(clock.Now(), slot)
		var entry *guest.BlockEntry
		if err := c.measure("guest.generate_block_ns", 1, func() (err error) {
			entry, err = st.DirectGenerateBlock()
			return err
		}); err != nil {
			return err
		}
		if err := st.DirectFinalise(entry, net.ValidatorKeys); err != nil {
			return err
		}
		signed := entry.SignedBlock()
		verifier := cryptoutil.NewBatchVerifier(cryptoutil.WithCacheSize(0))
		const quorums = 16
		if err := c.each("guestblock.quorum_verify_ns", quorums, func(int) error {
			return signed.VerifyQuorumWith(entry.Epoch, verifier)
		}); err != nil {
			return err
		}
		header := signed.Marshal()
		if err := c.measure("guestlc.update_ns", 1, func() error {
			return net.CP.Handler().UpdateClient(net.Boot.GuestOnCPClientID, header)
		}); err != nil {
			return err
		}
		height := entry.Block.Height
		paths := make([]string, blockBatch)
		values := make([][]byte, blockBatch)
		proofs := make([][]byte, blockBatch)
		for i, p := range sent {
			paths[i] = ibc.CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence)
			if values[i], proofs[i], err = st.ProveMembershipAt(height, paths[i]); err != nil {
				return err
			}
		}
		if err := c.each("guestlc.verify_membership_ns", blockBatch, func(i int) error {
			return clientOfGuest.VerifyMembership(ibc.Height(height), paths[i], values[i], proofs[i])
		}); err != nil {
			return err
		}

		// Inbound, the paper's costly direction: a chunked client update
		// whose signatures the precompile checks, then chunked receives.
		const inbound = 8
		arrived := make([]*ibc.Packet, inbound)
		for i := range arrived {
			t := &transfers[next%len(transfers)]
			next++
			rt.CPApp.Mint(t.sender.String(), loadDenom, t.amount)
			if arrived[i], err = net.SendTransferFromCPOn(0, t.sender.String(), receiverOf(t), loadDenom, t.amount, t.memo, 0); err != nil {
				return err
			}
		}
		var hC uint64
		for attempt := 0; ; attempt++ {
			clock.Advance(net.CP.BlockInterval())
			hC = net.CP.ProduceBlock().Height
			update, err := net.CP.UpdateAt(hC)
			if err != nil {
				return err
			}
			headerHash := update.Header.Hash()
			sigs := make([]guest.SigBatch, len(update.Commit))
			for i, cs := range update.Commit {
				payload := tendermint.VotePayload(headerHash, cs.Timestamp)
				sigs[i] = guest.SigBatch{Pub: cs.PubKey, Payload: payload[:], Sig: cs.Signature}
			}
			for _, tx := range relayerTxs.UpdateClientTxs(net.Boot.GuestClientID, update.Marshal(), sigs) {
				if err := net.Host.Submit(tx); err != nil {
					return err
				}
			}
			// A commit short of 2/3 of the voting power fails on the guest as
			// it must (see commitAndUpdate); take the next block instead.
			if err = timedDrain("host.precompile_ns_per_sig", func(int) int { return len(sigs) }); err == nil {
				break
			}
			if attempt == 7 {
				return err
			}
		}
		for _, p := range arrived {
			_, proof, err := net.CP.ProveMembershipAt(hC, ibc.CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence))
			if err != nil {
				return err
			}
			for _, tx := range relayerTxs.RecvPacketTxs(&guest.RecvPayload{Packet: p, ProofHeight: ibc.Height(hC), Proof: proof}) {
				if err := net.Host.Submit(tx); err != nil {
					return err
				}
			}
		}
		if err := timedDrain("guest.recv_chunked_ns", func(int) int { return inbound }); err != nil {
			return err
		}
		for _, p := range arrived {
			if !st.Handler.PacketDelivered(p) {
				return errors.New("guest.recv_chunked_ns: a chunked receive did not deliver its packet")
			}
		}
	}
	return nil
}
