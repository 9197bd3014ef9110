package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/ibc"
	"repro/internal/loadgen"
	"repro/internal/middleware"
	"repro/internal/netsim"
	"repro/internal/nodestore"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transfer"
	"repro/internal/trie"
)

// Drivers of the layers that need no chain: codecs, the trie and its
// stores, applications, crypto, transport, routing and the small utilities.

func driveWire(c *driverCtx) error {
	pkts := c.in.packets
	encoded := make([][]byte, len(pkts))
	for i := range pkts {
		encoded[i] = ibc.MarshalPacket(&pkts[i])
	}
	for c.more() {
		if err := c.each("wire.packet_encode_ns", len(pkts), func(i int) error {
			if len(ibc.MarshalPacket(&pkts[i])) == 0 {
				return errors.New("empty encoding")
			}
			return nil
		}); err != nil {
			return err
		}
		if err := c.each("wire.packet_decode_ns", len(encoded), func(i int) error {
			_, err := ibc.UnmarshalPacket(encoded[i])
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// driveTrie works the workload's commitment-key population through the
// sealable trie: build, read, prove, verify, snapshot, flush to the
// workload's store backend, evict and fault back in, seal.
func driveTrie(c *driverCtx) error {
	for c.more() {
		ns, closeStore, err := c.in.nodeStore()
		if err != nil {
			return err
		}
		err = trieRound(c, ns)
		closeStore()
		if err != nil {
			return err
		}
	}
	return nil
}

func trieRound(c *driverCtx, ns nodestore.Store) error {
	keys := c.in.keys
	tr := trie.New()
	tr.SetNodeSource(ns)
	if err := c.each("trie.set_ns", len(keys), func(i int) error { return tr.Set(keys[i], hashValue) }); err != nil {
		return err
	}
	if err := c.each("trie.get_ns", len(keys), func(i int) error {
		_, err := tr.Get(keys[i])
		return err
	}); err != nil {
		return err
	}
	proofs := make([]*trie.Proof, len(keys))
	if err := c.each("trie.prove_ns", len(keys), func(i int) (err error) {
		proofs[i], err = tr.Prove(keys[i])
		return err
	}); err != nil {
		return err
	}
	root := tr.Root()
	if err := c.each("trie.verify_ns", len(keys), func(i int) error {
		return trie.VerifyMembership(root, keys[i], hashValue, proofs[i])
	}); err != nil {
		return err
	}
	const snapshots = 4096
	if err := c.measure("trie.snapshot_ns", snapshots, func() error {
		for i := 0; i < snapshots; i++ {
			tr.Release(tr.Snapshot())
		}
		return nil
	}); err != nil {
		return err
	}
	// Flush the whole population, then read a retained version back through
	// the store after its nodes left the heap.
	version := tr.Snapshot()
	start := time.Now()
	written, err := tr.FlushRoot(ns)
	if err != nil {
		return err
	}
	c.record("trie.flush_ns_per_node", float64(time.Since(start).Nanoseconds())/float64(max(written, 1)))
	if err := tr.Set(cryptoutil.HashUint64('x', 0), hashValue); err != nil { // move the head off the flushed root
		return err
	}
	tr.EvictVersion(version)
	view, err := tr.At(version)
	if err != nil {
		return err
	}
	if err := c.each("trie.faultin_get_ns", len(keys), func(i int) error {
		_, err := view.Get(keys[i])
		return err
	}); err != nil {
		return err
	}
	return c.each("trie.seal_ns", len(keys), func(i int) error { return tr.Seal(keys[i]) })
}

// driveIBCStore measures the provable store above the trie: path hashing,
// a per-block commit of fresh commitments (64 a block) into the workload's
// backend, and membership proofs at the head.
func driveIBCStore(c *driverCtx) error {
	in := c.in
	for c.more() {
		if err := c.each("ibc.path_to_key_ns", len(in.packets), func(i int) error {
			p := &in.packets[i]
			_ = ibc.PathToKey(ibc.CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence))
			return nil
		}); err != nil {
			return err
		}
		ns, closeStore, err := in.nodeStore()
		if err != nil {
			return err
		}
		err = ibcStoreRound(c, ns)
		closeStore()
		if err != nil {
			return err
		}
	}
	return nil
}

func ibcStoreRound(c *driverCtx, ns nodestore.Store) error {
	paths := c.in.paths
	perBlock := min(blockBatch, len(paths))
	store, err := ibc.NewStoreWithBackend(ns)
	if err != nil {
		return err
	}
	var commitNs []float64
	committed := 0
	for ; committed+perBlock <= len(paths); committed += perBlock {
		for _, path := range paths[committed : committed+perBlock] {
			if err := store.Set(path, hashValue[:]); err != nil {
				return err
			}
		}
		start := time.Now()
		store.CommitAt(uint64(committed/perBlock + 1))
		commitNs = append(commitNs, float64(time.Since(start).Nanoseconds()))
	}
	if err := store.SyncBackend(); err != nil {
		return err
	}
	c.record("ibc.store_commit_ns", median(commitNs))
	return c.each("ibc.prove_membership_ns", committed, func(i int) error {
		_, _, err := store.ProveMembership(paths[i])
		return err
	})
}

// driveApps measures what a packet costs above the handler: the bare
// transfer app, the callbacks+fees stack around it, forward-memo handling
// and the send-side escrow.
func driveApps(c *driverCtx) error {
	in := c.in
	datas := make([]transfer.PacketData, len(in.datas))
	for i, raw := range in.datas {
		d, err := transfer.UnmarshalPacketData(raw)
		if err != nil {
			return err
		}
		datas[i] = *d
	}
	recv := func(metric string, m ibc.Module) error {
		return c.each(metric, len(in.packets), func(i int) error {
			_, err := m.OnRecvPacket(in.packets[i])
			return err
		})
	}
	for c.more() {
		// Fresh apps each round, so balances and maps start the same size.
		// Bare is how core binds a plain channel: an empty stack.
		if err := recv("middleware.recv_bare_ns", middleware.NewStack(transfer.New("transfer"))); err != nil {
			return err
		}
		app := transfer.New("transfer")
		stack := middleware.NewStack(app, middleware.NewCallbacks(),
			middleware.NewFees(app, middleware.FeeSchedule{Denom: "fee", RecvFee: 1}))
		if err := recv("middleware.recv_stacked_ns", stack); err != nil {
			return err
		}
		if err := recv("transfer.on_recv_ns", transfer.New("transfer")); err != nil {
			return err
		}
		if err := c.each("middleware.forward_memo_ns", len(datas), func(i int) error {
			// What a forwarding hop does: parse this hop's instruction and
			// re-encode the remainder for the next one.
			if info := middleware.ParseForwardMemo(datas[i].Memo); info != nil {
				_ = middleware.ForwardMemo(*info)
			}
			return nil
		}); err != nil {
			return err
		}
		sender := transfer.New("transfer")
		for i := range datas {
			sender.Mint(datas[i].Sender, datas[i].Denom, datas[i].Amount)
		}
		if err := c.each("transfer.prepare_send_ns", len(datas), func(i int) error {
			return sender.PrepareSend("channel-0", &datas[i])
		}); err != nil {
			return err
		}
	}
	return nil
}

func driveCrypto(c *driverCtx) error {
	const quorum, n = 24, 96 // four quorums a round
	keys := make([]*cryptoutil.PrivKey, quorum)
	for i := range keys {
		keys[i] = cryptoutil.GenerateKeyIndexed("benchmark/crypto", i)
	}
	round := uint64(0)
	for c.more() {
		round++
		tasks := make([]cryptoutil.VerifyTask, n)
		if err := c.each("cryptoutil.sign_ns", n, func(i int) error {
			h := cryptoutil.HashUint64('s', round<<32|uint64(i))
			tasks[i] = cryptoutil.HashTask(keys[i%quorum].Public(), h, keys[i%quorum].SignHash(h))
			return nil
		}); err != nil {
			return err
		}
		if err := c.each("cryptoutil.verify_ns", n, func(i int) error {
			if !cryptoutil.Verify(tasks[i].Pub, tasks[i].Msg, tasks[i].Sig) {
				return errors.New("valid signature rejected")
			}
			return nil
		}); err != nil {
			return err
		}
		// A 24-signature quorum through the worker pool, cache off so every
		// batch pays for its Ed25519.
		verifier := cryptoutil.NewBatchVerifier(cryptoutil.WithCacheSize(0))
		if err := c.each("cryptoutil.batch24_ns", n/quorum, func(i int) error {
			if !verifier.VerifyAll(tasks[i*quorum : (i+1)*quorum]) {
				return errors.New("valid batch rejected")
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// driveNetsim measures one request/response over the simulated transport:
// inline on a perfect link (the pair workloads' network), and through
// ReliableCall's timers and retries on the mesh's lossy link.
func driveNetsim(c *driverCtx) error {
	const calls = 2000
	echo := func(_ netsim.NodeID, _ string, payload any) (any, error) { return payload, nil }
	run := func(metric string, link netsim.LinkConfig, reliable bool) error {
		sched := sim.NewScheduler(time.Unix(1_700_000_000, 0))
		nw := netsim.New(sched, netsim.Config{Seed: c.in.seed, Default: link})
		a := nw.Node("a", nil, nil)
		nw.Node("b", nil, echo)
		done := 0
		cb := func(_ any, err error) {
			if err == nil {
				done++
			}
		}
		if err := c.measure(metric, calls, func() error {
			for i := 0; i < calls; i++ {
				if reliable {
					a.ReliableCall("b", "bench", i, netsim.DefaultRetryPolicy(), netsim.RetryObserver{}, cb)
				} else {
					a.Call("b", "bench", i, cb)
				}
			}
			sched.RunFor(time.Hour)
			return nil
		}); err != nil {
			return err
		}
		if done != calls {
			return fmt.Errorf("%s: %d of %d calls completed", metric, done, calls)
		}
		return nil
	}
	for c.more() {
		if err := run("netsim.call_inline_ns", netsim.LinkConfig{}, false); err != nil {
			return err
		}
		if err := run("netsim.call_lossy_ns", c.in.lossy, true); err != nil {
			return err
		}
	}
	return nil
}

func driveRouting(c *driverCtx) error {
	const routes, refreshes = 20_000, 2000
	table := routing.NewTable(c.in.links)
	view := routing.NewView(c.in.links, routing.DefaultCostModel(), c.in.seed)
	ids := make([]string, len(c.in.links))
	for i, l := range c.in.links {
		ids[i] = routing.LinkID(l.A, l.B)
	}
	for c.more() {
		if err := c.measure("routing.table_route_ns", routes, func() error {
			for i := 0; i < routes; i++ {
				if _, err := table.Route("guest", "c"); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := c.measure("routing.view_route_flow_ns", routes, func() error {
			for i := 0; i < routes; i++ {
				if _, err := view.RouteFlow("guest", "c", "sender", uint64(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := c.each("routing.view_refresh_ns", refreshes, func(i int) error {
			// Alternate a healthy and a degraded sample so hysteresis lets
			// every refresh recompute.
			view.Observe(ids[i%len(ids)], routing.LinkHealth{Latency: float64(1 + 9*(i%2)), Backlog: 50 * (i % 2)})
			view.Refresh()
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// driveNodestore measures the node store backends directly: puts into
// memory and into the WAL, preads back, the group-fsync tail, and a cold
// open's replay. Times on the WAL are this filesystem's (tmpfs makes
// fsync nearly free; results.json records the type).
func driveNodestore(c *driverCtx) error {
	for c.more() {
		dir, err := os.MkdirTemp(c.in.scratch, "nodestore-*")
		if err != nil {
			return err
		}
		err = nodestoreRound(c, filepath.Join(dir, "wal"))
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	return nil
}

func nodestoreRound(c *driverCtx, walDir string) error {
	const nodes = 8192
	hashes := make([]cryptoutil.Hash, nodes)
	enc := make([]byte, 120)
	for i := range hashes {
		hashes[i] = cryptoutil.HashUint64('n', uint64(i))
	}
	puts := func(metric string, s nodestore.Store) error {
		return c.each(metric, nodes, func(i int) error { return s.NodePut(hashes[i], enc) })
	}
	if err := puts("nodestore.mem_put_ns", nodestore.NewMem()); err != nil {
		return err
	}
	d, err := nodestore.Open(walDir, nodestore.DiskConfig{})
	if err != nil {
		return err
	}
	defer d.Close()
	if err := puts("nodestore.disk_put_ns", d); err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return err
	}
	if err := c.each("nodestore.disk_get_ns", nodes, func(i int) error {
		if _, ok, err := d.NodeGet(hashes[(i*31)%nodes]); err != nil || !ok {
			return fmt.Errorf("node %d: found %v: %v", i, ok, err)
		}
		return nil
	}); err != nil {
		return err
	}
	// A block's worth of fresh nodes, a root record and a group fsync, 128
	// times: the finalisation cadence.
	for block := uint64(1); block <= 128; block++ {
		for i := uint64(0); i < blockBatch; i++ {
			if err := d.NodePut(cryptoutil.HashUint64('m', block<<16|i), enc); err != nil {
				return err
			}
		}
		if err := d.CommitRoot(nodestore.RootRecord{Version: block, Height: block, Root: hashes[0]}); err != nil {
			return err
		}
		if err := d.Sync(); err != nil {
			return err
		}
	}
	c.record("nodestore.disk_sync_ms_p99", d.Stats().SyncP99Ms)
	if err := d.Close(); err != nil {
		return err
	}
	start := time.Now()
	reopened, err := nodestore.Open(walDir, nodestore.DiskConfig{})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	defer reopened.Close()
	records := reopened.Stats().RecoveredRecords
	if records == 0 {
		return errors.New("cold open replayed no records")
	}
	c.record("nodestore.recover_ms_per_10k_records", float64(elapsed.Nanoseconds())/1e6*10_000/float64(records))
	return nil
}

// driveSmall measures the utilities every packet touches a few times.
func driveSmall(c *driverCtx) error {
	const events = 20_000
	now := time.Unix(1_700_000_000, 0)
	for c.more() {
		sched := sim.NewScheduler(now)
		fired := 0
		if err := c.measure("sim.event_ns", events, func() error {
			for i := 0; i < events; i++ {
				sched.After(time.Duration(i%997)*time.Millisecond, func() { fired++ })
			}
			sched.RunFor(time.Second)
			return nil
		}); err != nil {
			return err
		}
		if fired != events {
			return fmt.Errorf("sim: %d of %d events fired", fired, events)
		}
		counter := telemetry.NewRegistry().Counter("bench")
		if err := c.measure("telemetry.counter_inc_ns", 50*events, func() error {
			for i := 0; i < 50*events; i++ {
				counter.Inc()
			}
			return nil
		}); err != nil {
			return err
		}
		tracer := telemetry.NewTracer()
		keys := c.in.paths
		stages := []string{telemetry.StageSend, telemetry.StageFinalise, telemetry.StageRecv}
		if err := c.each("telemetry.trace_span_ns", len(stages)*len(keys), func(i int) error {
			tracer.Mark(keys[i%len(keys)], stages[i/len(keys)], now)
			return nil
		}); err != nil {
			return err
		}
		sampler := loadgen.NewSampler(loadgen.Config{Seed: c.in.seed}, 2, nil)
		if err := c.each("loadgen.sample_ns", events, func(int) error {
			sampler.Next()
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
