package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/experiments"
	"repro/internal/ibc"
	"repro/internal/netsim"
	"repro/internal/nodestore"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/transfer"
)

// Layer drivers time calls into each module's exported functions from
// outside, on the workload's own inputs: its packets and key population,
// its validator-set sizes, its store backend. Each driver group builds its
// fixture once and then measures batches until its share of the budget is
// spent; a metric is the median per-operation time over the batches, and
// an *_allocs metric the mallocs per operation over all of them.

// layerGroup is one fixture and the metrics measured on it.
type layerGroup struct {
	name    string
	metrics []layerMetric
	run     func(c *driverCtx) error
}

// layerMetric is one timing metric and, when allocs is set, the name of
// its allocations-per-operation companion.
type layerMetric struct {
	metric string
	unit   string // "ns" unless stated
	allocs string
}

func ns(metric string) layerMetric { return layerMetric{metric: metric, unit: "ns"} }
func nsAllocs(metric, allocs string) layerMetric {
	return layerMetric{metric: metric, unit: "ns", allocs: allocs}
}

var layerGroups = []layerGroup{
	{"wire", []layerMetric{ns("wire.packet_encode_ns"), nsAllocs("wire.packet_decode_ns", "wire.packet_decode_allocs")}, driveWire},
	{"trie", []layerMetric{nsAllocs("trie.set_ns", "trie.set_allocs"), ns("trie.get_ns"), ns("trie.prove_ns"), ns("trie.verify_ns"),
		ns("trie.seal_ns"), ns("trie.snapshot_ns"), ns("trie.flush_ns_per_node"), ns("trie.faultin_get_ns")}, driveTrie},
	{"ibc.store", []layerMetric{ns("ibc.path_to_key_ns"), ns("ibc.store_commit_ns"), ns("ibc.prove_membership_ns")}, driveIBCStore},
	{"chain-pair", []layerMetric{ns("ibc.send_packet_ns"), nsAllocs("ibc.recv_packet_ns", "ibc.recv_packet_allocs"), ns("ibc.ack_packet_ns"),
		ns("counterparty.produce_block_ns"), ns("counterparty.update_at_ns"), ns("counterparty.prove_at_ns"),
		ns("tendermint.update_ns"), ns("tendermint.verify_membership_ns")}, driveChainPair},
	{"middleware", []layerMetric{ns("middleware.recv_bare_ns"), nsAllocs("middleware.recv_stacked_ns", "middleware.recv_stacked_allocs"),
		ns("middleware.forward_memo_ns"), ns("transfer.prepare_send_ns"), ns("transfer.on_recv_ns")}, driveApps},
	{"deployment", []layerMetric{ns("host.submit_ns"), ns("host.produce_block_ns_per_tx"), ns("host.precompile_ns_per_sig"),
		ns("guest.send_exec_ns"), ns("guest.generate_block_ns"), ns("guest.recv_chunked_ns"), ns("guestblock.quorum_verify_ns"),
		ns("guestlc.update_ns"), ns("guestlc.verify_membership_ns")}, driveDeployment},
	{"cryptoutil", []layerMetric{ns("cryptoutil.verify_ns"), ns("cryptoutil.batch24_ns"), ns("cryptoutil.sign_ns")}, driveCrypto},
	{"netsim", []layerMetric{nsAllocs("netsim.call_inline_ns", "netsim.call_allocs"), ns("netsim.call_lossy_ns")}, driveNetsim},
	{"routing", []layerMetric{ns("routing.table_route_ns"), ns("routing.view_route_flow_ns"), ns("routing.view_refresh_ns")}, driveRouting},
	{"nodestore", []layerMetric{ns("nodestore.mem_put_ns"), ns("nodestore.disk_put_ns"), ns("nodestore.disk_get_ns"),
		{metric: "nodestore.disk_sync_ms_p99", unit: "ms"}, {metric: "nodestore.recover_ms_per_10k_records", unit: "ms"}}, driveNodestore},
	{"sim", []layerMetric{nsAllocs("sim.event_ns", "sim.event_allocs"), ns("telemetry.counter_inc_ns"), ns("telemetry.trace_span_ns"),
		ns("loadgen.sample_ns")}, driveSmall},
}

// layerDrivers flattens the groups' metrics for spec.go.
var layerDrivers = func() []layerMetric {
	var out []layerMetric
	for _, g := range layerGroups {
		out = append(out, g.metrics...)
	}
	return out
}()

// layerInputs are the workload's own inputs, as the drivers consume them.
type layerInputs struct {
	w       *workloadSpec
	seed    int64
	scratch string
	// The reference phase's transfers as ICS-20 packets on transfer/channel-0,
	// mesh memos nested for the 3-hop route; datas, paths and keys are the
	// packets' data, commitment paths and trie keys.
	transfers []transferRec
	packets   []ibc.Packet
	datas     [][]byte
	paths     []string
	keys      [][32]byte
	// cpValidators is the counterparty validator-set size a light-client
	// update verifies: 115 on the pair topology, 24 per mesh chain.
	cpValidators int
	lossy        netsim.LinkConfig
	links        []routing.Link
}

func newLayerInputs(w *workloadSpec, seed int64, scratch string) *layerInputs {
	in := &layerInputs{w: w, seed: seed, scratch: scratch, cpValidators: 115}
	in.lossy = netsim.LinkConfig{Latency: sim.Uniform{Min: 20 * time.Millisecond, Max: 90 * time.Millisecond}, Drop: 0.05}
	for i, l := range experiments.LineMeshTopology().Links {
		in.links = append(in.links, routing.Link{A: l.A, B: l.B, PortA: "transfer", PortB: "transfer",
			ChannelA: ibc.ChannelID(fmt.Sprintf("channel-%d", i)), ChannelB: ibc.ChannelID(fmt.Sprintf("channel-%d", i+1))})
	}
	var ref phaseSpec
	for _, ph := range w.phases {
		if ph.reference {
			ref = ph
		}
	}
	flows := 2
	memoOf := func(t *transferRec) (receiver, memo string) { return receiverOf(t), t.memo }
	if w.scenario == meshLine {
		in.cpValidators = 24
		flows = len(meshFlows)
		route, err := routing.NewTable(in.links).Route("guest", "c")
		if err != nil {
			panic(err) // the line topology is a literal
		}
		memoOf = func(t *transferRec) (string, string) {
			plan := routing.Plan(route, "mesh-recv-0", "forward-module", t.memo)
			return plan.Receiver, plan.Memo
		}
	}
	in.transfers = drawTransfers(ref, subSeed(seed, w, 0, ref.name), flows, nil)
	for i := range in.transfers {
		t := &in.transfers[i]
		receiver, memo := memoOf(t)
		data := (&transfer.PacketData{Denom: loadDenom, Amount: t.amount, Sender: t.sender.String(), Receiver: receiver, Memo: memo}).Marshal()
		p := ibc.Packet{Sequence: uint64(i + 1), SourcePort: "transfer", SourceChannel: "channel-0",
			DestPort: "transfer", DestChannel: "channel-0", Data: data}
		path := ibc.CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence)
		in.packets = append(in.packets, p)
		in.datas = append(in.datas, data)
		in.paths = append(in.paths, path)
		in.keys = append(in.keys, ibc.PathToKey(path))
	}
	return in
}

// nodeStore opens the workload's store backend: a WAL under the scratch
// directory for outbound-disk, the in-memory reference otherwise.
func (in *layerInputs) nodeStore() (nodestore.Store, func(), error) {
	if !in.w.disk {
		return nodestore.NewMem(), func() {}, nil
	}
	dir, err := os.MkdirTemp(in.scratch, "layer-*")
	if err != nil {
		return nil, nil, err
	}
	d, err := nodestore.Open(dir, nodestore.DiskConfig{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return d, func() { d.Close(); os.RemoveAll(dir) }, nil
}

// driverCtx is one group's measuring context.
type driverCtx struct {
	in       *layerInputs
	rec      *spanRecorder
	deadline time.Time
	batches  int

	perOp   map[string][]float64 // metric → per-operation value of each batch
	mallocs map[string]uint64
	ops     map[string]int
}

// more reports whether the group should measure another round of batches:
// at least three, then until the group's share of the budget is spent.
func (c *driverCtx) more() bool {
	c.batches++
	return c.batches <= 3 || time.Now().Before(c.deadline)
}

// measure times fn as one batch of n operations of metric.
func (c *driverCtx) measure(metric string, n int, fn func() error) error {
	var m0, m1 runtime.MemStats
	end := c.rec.begin(metric)
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	end()
	if err != nil {
		return fmt.Errorf("%s: %w", metric, err)
	}
	c.record(metric, float64(elapsed.Nanoseconds())/float64(max(n, 1)))
	c.mallocs[metric] += m1.Mallocs - m0.Mallocs
	c.ops[metric] += n
	return nil
}

// each times n calls of op as one batch of metric. Operations of a few
// nanoseconds use measure with their own loop instead: the indirect call
// would show.
func (c *driverCtx) each(metric string, n int, op func(i int) error) error {
	return c.measure(metric, n, func() error {
		for i := 0; i < n; i++ {
			if err := op(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// record stores a per-operation value measured some other way.
func (c *driverCtx) record(metric string, v float64) { c.perOp[metric] = append(c.perOp[metric], v) }

// runLayerDrivers measures every group within budget and returns the
// per-layer values plus any group that failed.
func runLayerDrivers(w *workloadSpec, seed int64, scratch string, budget time.Duration, rec *spanRecorder) (map[string]float64, []string) {
	in := newLayerInputs(w, seed, scratch)
	out := make(map[string]float64)
	var problems []string
	share := budget / time.Duration(len(layerGroups))
	for _, g := range layerGroups {
		c := &driverCtx{in: in, rec: rec, deadline: time.Now().Add(share),
			perOp: map[string][]float64{}, mallocs: map[string]uint64{}, ops: map[string]int{}}
		end := rec.begin("layer:" + g.name)
		err := func() (err error) {
			defer func() { // a layer that panics is reported, and the other groups still run
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return g.run(c)
		}()
		end()
		if err != nil {
			problems = append(problems, fmt.Sprintf("layer driver %s: %v", g.name, err))
			continue
		}
		for _, m := range g.metrics {
			out[m.metric] = median(c.perOp[m.metric])
			if m.allocs != "" {
				out[m.allocs] = float64(c.mallocs[m.metric]) / float64(max(c.ops[m.metric], 1))
			}
			if len(c.perOp[m.metric]) == 0 {
				problems = append(problems, fmt.Sprintf("layer driver %s measured nothing for %s", g.name, m.metric))
			}
		}
	}
	return out, problems
}

// hashValue is the 32-byte value a trie leaf holds in these drivers.
var hashValue = cryptoutil.HashBytes([]byte("benchmark/value"))
