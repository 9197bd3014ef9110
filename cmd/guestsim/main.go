// Command guestsim runs the simulated guest-blockchain deployment for a
// configurable window and prints a summary (packets, blocks, updates,
// validator signatures, storage, fees).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	days := flag.Float64("days", 28, "simulated window in days")
	outPerDay := flag.Float64("out", 26, "guest->counterparty packets per day")
	inPerDay := flag.Float64("in", 14, "counterparty->guest packets per day")
	seed := flag.Int64("seed", 1, "simulation seed")
	channels := flag.Int("channels", 1, "channels multiplexed over the connection (channel i rides port transfer-<i>)")
	orderedFrac := flag.Float64("ordered-frac", 0, "fraction of channels opened Ordered (rest Unordered)")
	profileName := flag.String("profile", "solana", "host profile: solana, near-like, tron-like (§VI-D)")
	metrics := flag.Bool("metrics", false, "print the full telemetry snapshot (metrics, event counts, packet traces)")
	netDrop := flag.Float64("net-drop", 0, "per-message drop probability on every link (0 disables)")
	netDuplicate := flag.Float64("net-duplicate", 0, "per-message duplication probability on every link")
	netReorder := flag.Float64("net-reorder", 0, "per-message reorder probability on every link")
	netLatency := flag.String("net-latency", "", "uniform link latency range MIN-MAX (e.g. 10ms-80ms)")
	netSeed := flag.Int64("net-seed", 0, "network fault seed (0 derives one from -seed)")
	netPartition := flag.String("net-partition", "", "partition window [A|B:]START+DURATION (e.g. relayer|cp:36h+2h)")
	netCrash := flag.String("net-crash", "", "crash window NODE:START+DURATION (e.g. v0:648h+9h55m)")
	loadRate := flag.Float64("load-rate", 0, "open-loop offered load in transfers/s of virtual time; > 0 switches to the loadgen scenario instead of the closed-loop deployment")
	loadAccounts := flag.Uint64("load-accounts", 1_000_000, "loadgen sender population size (accounts materialise lazily)")
	loadZipfS := flag.Float64("load-zipf-s", 1.2, "loadgen Zipf account-popularity exponent (> 1)")
	loadDuration := flag.Duration("load-duration", 5*time.Minute, "loadgen offered-load window of virtual time")
	loadBursty := flag.Bool("load-bursty", false, "loadgen self-similar (bursty) arrivals instead of Poisson")
	mw := flag.Bool("middleware", false, "run the middleware-chain scenario (ICS-29 fees + 2-hop forwarding + metered callbacks) instead of the closed-loop deployment")
	mwPackets := flag.Int("middleware-packets", 16, "middleware scenario: number of 2-hop transfers")
	mwChaos := flag.Bool("middleware-chaos", false, "middleware scenario: inject the 5% drop + 5% duplicate acceptance chaos on every link")
	mesh := flag.Bool("mesh", false, "run the N-chain mesh scenario (routed multi-hop transfers, one relayer per link) instead of the closed-loop deployment")
	meshTopology := flag.String("mesh-topology", "line", "mesh scenario: link graph, line (guest-a-b-c) or diamond (guest-{a,b}-c)")
	meshPackets := flag.Int("mesh-packets", 6, "mesh scenario: transfers per flow")
	meshChaos := flag.Bool("mesh-chaos", true, "mesh scenario: 5% drop + asymmetric latency on every link")
	adaptiveRouting := flag.Bool("adaptive-routing", false, "run the adaptive-routing scenario (degraded diamond static-vs-adaptive + competing-relayer race) instead of the closed-loop deployment")
	storeDir := flag.String("store-dir", "", "persist guest state to a WAL-backed node store under this directory (empty = in-memory)")
	storeSync := flag.Int("store-sync-interval", 0, "group-fsync cadence in committed roots on top of the per-finalisation fsync (0 = finalisation only)")
	recoverRun := flag.Bool("recover", false, "run the kill-and-recover chaos scenario (power-cut the WAL mid-stall, reopen, verify roots and proofs) instead of the closed-loop deployment")
	flag.Parse()

	if *recoverRun {
		runRecoverScenario(*seed, *storeDir)
		return
	}

	if *adaptiveRouting {
		runAdaptiveScenario(*seed)
		return
	}

	if *mesh {
		runMeshScenario(*seed, *meshTopology, *meshPackets, *meshChaos)
		return
	}

	if *mw {
		runMiddlewareScenario(*seed, *mwPackets, *mwChaos)
		return
	}

	if *loadRate > 0 {
		runLoadScenario(*seed, *channels, *loadRate, *loadAccounts, *loadZipfS, *loadDuration, *loadBursty)
		return
	}

	cfg := experiments.DefaultConfig()
	cfg.Duration = time.Duration(*days * 24 * float64(time.Hour))
	cfg.OutPerDay = *outPerDay
	cfg.InPerDay = *inPerDay
	cfg.Seed = *seed
	cfg.Channels = *channels
	cfg.OrderedFraction = *orderedFrac

	netCfg := netsim.Config{
		Seed: *netSeed,
		Default: netsim.LinkConfig{
			Drop:      *netDrop,
			Duplicate: *netDuplicate,
			Reorder:   *netReorder,
		},
	}
	if *netLatency != "" {
		lo, hi, ok := strings.Cut(*netLatency, "-")
		if !ok {
			log.Fatalf("-net-latency %q: want MIN-MAX (e.g. 10ms-80ms)", *netLatency)
		}
		min, err := time.ParseDuration(lo)
		if err != nil {
			log.Fatalf("-net-latency min %q: %v", lo, err)
		}
		max, err := time.ParseDuration(hi)
		if err != nil {
			log.Fatalf("-net-latency max %q: %v", hi, err)
		}
		netCfg.Default.Latency = sim.Uniform{Min: min, Max: max}
	}
	if *netPartition != "" {
		w, err := netsim.ParsePartition(*netPartition)
		if err != nil {
			log.Fatal(err)
		}
		netCfg.Partitions = append(netCfg.Partitions, w)
	}
	if *netCrash != "" {
		w, err := netsim.ParseCrash(*netCrash)
		if err != nil {
			log.Fatal(err)
		}
		netCfg.Crashes = append(netCfg.Crashes, w)
	}

	var profile host.Profile
	switch *profileName {
	case "solana":
		profile = host.SolanaProfile()
	case "near-like":
		profile = host.NEARLikeProfile()
	case "tron-like":
		profile = host.TRONLikeProfile()
	default:
		log.Fatalf("unknown profile %q", *profileName)
	}

	start := time.Now()
	coreCfg := core.Config{HostProfile: profile, Seed: *seed, Net: netCfg}
	if *storeDir != "" {
		coreCfg.Store = core.StoreSpec{Dir: *storeDir, SyncEvery: *storeSync}
	}
	dep, err := experiments.RunWithNetwork(cfg, coreCfg)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	st, err := dep.Net.GuestState()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %.1f days in %v\n\n", *days, elapsed.Round(time.Millisecond))
	fmt.Printf("guest blocks:        %d (head height %d)\n", len(st.Entries), st.Height())
	fmt.Printf("outbound packets:    %d sent, %d traced\n", dep.OutboundSent, len(dep.Sends))
	fmt.Printf("inbound packets:     %d sent, %d delivered\n", dep.InboundSent, len(dep.RecvTxs))
	fmt.Printf("client updates:      %d\n", len(dep.UpdateTxCounts))
	if len(dep.UpdateTxCounts) > 0 {
		s := stats.Summarize(dep.UpdateTxCounts)
		fmt.Printf("  txs/update:        mean %.1f sd %.1f (paper: 36.5 sd 5.8)\n", s.Mean, s.StdDev)
		l := stats.Summarize(dep.UpdateLatencies)
		fmt.Printf("  latency:           median %.1fs p96 %.1fs (paper: 50%%<25s, 96%%<60s)\n",
			l.Med, stats.QuantileUnsorted(dep.UpdateLatencies, 0.96))
	}
	if len(dep.Sends) > 0 {
		var lat []float64
		for _, snd := range dep.Sends {
			lat = append(lat, snd.Latency)
		}
		s := stats.Summarize(lat)
		fmt.Printf("send latency:        median %.1fs max %.1fs (paper: all but 3 <= 21s)\n", s.Med, s.Max)
	}
	if len(dep.RecvTxs) > 0 {
		s := stats.Summarize(dep.RecvTxs)
		fmt.Printf("recv txs:            min %.0f max %.0f (paper: 4-5)\n", s.Min, s.Max)
		c := stats.Summarize(dep.RecvCostsCents)
		fmt.Printf("recv cost:           %.1f-%.1f cents (paper: 0.4-0.5)\n", c.Min, c.Max)
	}
	var sigs int
	for _, v := range dep.Net.Validators {
		sigs += v.SignCount()
	}
	fmt.Printf("validator sigs:      %d across %d validators\n", sigs, len(dep.Net.Validators))
	fmt.Printf("storage:             %d live trie nodes (%d bytes modelled), %d sealed regions\n",
		st.StorageNodeCount(), st.StorageBytes(), st.Store.Trie().SealedCount())
	fmt.Printf("state deposit:       $%.0f (paper: ~$14.6k)\n", fees.USD(dep.Net.Deposit))
	fmt.Printf("relayer fees:        $%.2f total\n", fees.USD(dep.Net.Relayer.TotalFees))
	snap := dep.Net.SnapshotTelemetry()
	if len(dep.Net.Channels) > 1 {
		fmt.Printf("channels:            %d over one connection (client updates stay shared)\n", len(dep.Net.Channels))
		for i, rt := range dep.Net.Channels {
			ns := "relayer.ch." + string(rt.GuestChannel) + "."
			ord := "unordered"
			if rt.Spec.Ordering == ibc.Ordered {
				ord = "ordered"
			}
			fmt.Printf("  ch %d %s/%s (%s): %d delivered to cp, %d recv on guest, %d acks relayed\n",
				i, rt.Spec.GuestPort, rt.GuestChannel, ord,
				snap.Counter(ns+"delivered_to_cp"), snap.Counter(ns+"recv_submitted"), snap.Counter(ns+"acks_to_guest"))
		}
	}
	if dropped := snap.Counter("netsim.dropped"); dropped > 0 {
		fmt.Printf("network faults:      %d/%d messages dropped (%d crash, %d partition), %d duplicated, %d reordered\n",
			dropped, snap.Counter("netsim.sent"),
			snap.Counter("netsim.dropped_crash"), snap.Counter("netsim.dropped_partition"),
			snap.Counter("netsim.duplicated"), snap.Counter("netsim.reordered"))
		fmt.Printf("  reliable calls:    %d retries, %d dead letters\n",
			snap.Counter("relayer.net_retries")+snap.Counter("validator.net_retries"),
			snap.Counter("relayer.net_dead_letters")+snap.Counter("validator.net_dead_letters"))
	}

	if *storeDir != "" {
		if ns := dep.Net.GuestNodeStore; ns != nil {
			bs := ns.Stats()
			fmt.Printf("node store:          %d nodes written (%d deduped), %d roots, %d syncs (p99 %.2f ms), %.1f MiB WAL in %d segments\n",
				bs.NodesWritten, bs.NodesDeduped, bs.RootsCommitted, bs.Syncs, bs.SyncP99Ms,
				float64(bs.BytesAppended)/(1<<20), bs.Segments)
		}
		if err := dep.Net.CloseStores(); err != nil {
			log.Fatal(err)
		}
	}

	if *metrics {
		fmt.Printf("\n--- telemetry snapshot ---\n%s", dep.Net.SnapshotTelemetry().Render())
	}
}

// runRecoverScenario runs the kill-and-recover chaos scenario: a
// disk-backed guest is power-cut mid-stall (WAL truncated to the durable
// prefix), reopened cold, and checked for exact recovery of the last
// finalised root plus byte-identical historical proofs. With no -store-dir
// the WAL lands in a throwaway temp directory.
func runRecoverScenario(seed int64, dir string) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "guestsim-recover-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	start := time.Now()
	res, err := experiments.RunRecover(seed, dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kill-and-recover: validator %s dark %v from %v, power cut mid-window, simulated in %v\n\n",
		res.Window.Node, res.Window.Duration, res.Window.From, time.Since(start).Round(time.Millisecond))
	fmt.Printf("pre-crash:  head height %d, finalised height %d (%d unfinalised blocks discarded by the cut)\n",
		res.HeadHeight, res.FinalisedHeight, res.LostBlocks)
	fmt.Printf("wal:        %d nodes written (%d deduped), %.1f MiB appended, flush p99 %.2f ms\n",
		res.NodesWritten, res.NodesDeduped, float64(res.SegmentBytes)/(1<<20), res.FlushP99Ms)
	fmt.Printf("recovered:  height %d, %d retained versions, cold open %.1f ms\n",
		res.RecoveredHeight, res.RetainedRecovered, res.ColdOpenMs)
	fmt.Printf("verdicts:   root_match=%v proofs_identical=%v (%d proofs checked)\n",
		res.RootMatch, res.ProofsIdentical, res.ProofsChecked)
	if !res.RootMatch || !res.ProofsIdentical {
		log.Fatal("kill-and-recover verification failed")
	}
}

// runMiddlewareScenario runs the middleware-chain acceptance scenario:
// fee-escrowed transfers forwarded through the counterparty hub back to a
// second guest app, with metered recv callbacks on the terminal leg, and
// prints the hop-by-hop conservation and fee-settlement verdicts.
func runMiddlewareScenario(seed int64, packets int, chaos bool) {
	cfg := experiments.DefaultMiddlewareConfig()
	cfg.Seed = seed
	cfg.Packets = packets
	if chaos {
		cfg.Net = experiments.ChaosLink()
	}
	start := time.Now()
	res, err := experiments.RunMiddleware(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("middleware chain: %d 2-hop transfers over %v (chaos=%v), simulated in %v\n\n",
		res.Sent, cfg.Duration, chaos, time.Since(start).Round(time.Millisecond))
	fmt.Printf("tokens:    sent %d = guest escrow %d = hub escrow %d = final vouchers %d (stuck %d) — conserved=%v\n",
		res.SentTokens, res.GuestEscrow, res.HubEscrow, res.FinalVouchers, res.HubModuleStuck, res.TokensConserved)
	fmt.Printf("forwarded: %d (stranded %d)\n", res.Forwarded, res.Stranded)
	fmt.Printf("fees:      escrowed %d = paid %d + refunded %d, claimed %d onto relayer balance %d (pending %d) — conserved=%v\n",
		res.FeesEscrowed, res.FeesPaid, res.FeesRefunded, res.FeesClaimed, res.RelayerBalance, res.FeesPending, res.FeesConserved)
	fmt.Printf("callbacks: %d executed, %d rejected\n", res.CallbacksExecuted, res.CallbacksRejected)
	fmt.Printf("network:   %d retries\n", res.NetRetries)
	if !res.Conserved() {
		log.Fatal("middleware scenario conservation violated")
	}
}

// runMeshScenario runs the N-chain mesh acceptance scenario: a line or
// diamond topology with one relayer per link, routed multi-hop transfers
// under per-link chaos, and prints per-flow latency plus per-link
// client-update amortisation and the hop-by-hop conservation verdict.
func runMeshScenario(seed int64, topology string, packets int, chaos bool) {
	cfg := experiments.DefaultMeshConfig()
	cfg.Seed = seed
	cfg.Topology = topology
	cfg.PacketsPerFlow = packets
	cfg.Chaos = chaos
	start := time.Now()
	res, err := experiments.RunMesh(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh %s: chains %s, %d routed transfers over %v (chaos=%v), simulated in %v\n\n",
		res.Topology, strings.Join(res.Chains, ","), res.TotalPackets, cfg.Duration, chaos, time.Since(start).Round(time.Millisecond))
	for _, f := range res.Flows {
		fmt.Printf("flow %-9s path=%-16s sent=%2d tokens=%5d received=%5d delivered=%2d  e2e p50=%6.2fs p99=%6.2fs  conserved=%v\n",
			f.Src+">"+f.Dst, strings.Join(f.Path, "-"), f.Sent, f.SentTokens, f.Received, f.Delivered, f.E2EP50s, f.E2EP99s, f.Conserved)
	}
	fmt.Println()
	for _, l := range res.Links {
		fmt.Printf("link %-9s client_updates=%3d delivered=%3d acks=%3d updates/packet=%.2f net_retries=%d",
			l.ID, l.ClientUpdates, l.Delivered, l.Acks, l.UpdatesPerPacket, l.NetRetries)
		if l.HopP99Ms > 0 {
			fmt.Printf(" hop p50=%.0fms p99=%.0fms", l.HopP50Ms, l.HopP99Ms)
		}
		fmt.Println()
	}
	if !res.Conserved {
		log.Fatal("mesh scenario conservation violated")
	}
}

// runAdaptiveScenario runs the health-aware routing acceptance pair: the
// degraded diamond under static and adaptive routing (same seed), and the
// competing-relayer race with ICS-29 fee attribution. It exits non-zero
// when any acceptance criterion fails, so `make route-smoke` gates CI.
func runAdaptiveScenario(seed int64) {
	cfg := experiments.DefaultAdaptiveRoutingConfig()
	cfg.Seed = seed
	start := time.Now()
	res, err := experiments.RunAdaptiveRouting(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptive routing: %d transfers over %v, a-c arm degrades at %v, simulated in %v\n\n",
		res.Sent, cfg.Window, cfg.DegradeAt, time.Since(start).Round(time.Millisecond))
	fmt.Printf("pre-degradation arms:   %v\n", res.PreArms)
	fmt.Printf("post-grace arms:        %v (migration %.0f%%)\n", res.PostArms, 100*res.MigrationFraction)
	fmt.Printf("view recomputes:        %d\n", res.Recomputes)
	fmt.Printf("post-degradation p99:   adaptive %.1fs vs static %.1fs (p50 %.1fs vs %.1fs)\n",
		res.AdaptiveP99s, res.StaticP99s, res.AdaptiveP50s, res.StaticP50s)
	fmt.Printf("delivered:              %d/%d, escrow conserved=%v (static %v)\n\n",
		res.Delivered, res.Sent, res.Conserved, res.StaticConserved)
	r := res.Race
	fmt.Printf("relayer race:           %d packets, %d competitors, lost_race=%d\n", r.Sent, r.Relayers, r.LostRace)
	fmt.Printf("  exactly-once:         %v (received %d tokens)\n", r.ExactlyOnce, r.Received)
	fmt.Printf("  fees:                 escrowed=%d paid=%d refunded=%d claimed=%d conserved=%v\n",
		r.Escrowed, r.Paid, r.Refunded, r.Claimed, r.FeesConserved)
	for payee, fee := range r.FeeByPayee {
		fmt.Printf("  payee %s...: claimed %d\n", payee[:12], fee)
	}
	switch {
	case res.MigrationFraction < 0.9:
		log.Fatalf("migration fraction %.3f < 0.9", res.MigrationFraction)
	case !res.P99Improved:
		log.Fatal("adaptive p99 does not beat static")
	case !res.Conserved || !res.StaticConserved:
		log.Fatal("escrow conservation violated")
	case !r.ExactlyOnce || !r.FeesConserved:
		log.Fatal("relayer race: delivery or fee invariant violated")
	case r.LostRace != uint64(r.Sent):
		log.Fatalf("lost_race %d != sent %d", r.LostRace, r.Sent)
	}
}

// runLoadScenario runs the open-loop loadgen workload (ISSUE 6 tentpole)
// instead of the closed-loop 28-day deployment and prints its outcome:
// admission counters, latency percentiles, sustained throughput, and the
// per-channel conservation verdicts.
func runLoadScenario(seed int64, channels int, rate float64, accounts uint64, zipfS float64, duration time.Duration, bursty bool) {
	cfg := experiments.DefaultLoadConfig()
	cfg.Seed = seed
	if channels > 0 {
		cfg.Channels = channels
	}
	cfg.Rate = rate
	cfg.Accounts = accounts
	cfg.ZipfS = zipfS
	cfg.Duration = duration
	cfg.Bursty = bursty

	start := time.Now()
	res, err := experiments.RunLoad(cfg)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	arrivals := "poisson"
	if bursty {
		arrivals = "self-similar"
	}
	fmt.Printf("open-loop load: %.2f tx/s (%s) over %v + %v drain, %d channels, %d accounts (zipf s=%.2f)\n",
		rate, arrivals, cfg.Duration, cfg.Drain, cfg.Channels, accounts, zipfS)
	fmt.Printf("simulated in %v\n\n", elapsed.Round(time.Millisecond))
	fmt.Printf("offered:             %d\n", res.Offered)
	fmt.Printf("admitted:            %d (rejected %d, shed %d)\n", res.Admitted, res.Rejected, res.Shed)
	fmt.Printf("delivered:           %d (sustained %.3f pkt/s)\n", res.Delivered, res.SustainedPPS)
	fmt.Printf("packet latency:      p50 %v, p99 %v\n", res.P50.Round(time.Millisecond), res.P99.Round(time.Millisecond))
	fmt.Printf("senders touched:     %d of %d\n", res.MaterialisedAccounts, accounts)
	for i, ch := range res.Channels {
		fmt.Printf("  ch %d %s: admitted %d (%d tokens), escrow %d, vouchers %d, delivered %d — conserved=%v fully_delivered=%v\n",
			i, ch.GuestChannel, ch.Admitted, ch.AdmittedTokens, ch.Escrowed, ch.Vouchers, ch.DeliveredCP,
			ch.EscrowConserved, ch.FullyDelivered)
	}
	if !res.EscrowConserved {
		log.Fatal("escrow conservation violated")
	}
}
