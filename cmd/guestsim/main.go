// Command guestsim runs the simulated guest-blockchain deployment for a
// configurable window and prints a summary (packets, blocks, updates,
// validator signatures, storage, fees).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
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
	scenario := flag.String("scenario", "", "run a named acceptance scenario instead of the closed-loop deployment: "+strings.Join(experiments.Names(), ", ")+" (chaos is part of each scenario; of the other flags only -seed and the scenario overrides -packets, -rate, -duration and -store-dir apply)")
	packets := flag.Int("packets", 0, "scenario override: transfers per flow (0 keeps the scenario's own; ignored by scenarios whose traffic is -rate over -duration)")
	rate := flag.Float64("rate", 0, "scenario override: open-loop offered load in transfers/s of virtual time (0 keeps the scenario's own)")
	duration := flag.Duration("duration", 0, "scenario override: window of virtual time the traffic is offered over (0 keeps the scenario's own)")
	storeDir := flag.String("store-dir", "", "persist guest state to a WAL-backed node store under this directory (empty = in-memory; scenario override: where a scenario that declares a store keeps it, empty = a throwaway temp directory)")
	storeSync := flag.Int("store-sync-interval", 0, "group-fsync cadence in committed roots on top of the per-finalisation fsync (0 = finalisation only)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (read it with `go tool pprof`)")
	memProfile := flag.String("memprofile", "", "write an allocation and heap profile to this file at the end of the run, while its deployment is live")
	flag.Parse()

	writeHeap, stopProfiles := startProfiles(*cpuProfile, *memProfile)
	if *scenario != "" {
		passed := scenarioMode(os.Stdout, *scenario, *seed, *packets, *rate, *duration, *storeDir, writeHeap)
		stopProfiles()
		if !passed {
			os.Exit(1)
		}
		return
	}
	defer stopProfiles()

	cfg := experiments.DefaultConfig()
	cfg.Duration = time.Duration(*days * 24 * float64(time.Hour))
	cfg.OutPerDay = *outPerDay
	cfg.InPerDay = *inPerDay
	cfg.Seed = *seed

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
	if *channels > 1 {
		coreCfg.Channels = experiments.ChannelTopology(*channels, *orderedFrac)
	}
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
	if writeHeap != nil {
		writeHeap()
		runtime.KeepAlive(dep) // the profile shows what the deployment retains
	}
}

// startProfiles starts a CPU profile into cpuFile and returns writeHeap,
// which writes the heap profile (allocations since start, and what is
// still live after a collection) to memFile, and stop, which ends the CPU
// profile. An empty name skips that profile (writeHeap is nil). Both are
// plain runtime/pprof files; a mode calls writeHeap while its deployment
// is still reachable, so the in-use figures are what the run retains. The
// benchmark's traced pass folds its own profile into per-package shares
// (benchmark/pprof.go); that code stays with the benchmark until a change
// that may edit benchmark/ moves it here.
func startProfiles(cpuFile, memFile string) (writeHeap, stop func()) {
	var cpu *os.File
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		cpu = f
	}
	stop = func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				log.Fatalf("-cpuprofile: %v", err)
			}
		}
	}
	if memFile == "" {
		return nil, stop
	}
	return func() {
		f, err := os.Create(memFile)
		if err == nil {
			runtime.GC() // so the in-use figures are what the run retains
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			log.Fatalf("-memprofile: %v", err)
		}
	}, stop
}

// scenarioMode runs a registered acceptance scenario — every run it makes,
// then its verdict — and reports whether it passed: no ledger violation in
// any run and no failed verdict line. The overrides apply to every run.
// A non-nil atEnd runs as each run's last action, while its network is
// live (the heap profile; the last run's write stays).
func scenarioMode(w io.Writer, name string, seed int64, packets int, rate float64, window time.Duration, storeDir string, atEnd func()) bool {
	runs, verdict, ok := experiments.Lookup(name)
	if !ok {
		log.Fatalf("unknown scenario %q (see -help)", name)
	}
	passed := true
	var reports []*experiments.Report
	for _, s := range runs {
		s.Net.Seed = seed
		if packets > 0 && s.At != nil {
			s.Packets = packets
		}
		if rate > 0 && s.Load != nil {
			s.Load.Rate = rate
		}
		if window > 0 {
			s.Window = window
		}
		if s.Net.Store != (core.StoreSpec{}) {
			if storeDir == "" {
				tmp, err := os.MkdirTemp("", "guestsim-store-*")
				if err != nil {
					log.Fatal(err)
				}
				defer os.RemoveAll(tmp)
				storeDir = tmp
			}
			s.Net.Store.Dir = storeDir
		}
		if atEnd != nil {
			s.Actions = append(slices.Clip(s.Actions), experiments.Action{At: s.Window + s.Drain, Do: func(*core.Network) error {
				atEnd()
				return nil
			}})
		}
		rep, err := s.Run()
		if err != nil {
			log.Fatal(err)
		}
		render(w, rep)
		passed = passed && len(rep.Violations) == 0
		reports = append(reports, rep)
	}
	if verdict != nil {
		for _, c := range verdict(reports) {
			fmt.Fprintf(w, "%s %s\n", map[bool]string{true: "ok  ", false: "FAIL"}[c.OK], c.Text)
			passed = passed && c.OK
		}
	}
	return passed
}

// render prints one run: a row per flow, link and fee book, then every
// violation. Zero latencies mean nothing was timed there.
func render(w io.Writer, r *experiments.Report) {
	fmt.Fprintf(w, "\nscenario %s: seed %d, %v + %v drain, %d flows, %d planned transfers each\n", r.Scenario.Name,
		r.Scenario.Net.Seed, r.Scenario.Window, r.Scenario.Drain, len(r.Flows), r.Scenario.Packets)
	for _, f := range r.Flows {
		fmt.Fprintf(w, "flow %-12s path=%-16s sent=%3d tokens=%6d escrow=%v received=%6d delivered=%3d acked=%3d  e2e p50=%6.2fs p99=%6.2fs  refused=%d %s\n",
			f.Flow, strings.Join(f.Paths, ","), f.Admitted, f.AdmittedTokens, f.HopEscrow, f.Vouchers, f.Delivered, f.Acked, f.P50, f.P99, f.SendErrors, f.FirstError)
	}
	for _, l := range r.Links {
		fmt.Fprintf(w, "link %-9s client_updates=%3d delivered=%3d acks=%3d updates/packet=%.2f net_retries=%d lost_race=%d hop p50=%.0fms p99=%.0fms\n",
			l.ID, l.ClientUpdates, l.Delivered, l.Acks, float64(l.ClientUpdates)/float64(max(l.Delivered, 1)), l.NetRetries, l.LostRace, l.HopP50Ms, l.HopP99Ms)
	}
	for _, b := range r.Fees {
		fmt.Fprintf(w, "fees %s/%s: escrowed %d = paid %d + refunded %d, claimed %d (pending %d), payees %v\n",
			b.Chain, b.Port, b.Escrowed, b.Paid, b.Refunded, b.Claimed, b.Pending, b.Payees)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION %s\n", v)
	}
}
