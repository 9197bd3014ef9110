package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/ibc"
	"repro/internal/stats"
)

// shortRun runs a 2-day deployment once for all shape assertions.
var shortRun *Deployment

func getShortRun(t *testing.T) *Deployment {
	t.Helper()
	if shortRun != nil {
		return shortRun
	}
	cfg := DefaultConfig()
	cfg.Duration = 48 * time.Hour
	dep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shortRun = dep
	return dep
}

func TestDeploymentProducesTraffic(t *testing.T) {
	d := getShortRun(t)
	if d.OutboundSent == 0 || d.InboundSent == 0 {
		t.Fatalf("no traffic: out=%d in=%d", d.OutboundSent, d.InboundSent)
	}
	if len(d.Sends) == 0 || len(d.UpdateTxCounts) == 0 || len(d.RecvTxs) == 0 {
		t.Fatal("missing series")
	}
	// Every inbound packet was delivered.
	if len(d.RecvTxs) != d.InboundSent {
		t.Fatalf("delivered %d of %d inbound", len(d.RecvTxs), d.InboundSent)
	}
}

func TestFig2Shape(t *testing.T) {
	f := BuildFig2(getShortRun(t))
	if f.Summary.N == 0 {
		t.Fatal("no samples")
	}
	// Typical finalisation: a few seconds to low tens of seconds.
	if f.Summary.Med < 2 || f.Summary.Med > 25 {
		t.Fatalf("median send latency %.1fs implausible", f.Summary.Med)
	}
	// The vast majority lands within 21 s (paper: all but 3 of the month).
	if f.Within21s < 0.95 {
		t.Fatalf("within-21s = %.2f, want >= 0.95", f.Within21s)
	}
	if f.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig3Shape(t *testing.T) {
	f := BuildFig3(getShortRun(t))
	// 17% priority with sampling noise on a 2-day window.
	if f.PriorityFrac < 0.05 || f.PriorityFrac > 0.35 {
		t.Fatalf("priority fraction %.2f far from 0.17", f.PriorityFrac)
	}
	if f.PriorityUSD < 1.35 || f.PriorityUSD > 1.45 {
		t.Fatalf("priority cost $%.2f, want ~$1.40", f.PriorityUSD)
	}
	if f.BundleUSD < 2.97 || f.BundleUSD > 3.07 {
		t.Fatalf("bundle cost $%.2f, want ~$3.02", f.BundleUSD)
	}
	if f.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig4Shape(t *testing.T) {
	d := getShortRun(t)
	f := BuildFig4(d)
	// A quorum-sized update is ~26 transactions; the paper's full-commit
	// updates were 36.5.
	if f.TxSummary.Mean < 22 || f.TxSummary.Mean > 30 {
		t.Fatalf("txs/update mean %.1f, want ~26", f.TxSummary.Mean)
	}
	// Every update the guest's client accepted carries a minimal quorum:
	// more than 2/3 of the power, and not once it loses its weakest signer.
	st, err := d.Net.GuestState()
	if err != nil {
		t.Fatal(err)
	}
	client, err := st.Handler.Client(d.Net.Boot.GuestClientID)
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	for h := uint64(2); h <= d.Net.CP.Height(); h++ {
		if _, err := client.ConsensusTime(ibc.Height(h)); err != nil {
			continue
		}
		u, err := d.Net.CP.UpdateAt(h)
		if err != nil {
			t.Fatal(err)
		}
		power := make(map[cryptoutil.PubKey]uint64, len(u.ValSet.Validators))
		var total uint64
		for _, v := range u.ValSet.Validators {
			power[v.PubKey] = v.Power
			total += v.Power
		}
		signed, weakest := uint64(0), uint64(math.MaxUint64)
		for _, cs := range u.Commit {
			signed += power[cs.PubKey]
			weakest = min(weakest, power[cs.PubKey])
		}
		if signed*3 <= total*2 || (signed-weakest)*3 > total*2 {
			t.Fatalf("update at %d: %d signers carry %d of %d, weakest %d: not a minimal quorum", h, len(u.Commit), signed, total, weakest)
		}
		updates++
	}
	if updates < len(d.UpdateTxCounts) {
		t.Fatalf("checked %d accepted updates, the relayer reported %d", updates, len(d.UpdateTxCounts))
	}
	if f.Below25s < 0.35 {
		t.Fatalf("P(<25s) = %.2f, want around one half", f.Below25s)
	}
	if f.Below60s < 0.90 {
		t.Fatalf("P(<60s) = %.2f, want >= 0.90", f.Below60s)
	}
	if f.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig5Shape(t *testing.T) {
	f := BuildFig5(getShortRun(t))
	if f.Summary.N == 0 {
		t.Fatal("no samples")
	}
	// Cost must strongly correlate with signatures checked (§V-B).
	if f.SigCorrelation < 0.8 {
		t.Fatalf("cost-signature correlation %.2f, want strong", f.SigCorrelation)
	}
	// Decomposition: cost ≈ 0.1¢ × (txs + sigs).
	d := getShortRun(t)
	for i := range d.UpdateCosts {
		want := 0.1 * (d.UpdateTxCounts[i] + d.UpdateSigs[i])
		if diff := d.UpdateCosts[i] - want; diff < -0.01 || diff > 0.01 {
			t.Fatalf("update %d: cost %.2f¢, want %.2f¢", i, d.UpdateCosts[i], want)
		}
	}
	if f.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig6Shape(t *testing.T) {
	f := BuildFig6(getShortRun(t))
	if f.Summary.N == 0 {
		t.Fatal("no samples")
	}
	if f.DeltaSeconds != 3600 {
		t.Fatalf("delta = %v", f.DeltaSeconds)
	}
	// Some but not all blocks are Δ-empty blocks.
	if f.AtCutoff <= 0 || f.AtCutoff >= 0.9 {
		t.Fatalf("at-cutoff fraction %.2f implausible", f.AtCutoff)
	}
	// No interval (modulo outliers) should exceed Δ by much when the
	// validators are live.
	if f.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestTable1Shape(t *testing.T) {
	tab := BuildTable1(getShortRun(t))
	// On a 2-day window only the early joiners have signed.
	if len(tab.Rows) == 0 {
		t.Fatal("no signer rows")
	}
	for _, r := range tab.Rows {
		if r.Sigs <= 0 || r.CostCents <= 0 {
			t.Fatalf("row: %+v", r)
		}
		if r.Latency.Med <= 0 {
			t.Fatalf("row latency: %+v", r.Latency)
		}
	}
	if tab.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestRecvStatsShape(t *testing.T) {
	rs := BuildRecvStats(getShortRun(t))
	s := stats.Summarize(rs.TxCounts)
	if s.Min < 3 || s.Max > 6 {
		t.Fatalf("recv txs %v-%v, want the 4-5 band", s.Min, s.Max)
	}
	c := stats.Summarize(rs.CostsCents)
	if c.Min < 0.25 || c.Max > 0.65 {
		t.Fatalf("recv costs %.2f-%.2f ¢, want the 0.4-0.5 band", c.Min, c.Max)
	}
}

func TestStorageNumbers(t *testing.T) {
	s := BuildStorage(getShortRun(t))
	if s.DepositUSD < 14_000 || s.DepositUSD > 15_500 {
		t.Fatalf("deposit $%.0f, want ~$14.6k", s.DepositUSD)
	}
	if s.CapacityPairs < 72_000 {
		t.Fatalf("capacity %d pairs, paper says >72k", s.CapacityPairs)
	}
	// Live nodes stay tiny compared to total packets handled.
	if s.LiveNodes > 40*s.TotalPacket && s.TotalPacket > 0 {
		t.Fatalf("storage not bounded: %d nodes for %d packets", s.LiveNodes, s.TotalPacket)
	}
	if s.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestSealingAblationShowsReduction(t *testing.T) {
	a := RunSealingAblation(5_000)
	if a.PeakWithSeal >= a.PeakWithoutSeal/50 {
		t.Fatalf("sealing peak %d vs plain %d: expected >50x reduction", a.PeakWithSeal, a.PeakWithoutSeal)
	}
	if a.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestMeasureArenaCapacityMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("slow fill")
	}
	got := MeasureArenaCapacity(10 * 1024 * 1024)
	if got < 72_000 || got > 80_000 {
		t.Fatalf("capacity = %d, paper: just over 72k", got)
	}
}

// TestMeasureArenaCapacityBelowOneNode: a byte cap smaller than one
// 72-byte node holds no pair at all. It used to round down to a node
// limit of zero, which means unlimited, and the fill never returned.
func TestMeasureArenaCapacityBelowOneNode(t *testing.T) {
	if got := MeasureArenaCapacity(71); got != 0 {
		t.Fatalf("a 71-byte arena holds %d pairs, want 0", got)
	}
	if got := MeasureArenaCapacity(72); got != 1 {
		t.Fatalf("a 72-byte arena holds %d pairs, want 1", got)
	}
}

func TestCongestionAblation(t *testing.T) {
	a := RunCongestionAblation(10, 1)
	if len(a.AdaptiveDelays) == 0 || len(a.FixedHighDelays) == 0 {
		t.Fatal("no probe landings")
	}
	adaptiveP95 := stats.QuantileUnsorted(a.AdaptiveDelays, 0.95)
	highP95 := stats.QuantileUnsorted(a.FixedHighDelays, 0.95)
	if adaptiveP95 > highP95+1 {
		t.Fatalf("adaptive p95 %.1fs much worse than fixed-high %.1fs", adaptiveP95, highP95)
	}
	// Adaptive pays materially less than fixed-high across the window.
	if a.AdaptiveCents >= a.FixedHighCents {
		t.Fatalf("adaptive %.2f¢ not cheaper than fixed-high %.2f¢", a.AdaptiveCents, a.FixedHighCents)
	}
	// Fixed-low suffers during the burst (or starves entirely).
	if len(a.FixedLowDelays) > 0 {
		lowP95 := stats.QuantileUnsorted(a.FixedLowDelays, 0.95)
		if lowP95 < adaptiveP95+5 {
			t.Fatalf("fixed-low p95 %.1fs did not suffer under congestion", lowP95)
		}
	}
	if a.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestProfileComparison(t *testing.T) {
	p, err := RunProfileComparison(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Profiles) != 3 {
		t.Fatalf("profiles: %v", p.Profiles)
	}
	// Every profile delivered the full inbound workload.
	for i, n := range p.Delivered {
		if n == 0 {
			t.Fatalf("profile %s delivered nothing", p.Profiles[i])
		}
	}
	// The Solana profile needs an order of magnitude more transactions
	// per client update than the roomy profiles (§VI-D).
	if p.UpdateTxs[0] < 5*p.UpdateTxs[1] {
		t.Fatalf("solana %0.1f vs near-like %0.1f txs/update: chunking pressure not visible",
			p.UpdateTxs[0], p.UpdateTxs[1])
	}
	if p.Render() == "" {
		t.Fatal("empty render")
	}
}
