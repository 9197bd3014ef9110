package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§V). The month-long deployment simulation runs once (it is
// deterministic) and is shared by all figure benches; each bench reports
// its figure's headline numbers as custom metrics so
// `go test -bench=. -benchmem` prints the reproduction alongside timing.
//
// Paper targets:
//
//	Fig. 2   send-packet delay: all but 3 within 21 s
//	Fig. 3   send cost clusters: 17% at $1.40 (priority), 83% at $3.02 (bundles)
//	Fig. 4   client updates: 36.5 ± 5.8 txs; 50% < 25 s, 96% < 60 s
//	Fig. 5   client update cost: 0.1¢/tx + 0.1¢/signature
//	Fig. 6   block intervals: ~25% at the Δ=1h cutoff, 5 outliers
//	Table I  per-validator signing stats; 7 of 24 silent; corr ≈ 0.007
//	§V-A     ReceivePacket: 4-5 txs, 0.4-0.5 ¢
//	§V-D     10 MiB account: >72k pairs, ≈ $14.6k deposit
import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// sharedOnce runs one default deployment for the whole suite: the
// simulation is deterministic, so every figure bench reads the same run.
var (
	sharedOnce sync.Once
	sharedDep  *experiments.Deployment
	sharedErr  error
)

func mustShared(b *testing.B) *experiments.Deployment {
	b.Helper()
	sharedOnce.Do(func() {
		sharedDep, sharedErr = experiments.Run(experiments.DefaultConfig())
	})
	if sharedErr != nil {
		b.Fatal(sharedErr)
	}
	return sharedDep
}

func BenchmarkFig2SendPacketDelay(b *testing.B) {
	dep := mustShared(b)
	b.ResetTimer()
	var fig *experiments.Fig2
	for i := 0; i < b.N; i++ {
		fig = experiments.BuildFig2(dep)
	}
	b.ReportMetric(fig.Summary.Med, "median_s")
	b.ReportMetric(100*fig.Within21s, "pct_within_21s")
	b.ReportMetric(float64(fig.Stragglers), "stragglers")
}

func BenchmarkFig3SendPacketCost(b *testing.B) {
	dep := mustShared(b)
	b.ResetTimer()
	var fig *experiments.Fig3
	for i := 0; i < b.N; i++ {
		fig = experiments.BuildFig3(dep)
	}
	b.ReportMetric(100*fig.PriorityFrac, "priority_pct")
	b.ReportMetric(fig.PriorityUSD, "priority_usd")
	b.ReportMetric(fig.BundleUSD, "bundle_usd")
}

func BenchmarkFig4ClientUpdateLatency(b *testing.B) {
	dep := mustShared(b)
	b.ResetTimer()
	var fig *experiments.Fig4
	for i := 0; i < b.N; i++ {
		fig = experiments.BuildFig4(dep)
	}
	b.ReportMetric(fig.TxSummary.Mean, "txs_mean")
	b.ReportMetric(fig.TxSummary.StdDev, "txs_sd")
	b.ReportMetric(100*fig.Below25s, "pct_below_25s")
	b.ReportMetric(100*fig.Below60s, "pct_below_60s")
}

func BenchmarkFig5ClientUpdateCost(b *testing.B) {
	dep := mustShared(b)
	b.ResetTimer()
	var fig *experiments.Fig5
	for i := 0; i < b.N; i++ {
		fig = experiments.BuildFig5(dep)
	}
	b.ReportMetric(fig.Summary.Mean, "mean_cents")
	b.ReportMetric(fig.SigCorrelation, "cost_sig_corr")
}

func BenchmarkFig6BlockInterval(b *testing.B) {
	dep := mustShared(b)
	b.ResetTimer()
	var fig *experiments.Fig6
	for i := 0; i < b.N; i++ {
		fig = experiments.BuildFig6(dep)
	}
	b.ReportMetric(100*fig.AtCutoff, "pct_at_cutoff")
	b.ReportMetric(float64(fig.Outliers), "outliers")
}

func BenchmarkTable1ValidatorStats(b *testing.B) {
	dep := mustShared(b)
	b.ResetTimer()
	var t1 *experiments.Table1
	for i := 0; i < b.N; i++ {
		t1 = experiments.BuildTable1(dep)
	}
	b.ReportMetric(float64(len(t1.Rows)), "signers")
	b.ReportMetric(float64(t1.Silent), "silent")
	b.ReportMetric(t1.CostLatencyCorrelation, "cost_latency_corr")
}

func BenchmarkRecvPacketTxCount(b *testing.B) {
	dep := mustShared(b)
	b.ResetTimer()
	var rs *experiments.RecvStats
	for i := 0; i < b.N; i++ {
		rs = experiments.BuildRecvStats(dep)
	}
	b.ReportMetric(100*rs.FracFourTx, "pct_four_tx")
	b.ReportMetric(float64(len(rs.TxCounts)), "samples")
}

func BenchmarkStorageCapacity(b *testing.B) {
	// §V-D: how many key-value pairs fit in the 10 MiB account.
	var capacity int
	for i := 0; i < b.N; i++ {
		capacity = experiments.MeasureArenaCapacity(10 * 1024 * 1024)
	}
	b.ReportMetric(float64(capacity), "kv_pairs")
}

func BenchmarkSealableVsPlainTrie(b *testing.B) {
	// §III-A ablation: peak storage under delivery churn.
	var abl *experiments.SealingAblation
	for i := 0; i < b.N; i++ {
		abl = experiments.RunSealingAblation(20_000)
	}
	b.ReportMetric(float64(abl.PeakWithSeal), "peak_nodes_sealed")
	b.ReportMetric(float64(abl.PeakWithoutSeal), "peak_nodes_plain")
}

func BenchmarkAblationDeltaSweep(b *testing.B) {
	var sweep *experiments.DeltaSweep
	for i := 0; i < b.N; i++ {
		var err error
		sweep, err = experiments.RunDeltaSweep(
			[]time.Duration{15 * time.Minute, time.Hour, 4 * time.Hour}, 1.5, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, d := range sweep.Deltas {
		b.ReportMetric(100*sweep.AtCutoff[i], fmt.Sprintf("pct_cutoff_%s", d))
	}
}

func BenchmarkAblationQuorumSweep(b *testing.B) {
	var sweep *experiments.QuorumSweep
	for i := 0; i < b.N; i++ {
		var err error
		sweep, err = experiments.RunQuorumSweep([]int{4, 12, 24}, 1, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, n := range sweep.FleetSizes {
		b.ReportMetric(sweep.MedianSec[i], fmt.Sprintf("median_s_%dvals", n))
	}
}

func BenchmarkAblationAdaptiveFees(b *testing.B) {
	var abl *experiments.CongestionAblation
	for i := 0; i < b.N; i++ {
		abl = experiments.RunCongestionAblation(10, 7)
	}
	b.ReportMetric(abl.AdaptiveCents, "adaptive_cents")
	b.ReportMetric(abl.FixedHighCents, "fixed_high_cents")
	if len(abl.FixedLowDelays) > 0 {
		b.ReportMetric(abl.FixedLowDelays[len(abl.FixedLowDelays)-1], "fixed_low_last_delay_s")
	}
}

func BenchmarkHostProfileComparison(b *testing.B) {
	var cmpr *experiments.ProfileComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmpr, err = experiments.RunProfileComparison(0.5, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, name := range cmpr.Profiles {
		b.ReportMetric(cmpr.UpdateTxs[i], "update_txs_"+name)
	}
}
