package experiments

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Fig2 reproduces "Delay between sending a packet and time it is stored in
// a finalised guest block" (§V-A): the ECDF of SendPacket→FinalisedBlock.
type Fig2 struct {
	Latencies []float64 // seconds
	Summary   stats.Summary
	// Within21s is the fraction finalised within 21 s; the paper reports
	// all but three packets (of the month's traffic) made it.
	Within21s float64
	// Stragglers counts packets beyond 21 s (paper: 3, caused by slow
	// validator signing).
	Stragglers int
}

// BuildFig2 computes the figure from a deployment run.
func BuildFig2(d *Deployment) *Fig2 {
	f := &Fig2{}
	for _, s := range d.Sends {
		f.Latencies = append(f.Latencies, s.Latency)
	}
	f.Summary = stats.Summarize(f.Latencies)
	e := stats.NewECDF(f.Latencies)
	f.Within21s = e.At(21)
	f.Stragglers = len(f.Latencies) - int(f.Within21s*float64(len(f.Latencies))+0.5)
	return f
}

// Render prints the figure as text.
func (f *Fig2) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — send-packet delay (SendPacket -> FinalisedBlock)\n")
	fmt.Fprintf(&b, "  n=%d  median=%.1fs  q3=%.1fs  max=%.1fs\n", f.Summary.N, f.Summary.Med, f.Summary.Q3, f.Summary.Max)
	fmt.Fprintf(&b, "  within 21s: %.1f%%  stragglers: %d   (paper: all but 3 within 21s)\n",
		100*f.Within21s, f.Stragglers)
	capped := make([]float64, len(f.Latencies))
	for i, v := range f.Latencies {
		if v > 30 {
			v = 30
		}
		capped[i] = v
	}
	b.WriteString(stats.NewHistogram(capped, 15, 0, 30).Render("s"))
	return b.String()
}

// Fig3 reproduces "Cost of sending a packet": two clusters from the two
// fee policies (17% priority at $1.40, 83% bundles at $3.02).
type Fig3 struct {
	CostsUSD []float64
	// PriorityFrac is the measured share of priority-fee sends.
	PriorityFrac float64
	// PriorityUSD / BundleUSD are the per-cluster mean costs.
	PriorityUSD float64
	BundleUSD   float64
}

// BuildFig3 computes the figure from a deployment run.
func BuildFig3(d *Deployment) *Fig3 {
	f := &Fig3{}
	var nPrio int
	var sumPrio, sumBundle float64
	for _, s := range d.Sends {
		f.CostsUSD = append(f.CostsUSD, s.CostUSD)
		if s.Policy == "priority" {
			nPrio++
			sumPrio += s.CostUSD
		} else {
			sumBundle += s.CostUSD
		}
	}
	if len(f.CostsUSD) == 0 {
		return f
	}
	f.PriorityFrac = float64(nPrio) / float64(len(f.CostsUSD))
	if nPrio > 0 {
		f.PriorityUSD = sumPrio / float64(nPrio)
	}
	if n := len(f.CostsUSD) - nPrio; n > 0 {
		f.BundleUSD = sumBundle / float64(n)
	}
	return f
}

// Render prints the figure as text.
func (f *Fig3) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 — cost of sending a packet\n")
	fmt.Fprintf(&b, "  n=%d  priority cluster: %.0f%% at $%.2f (paper: 17%% at $1.40)\n",
		len(f.CostsUSD), 100*f.PriorityFrac, f.PriorityUSD)
	fmt.Fprintf(&b, "  bundle cluster: %.0f%% at $%.2f (paper: 83%% at $3.02)\n",
		100*(1-f.PriorityFrac), f.BundleUSD)
	b.WriteString(stats.NewHistogram(f.CostsUSD, 16, 1.0, 3.4).Render("$"))
	return b.String()
}

// Fig4 reproduces "Latency of the light client updates sent by the
// Relayer": first to last host transaction of each chunked update.
type Fig4 struct {
	Latencies []float64 // seconds
	TxCounts  []float64
	Summary   stats.Summary
	TxSummary stats.Summary
	// Below25s and Below60s are the ECDF values the paper quotes
	// (50% < 25 s, 96% < 60 s); TxMean/TxStd the 36.5 ± 5.8 stat.
	Below25s float64
	Below60s float64
}

// BuildFig4 computes the figure from a deployment run.
func BuildFig4(d *Deployment) *Fig4 {
	f := &Fig4{Latencies: d.UpdateLatencies, TxCounts: d.UpdateTxCounts}
	f.Summary = stats.Summarize(f.Latencies)
	f.TxSummary = stats.Summarize(f.TxCounts)
	e := stats.NewECDF(f.Latencies)
	f.Below25s = e.At(25)
	f.Below60s = e.At(60)
	return f
}

// Render prints the figure as text.
func (f *Fig4) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — light-client update latency (first to last host tx)\n")
	fmt.Fprintf(&b, "  n=%d  txs/update: mean %.1f sd %.1f (paper: 36.5 sd 5.8)\n",
		f.Summary.N, f.TxSummary.Mean, f.TxSummary.StdDev)
	fmt.Fprintf(&b, "  P(<25s)=%.0f%% (paper 50%%)  P(<60s)=%.0f%% (paper 96%%)  median=%.1fs\n",
		100*f.Below25s, 100*f.Below60s, f.Summary.Med)
	b.WriteString(stats.NewHistogram(f.Latencies, 15, 0, 75).Render("s"))
	return b.String()
}

// Fig5 reproduces "Cost of the light client update by the Relayer": total
// fees of all transactions in each update; variance tracks update bytes
// and signature count (0.1 ¢/tx + 0.1 ¢/signature, §V-B).
type Fig5 struct {
	CostsCents []float64
	SigCounts  []float64
	Summary    stats.Summary
	// SigCorrelation is cost↔signature-count correlation (should be
	// strongly positive; the §V-B mechanism).
	SigCorrelation float64
}

// BuildFig5 computes the figure from a deployment run.
func BuildFig5(d *Deployment) *Fig5 {
	f := &Fig5{CostsCents: d.UpdateCosts, SigCounts: d.UpdateSigs}
	f.Summary = stats.Summarize(f.CostsCents)
	f.SigCorrelation = stats.Pearson(f.CostsCents, f.SigCounts)
	return f
}

// Render prints the figure as text.
func (f *Fig5) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — light-client update cost\n")
	fmt.Fprintf(&b, "  n=%d  mean=%.1f¢ sd=%.1f¢  (0.1¢/tx + 0.1¢/signature)\n",
		f.Summary.N, f.Summary.Mean, f.Summary.StdDev)
	fmt.Fprintf(&b, "  cost vs signatures-checked correlation: %.2f\n", f.SigCorrelation)
	b.WriteString(stats.NewHistogram(f.CostsCents, 14, f.Summary.Min-0.2, f.Summary.Max+0.2).Render("¢"))
	return b.String()
}

// Fig6 reproduces "Interval between generation time of two consecutive
// guest blocks": the distribution follows the packet rate up to the Δ=1h
// cutoff where empty blocks are generated; ~25% of blocks sit at the
// cutoff, plus a handful of outliers far beyond it (validator outages).
type Fig6 struct {
	Intervals []float64 // seconds
	Summary   stats.Summary
	// AtCutoff is the fraction of intervals within 5% of Δ.
	AtCutoff float64
	// Outliers counts intervals well past Δ (> 1.5Δ) — the paper saw 5.
	Outliers int
	// DeltaSeconds is the configured Δ.
	DeltaSeconds float64
}

// BuildFig6 computes the figure from a deployment run.
func BuildFig6(d *Deployment) *Fig6 {
	f := &Fig6{Intervals: d.BlockIntervals}
	st, err := d.Net.GuestState()
	if err != nil {
		return f
	}
	f.DeltaSeconds = st.Params.Delta.Seconds()
	f.Summary = stats.Summarize(f.Intervals)
	var atCut, outliers int
	for _, g := range f.Intervals {
		switch {
		case g > 1.5*f.DeltaSeconds:
			outliers++
		case g >= 0.95*f.DeltaSeconds:
			atCut++
		}
	}
	if n := len(f.Intervals); n > 0 {
		f.AtCutoff = float64(atCut) / float64(n)
	}
	f.Outliers = outliers
	return f
}

// Render prints the figure as text.
func (f *Fig6) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 — interval between consecutive guest blocks (Δ=%.0fs)\n", f.DeltaSeconds)
	fmt.Fprintf(&b, "  n=%d  median=%.0fs  at-Δ-cutoff: %.0f%% (paper ~25%%)  outliers >1.5Δ: %d (paper 5)\n",
		f.Summary.N, f.Summary.Med, 100*f.AtCutoff, f.Outliers)
	capped := make([]float64, len(f.Intervals))
	for i, v := range f.Intervals {
		if v > f.DeltaSeconds*1.1 {
			v = f.DeltaSeconds * 1.1
		}
		capped[i] = v
	}
	b.WriteString(stats.NewHistogram(capped, 12, 0, f.DeltaSeconds*1.1).Render("s"))
	return b.String()
}

// RecvStats reproduces the §V-A receive-side observations: 4-5 host
// transactions per ReceivePacket, costing 0.4 ¢ (most) or 0.5 ¢.
type RecvStats struct {
	TxCounts   []float64
	CostsCents []float64
	// FracFourTx is the share of 4-transaction receives (paper: 98.2%
	// cost 0.4¢).
	FracFourTx float64
}

// BuildRecvStats computes the receive statistics.
func BuildRecvStats(d *Deployment) *RecvStats {
	r := &RecvStats{TxCounts: d.RecvTxs, CostsCents: d.RecvCostsCents}
	var four int
	for _, t := range r.TxCounts {
		if t <= 4 {
			four++
		}
	}
	if len(r.TxCounts) > 0 {
		r.FracFourTx = float64(four) / float64(len(r.TxCounts))
	}
	return r
}

// Render prints the stats as text.
func (r *RecvStats) Render() string {
	var b strings.Builder
	s := stats.Summarize(r.TxCounts)
	c := stats.Summarize(r.CostsCents)
	fmt.Fprintf(&b, "§V-A — ReceivePacket flow\n")
	fmt.Fprintf(&b, "  n=%d  txs: %.0f-%.0f (paper 4-5), %.1f%% at the low count (paper 98.2%%)\n",
		s.N, s.Min, s.Max, 100*r.FracFourTx)
	fmt.Fprintf(&b, "  cost: %.1f-%.1f ¢ (paper 0.4-0.5 ¢)\n", c.Min, c.Max)
	return b.String()
}
