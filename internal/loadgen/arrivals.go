// Package loadgen is the open-loop workload generator: it offers transfer
// traffic to the deployment at a configured rate regardless of how fast
// the system drains it — the regime that exposes saturation behaviour the
// paper's closed-loop evaluation (§V, Table I) cannot show. Arrival
// processes, account popularity, transfer sizes, and the channel mix are
// all sampled from decorrelated deterministic streams of one seed, so
// load runs stay bit-reproducible like every other experiment.
package loadgen

import (
	"math"
	"math/rand"
	"time"
)

// Arrivals produces inter-arrival gaps. Implementations may keep state
// (burst phase), so one instance serves one generator stream.
type Arrivals interface {
	Next(rng *rand.Rand) time.Duration
}

// Poisson is the memoryless baseline: exponential inter-arrival gaps at
// the given mean rate.
type Poisson struct {
	// Mean is the mean inter-arrival gap (1/rate).
	Mean time.Duration
}

// Next implements Arrivals.
func (p Poisson) Next(rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(p.Mean))
}

// SelfSimilar is a bursty on/off arrival process with Pareto-distributed
// period lengths — the classic construction whose superposition yields
// self-similar (long-range-dependent) traffic. During ON periods arrivals
// come at selfSimilarBurst times the mean rate; OFF periods are silent.
// Period lengths are heavy-tailed with index selfSimilarAlpha, and the
// ON/OFF duty cycle is chosen so the long-run rate matches Mean.
type SelfSimilar struct {
	// Mean is the long-run mean inter-arrival gap (1/rate).
	Mean time.Duration

	onLeft time.Duration
}

// The on/off shape: the Pareto tail index of period lengths (1 < alpha < 2
// gives long-range dependence), the peak-to-mean rate ratio during ON
// periods, and the mean ON period in peak gaps.
const (
	selfSimilarAlpha  = 1.5
	selfSimilarBurst  = 8
	selfSimilarOnGaps = 100
)

// params returns (peak gap, mean on, mean off).
func (s *SelfSimilar) params() (time.Duration, time.Duration, time.Duration) {
	peak := time.Duration(float64(s.Mean) / selfSimilarBurst)
	onMean := selfSimilarOnGaps * peak
	// Duty cycle on/(on+off) = 1/burst keeps the long-run rate at 1/Mean.
	offMean := time.Duration(float64(onMean) * (selfSimilarBurst - 1))
	return peak, onMean, offMean
}

// pareto draws a Pareto(selfSimilarAlpha) duration with the given mean.
func pareto(rng *rand.Rand, mean time.Duration) time.Duration {
	// Mean of Pareto(xm, alpha) is xm*alpha/(alpha-1); invert for xm.
	xm := float64(mean) * (selfSimilarAlpha - 1) / selfSimilarAlpha
	u := rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return time.Duration(xm / math.Pow(u, 1/selfSimilarAlpha))
}

// Next implements Arrivals.
func (s *SelfSimilar) Next(rng *rand.Rand) time.Duration {
	peak, onMean, offMean := s.params()
	var gap time.Duration
	for {
		if s.onLeft <= 0 {
			gap += pareto(rng, offMean)
			s.onLeft = pareto(rng, onMean)
		}
		g := time.Duration(rng.ExpFloat64() * float64(peak))
		if g <= s.onLeft {
			s.onLeft -= g
			return gap + g
		}
		gap += s.onLeft
		s.onLeft = 0
	}
}
