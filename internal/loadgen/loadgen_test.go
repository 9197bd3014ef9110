package loadgen

import (
	"math"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// TestSamplerDeterminism: same seed ⇒ identical event sequences (arrival
// gaps, accounts, channels, amounts); different seed ⇒ different.
func TestSamplerDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 50}
	a := NewSampler(cfg, 4, nil)
	b := NewSampler(cfg, 4, nil)
	var diffFromC int
	cfg2 := cfg
	cfg2.Seed = 43
	c := NewSampler(cfg2, 4, nil)
	for i := 0; i < 1000; i++ {
		ea, eb, ec := a.Next(), b.Next(), c.Next()
		if ea != eb {
			t.Fatalf("event %d diverged under same seed: %+v vs %+v", i, ea, eb)
		}
		if ea != ec {
			diffFromC++
		}
	}
	if diffFromC == 0 {
		t.Fatal("different seeds produced identical sequences")
	}
}

// TestSamplerStreamsDecorrelated: the channel count, which decides whether
// and how the mix stream is drawn, must not perturb the arrival, account or
// size streams.
func TestSamplerStreamsDecorrelated(t *testing.T) {
	cfg := Config{Seed: 7, Rate: 20}
	a := NewSampler(cfg, 1, nil)
	b := NewSampler(cfg, 4, nil)
	spread := false
	for i := 0; i < 500; i++ {
		ea, eb := a.Next(), b.Next()
		if ea.Channel != 0 {
			t.Fatalf("event %d: channel %d on a one-channel topology", i, ea.Channel)
		}
		spread = spread || eb.Channel != 0
		ea.Channel, eb.Channel = 0, 0
		if ea != eb {
			t.Fatalf("event %d: channel count perturbed other streams: %+v vs %+v", i, ea, eb)
		}
	}
	if !spread {
		t.Fatal("four channels never drew a channel other than 0")
	}
}

// TestPoissonMeanRate: the empirical mean inter-arrival gap must be within
// tolerance of 1/rate.
func TestPoissonMeanRate(t *testing.T) {
	cfg := Config{Seed: 1, Rate: 10} // mean gap 100ms
	s := NewSampler(cfg, 1, nil)
	const n = 20000
	var total time.Duration
	for i := 0; i < n; i++ {
		total += s.Next().Gap
	}
	mean := float64(total) / n
	want := float64(100 * time.Millisecond)
	if ratio := mean / want; math.Abs(ratio-1) > 0.05 {
		t.Fatalf("poisson mean gap = %v, want ~100ms (ratio %.3f)", time.Duration(mean), ratio)
	}
}

// TestSelfSimilarMeanRateAndBurstiness: the bursty process must hold the
// long-run rate while being markedly more variable than Poisson.
func TestSelfSimilarMeanRateAndBurstiness(t *testing.T) {
	cfg := Config{Seed: 3, Rate: 10, Bursty: true}
	s := NewSampler(cfg, 1, nil)
	const n = 50000
	gaps := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		g := float64(s.Next().Gap)
		gaps[i] = g
		total += g
	}
	mean := total / n
	want := float64(100 * time.Millisecond)
	if ratio := mean / want; math.Abs(ratio-1) > 0.25 {
		t.Fatalf("self-similar mean gap = %v, want ~100ms (ratio %.3f)", time.Duration(mean), ratio)
	}
	// Coefficient of variation: exponential has CV=1; the on/off process
	// must be clearly burstier.
	var sq float64
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sq/n) / mean
	if cv < 1.5 {
		t.Fatalf("self-similar CV = %.2f, want > 1.5 (burstier than Poisson)", cv)
	}
}

// TestZipfHeadMass: the popular head must dominate; the population stays
// huge while only touched accounts materialise.
func TestZipfHeadMass(t *testing.T) {
	cfg := Config{Seed: 9, Rate: 1}
	s := NewSampler(cfg, 1, nil)
	const n = 100_000
	counts := make(map[uint64]int)
	for i := 0; i < n; i++ {
		counts[s.Next().Account]++
	}
	// Head mass: samples landing on the 1000 most popular accounts
	// (indices 0..999 by rand.Zipf construction).
	var head int
	for idx, c := range counts {
		if idx < 1000 {
			head += c
		}
	}
	frac := float64(head) / n
	if frac < 0.5 {
		t.Fatalf("top-1000 head mass = %.3f, want >= 0.5 (Zipf s=1.2)", frac)
	}
	// Uniform would put 0.1% on the head; Zipf must be far from uniform.
	if frac < 100*float64(1000)/float64(Population) {
		t.Fatalf("head mass %.3f indistinguishable from uniform", frac)
	}
	// Lazy materialisation: distinct touched accounts are a tiny slice of
	// the million-account population.
	if len(counts) >= n {
		t.Fatalf("every sample hit a distinct account; Zipf head missing")
	}
}

// TestAccountsLazyMaterialise: the materialise hook runs exactly once per
// distinct account.
func TestAccountsLazyMaterialise(t *testing.T) {
	cfg := Config{Seed: 5, Rate: 1}
	seen := make(map[uint64]int)
	s := NewSampler(cfg, 1, func(idx uint64, _ cryptoutil.PubKey) { seen[idx]++ })
	for i := 0; i < 5000; i++ {
		ev := s.Next()
		s.Accounts().Pub(ev.Account)
	}
	if len(seen) == 0 {
		t.Fatal("materialise hook never ran")
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("account %d materialised %d times", idx, n)
		}
	}
	if got := s.Accounts().Materialised(); got != len(seen) {
		t.Fatalf("Materialised() = %d, want %d", got, len(seen))
	}
	// Derived keys are stable and distinct.
	if AccountKey(1) == AccountKey(2) {
		t.Fatal("account keys collide")
	}
	if AccountKey(1) != AccountKey(1) {
		t.Fatal("account key derivation unstable")
	}
}
