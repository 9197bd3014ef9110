// Package fees converts host-chain fees to the US-dollar figures the
// evaluation reports, using the paper's convention of a $200/SOL price
// (§V), and defines the fee policies observed in the deployment: priority
// fees and Jito-style bundle tips (Fig. 3), and the per-validator fixed
// priority fees of Table I.
package fees

import (
	"fmt"

	"repro/internal/host"
)

// SOLPriceUSD is the conversion rate the paper uses.
const SOLPriceUSD = 200.0

// USD converts lamports to dollars at the paper's rate.
func USD(l host.Lamports) float64 {
	return float64(l) / float64(host.LamportsPerSOL) * SOLPriceUSD
}

// Cents converts lamports to US cents.
func Cents(l host.Lamports) float64 { return USD(l) * 100 }

// FromUSD converts dollars to lamports.
func FromUSD(usd float64) host.Lamports {
	return host.Lamports(usd / SOLPriceUSD * float64(host.LamportsPerSOL))
}

// FromCents converts cents to lamports.
func FromCents(cents float64) host.Lamports { return FromUSD(cents / 100) }

// Policy is a transaction fee policy (§V-A, §VI-B).
type Policy struct {
	// Name labels the policy in experiment output.
	Name string
	// PriorityFee is the per-transaction priority fee.
	PriorityFee host.Lamports
	// BundleTip is the per-transaction Jito-style tip.
	BundleTip host.Lamports
}

// Deployment fee policies observed in §V-A: 17% of sends used priority
// fees costing $1.40, the rest used block bundles costing $3.02 (the
// figures include the base fee, so the policy parameters below are chosen
// such that the *total* transaction cost matches).
var (
	// PriorityPolicy reproduces the $1.40 send cluster (total cost of a
	// single-signature send transaction).
	PriorityPolicy = Policy{Name: "priority", PriorityFee: FromUSD(1.40) - host.BaseFeePerSignature}
	// BundlePolicy reproduces the $3.02 send cluster.
	BundlePolicy = Policy{Name: "bundle", BundleTip: FromUSD(3.02) - host.BaseFeePerSignature}
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	return fmt.Sprintf("%s(prio=%d, tip=%d)", p.Name, p.PriorityFee, p.BundleTip)
}
