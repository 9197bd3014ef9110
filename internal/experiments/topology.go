package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fees"
	"repro/internal/ibc"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/validator"
)

// The deployments the scenario literals (and the repo benchmark) are
// built from.

// fourChains is the guest plus three cosmos chains of both meshes.
func fourChains() []core.MeshChainSpec {
	return []core.MeshChainSpec{{Name: "guest", Kind: core.MeshGuest}, {Name: "a"}, {Name: "b"}, {Name: "c"}}
}

// LineMeshTopology is the 4-chain line guest — a — b — c: the longest
// route is 3 hops, so a guest transfer to c crosses two forwarding
// chains.
func LineMeshTopology() core.MeshSpec {
	return core.MeshSpec{
		Chains: fourChains(),
		Links: []core.MeshLinkSpec{
			{A: "guest", B: "a"},
			{A: "a", B: "b"},
			{A: "b", B: "c"},
		},
	}
}

// DiamondMeshTopology is the 4-chain diamond: guest — {a, b} — c. Two
// equal-length routes join guest and c; the routing table breaks the tie
// deterministically, so every run picks the same one.
func DiamondMeshTopology() core.MeshSpec {
	return core.MeshSpec{
		Chains: fourChains(),
		Links: []core.MeshLinkSpec{
			{A: "guest", B: "a"},
			{A: "guest", B: "b"},
			{A: "a", B: "c"},
			{A: "b", B: "c"},
		},
	}
}

// meshChaos sets the per-link fault profiles of the mesh acceptance runs:
// every link drops 5% of messages in both directions, and each direction
// of each link draws latency from its own range. The ranges are a pure
// function of the link's position, so the profile is part of the topology,
// not of any RNG stream.
func meshChaos(spec core.MeshSpec) core.MeshSpec {
	for i := range spec.Links {
		l := &spec.Links[i]
		step := time.Duration(i) * 15 * time.Millisecond
		l.NetA = netsim.LinkConfig{
			Latency: sim.Uniform{Min: 20*time.Millisecond + step, Max: 90*time.Millisecond + 2*step},
			Drop:    0.05,
		}
		l.NetB = netsim.LinkConfig{
			Latency: sim.Uniform{Min: 60*time.Millisecond + step, Max: 200*time.Millisecond + 2*step},
			Drop:    0.05,
		}
	}
	return spec
}

// ChaosLink is the 5% drop + 5% duplicate link the pair acceptance runs
// inject on every link.
func ChaosLink() netsim.Config {
	return netsim.Config{
		Default: netsim.LinkConfig{
			Latency:   sim.Uniform{Min: 20 * time.Millisecond, Max: 120 * time.Millisecond},
			Drop:      0.05,
			Duplicate: 0.05,
		},
	}
}

// ChannelTopology builds n channel specs: channel 0 on the reference
// "transfer" port, channel i on "transfer-<i>" (its own app instance on
// both sides), with the first ⌈orderedFrac·n⌉ channels Ordered.
func ChannelTopology(n int, orderedFrac float64) []core.ChannelSpec {
	ordered := int(orderedFrac*float64(n) + 0.5)
	specs := make([]core.ChannelSpec, n)
	for i := range specs {
		port := ibc.PortID("transfer")
		if i > 0 {
			port = ibc.PortID(fmt.Sprintf("transfer-%d", i))
		}
		ord := ibc.Unordered
		if i < ordered {
			ord = ibc.Ordered
		}
		specs[i] = core.ChannelSpec{GuestPort: port, CPPort: port, Ordering: ord}
	}
	return specs
}

// HealthyBehaviours returns n always-on validators with mild latency — a
// quorum that never stalls, for scenarios that measure the packet plane
// rather than the §V fleet incidents.
func HealthyBehaviours(n int) []validator.Behaviour {
	return uniformFleet(n, sim.Uniform{Min: 1 * time.Second, Max: 3 * time.Second})
}

// uniformFleet is n always-on fixed-fee validators signing with the same
// latency distribution.
func uniformFleet(n int, latency sim.Dist) []validator.Behaviour {
	out := make([]validator.Behaviour, n)
	for i := range out {
		out[i] = validator.Behaviour{Active: true, Latency: latency, Policy: fees.Policy{Name: "fixed"}}
	}
	return out
}
