// Fisherman: a byzantine validator forges signatures for blocks that were
// never produced by the Guest Contract; a permissionless fisherman spots
// the signatures in gossip, submits evidence, and the contract slashes the
// offender's stake (§III-C). All three offence classes are demonstrated:
// signing a fork of an existing height, signing a future height, and
// double-signing one height.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/counterparty"
	"repro/internal/cryptoutil"
	"repro/internal/fees"
	"repro/internal/fisherman"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/validator"
)

func main() {
	fleet := make([]validator.Behaviour, 10)
	for i := range fleet {
		fleet[i] = validator.Behaviour{
			Active:  true,
			Latency: sim.Uniform{Min: 500 * time.Millisecond, Max: 2 * time.Second},
			Policy:  fees.Policy{Name: "fixed", PriorityFee: 5_000},
		}
	}
	cp := counterparty.DefaultConfig()
	cp.NumValidators = 15
	net, err := core.NewNetwork(core.Config{Behaviours: fleet, CP: cp, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	// Produce some chain activity so there are canonical blocks.
	alice := net.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 100)
	if _, err := net.SendTransferFromGuest(alice, "bob", "GUEST", 10, "", fees.PriorityPolicy, 0); err != nil {
		log.Fatal(err)
	}
	net.Run(time.Minute)

	st, err := net.GuestState()
	if err != nil {
		log.Fatal(err)
	}
	byz := net.Validators[7] // the offender
	fmt.Printf("guest height: %d; byzantine validator: %s\n", st.Height(), byz.Key.Public().Short())
	fmt.Printf("stake before: %.1f SOL, slashed=%v\n\n",
		float64(st.Candidates[byz.Key.Public()].Stake)/float64(host.LamportsPerSOL),
		st.Slashed[byz.Key.Public()])

	// Offence 3: sign a block that differs from the canonical block at an
	// existing height.
	forged := cryptoutil.HashBytes([]byte("a fork that never happened"))
	sig := byz.PublishForgedSignature(forged)
	net.Gossip.Publish(fisherman.Observation{
		Height: 2, BlockHash: forged, PubKey: sig.PubKey, Signature: sig.Signature,
	})
	fmt.Println("byzantine validator gossips a signature for a forged block at height 2...")

	net.Run(time.Minute)
	st, _ = net.GuestState()
	fmt.Printf("fisherman submissions: %d\n", net.Fishermen[0].Submitted)
	fmt.Printf("slashed=%v, candidate removed=%v, slashed pot: %.1f SOL\n\n",
		st.Slashed[byz.Key.Public()],
		st.Candidates[byz.Key.Public()] == nil,
		float64(st.SlashedPot)/float64(host.LamportsPerSOL))

	// Offence 2: another validator signs a far-future height.
	byz2 := net.Validators[8]
	future := cryptoutil.HashBytes([]byte("block from the future"))
	sig2 := byz2.PublishForgedSignature(future)
	net.Gossip.Publish(fisherman.Observation{
		Height: 9_999, BlockHash: future, PubKey: sig2.PubKey, Signature: sig2.Signature,
	})
	fmt.Println("second validator gossips a signature for height 9999 (far beyond head)...")
	net.Run(time.Minute)
	st, _ = net.GuestState()
	fmt.Printf("slashed=%v (offence: future height)\n\n", st.Slashed[byz2.Key.Public()])

	// Offence 1: double-signing a height that is not yet on chain.
	byz3 := net.Validators[9]
	h := st.Height() + 1
	a := cryptoutil.HashBytes([]byte("candidate block A"))
	b := cryptoutil.HashBytes([]byte("candidate block B"))
	sa := byz3.PublishForgedSignature(a)
	sb := byz3.PublishForgedSignature(b)
	net.Gossip.Publish(fisherman.Observation{Height: h, BlockHash: a, PubKey: sa.PubKey, Signature: sa.Signature})
	net.Gossip.Publish(fisherman.Observation{Height: h, BlockHash: b, PubKey: sb.PubKey, Signature: sb.Signature})
	fmt.Printf("third validator double-signs height %d...\n", h)
	net.Run(time.Minute)
	st, _ = net.GuestState()
	fmt.Printf("slashed=%v (offence: double sign)\n\n", st.Slashed[byz3.Key.Public()])

	// The fisherman is rewarded with half of each confiscated stake.
	fmt.Printf("fisherman balance: %.1f SOL (rewards for %d reports)\n",
		float64(net.Host.Balance(net.Fishermen[0].Key().Public()))/float64(host.LamportsPerSOL),
		net.Fishermen[0].Submitted)

	// The chain keeps finalising without the slashed validators: the
	// remaining 7 of 10 equal stakes still exceed the 2/3 quorum.
	if _, err := net.SendTransferFromGuest(alice, "bob", "GUEST", 5, "", fees.PriorityPolicy, 0); err != nil {
		log.Fatal(err)
	}
	before := st.Height()
	net.Run(time.Minute)
	st, _ = net.GuestState()
	fmt.Printf("chain still live: height %d -> %d, head finalised=%v\n", before, st.Height(), st.Head().Finalised)
}
