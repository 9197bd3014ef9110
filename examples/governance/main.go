// Governance: cross-chain governance over IBC — one of the use cases the
// paper's introduction motivates. A DAO on the counterparty chain opens a
// proposal; token holders on the guest blockchain cast votes as IBC
// packets on a dedicated "gov" port; the DAO tallies acknowledged votes
// and publishes the outcome back to the guest chain.
//
// The example shows how to build a custom IBC application (ibc.Module) on
// both ends of a guest-blockchain channel.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/counterparty"
	"repro/internal/fees"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/relayer"
	"repro/internal/sim"
	"repro/internal/validator"
)

// Vote is the packet payload guest-side holders send.
type Vote struct {
	Proposal string `json:"proposal"`
	Voter    string `json:"voter"`
	Weight   uint64 `json:"weight"`
	Approve  bool   `json:"approve"`
}

// tally is the counterparty-side DAO module.
type tally struct {
	yes, no  uint64
	votes    int
	rejected int
}

func (t *tally) OnChanOpen(ibc.PortID, ibc.ChannelID, string) error { return nil }

func (t *tally) OnRecvPacket(p ibc.Packet) ([]byte, error) {
	var v Vote
	if err := json.Unmarshal(p.Data, &v); err != nil || v.Weight == 0 {
		t.rejected++
		return []byte(`{"error":"invalid vote"}`), nil
	}
	if v.Approve {
		t.yes += v.Weight
	} else {
		t.no += v.Weight
	}
	t.votes++
	return []byte(`{"result":"counted"}`), nil
}

func (t *tally) OnAcknowledgementPacket(ibc.Packet, []byte) error { return nil }
func (t *tally) OnTimeoutPacket(ibc.Packet) error                 { return nil }

// voterApp is the guest-side module: it only needs acks (vote receipts).
type voterApp struct {
	receipts int
}

func (a *voterApp) OnChanOpen(ibc.PortID, ibc.ChannelID, string) error { return nil }
func (a *voterApp) OnRecvPacket(ibc.Packet) ([]byte, error) {
	return []byte(`{"result":"ok"}`), nil
}
func (a *voterApp) OnAcknowledgementPacket(_ ibc.Packet, ack []byte) error {
	a.receipts++
	return nil
}
func (a *voterApp) OnTimeoutPacket(ibc.Packet) error { return nil }

func main() {
	fleet := make([]validator.Behaviour, 5)
	for i := range fleet {
		fleet[i] = validator.Behaviour{
			Active:  true,
			Latency: sim.Uniform{Min: time.Second, Max: 4 * time.Second},
			Policy:  fees.Policy{Name: "fixed", PriorityFee: 10_000},
		}
	}
	cp := counterparty.DefaultConfig()
	cp.NumValidators = 25

	// Build the default deployment: its "transfer" channel opens, and the
	// connection it rides is the one the governance channel reuses below.
	net, err := core.NewNetwork(core.Config{
		Behaviours: fleet,
		CP:         cp,
		Seed:       11,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Open a second, dedicated channel for governance, on the "gov" port
	// with our custom modules bound on both ends instead of the
	// token-transfer app.
	voter := &voterApp{}
	dao := &tally{}
	st, err := net.GuestState()
	if err != nil {
		log.Fatal(err)
	}
	if err := st.Handler.BindPort("gov", voter); err != nil {
		log.Fatal(err)
	}
	if err := net.CP.Handler().BindPort("gov", dao); err != nil {
		log.Fatal(err)
	}
	boot := &relayer.Bootstrap{
		HostChain:     net.Host,
		Contract:      net.Contract,
		CP:            net.CP,
		ValidatorKeys: net.ValidatorKeys,
		GuestPort:     "gov",
		CPPort:        "gov",
		Version:       "gov-1",
		Reuse:         net.Boot,
	}
	govIDs, err := boot.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("governance channel open: %s <-> %s\n\n", govIDs.GuestChannel, govIDs.CPChannel)

	// Guest-side holders cast votes.
	holders := []struct {
		name    string
		weight  uint64
		approve bool
	}{
		{"validator-guild", 400, true},
		{"treasury", 250, true},
		{"lp-collective", 300, false},
		{"small-holder", 50, true},
	}
	for i, h := range holders {
		u := net.NewUser(h.name, 10*host.LamportsPerSOL, "GOV", 1)
		v := Vote{Proposal: "prop-7:raise-delta", Voter: h.name, Weight: h.weight, Approve: h.approve}
		raw, err := json.Marshal(v)
		if err != nil {
			log.Fatal(err)
		}
		builder := guest.NewTxBuilder(net.Contract, u.Key.Public())
		builder.PriorityFee = 10_000
		tx := builder.SendPacketTx(&guest.SendPacketArgs{
			Sender:  u.Key.Public(),
			Port:    "gov",
			Channel: govIDs.GuestChannel,
			Data:    raw,
		})
		if err := net.Host.Submit(tx); err != nil {
			log.Fatal(err)
		}
		// Stagger votes so several guest blocks carry them.
		net.Run(time.Duration(10+5*i) * time.Second)
	}

	net.Run(3 * time.Minute)
	fmt.Printf("votes received by the DAO: %d (rejected: %d)\n", dao.votes, dao.rejected)
	fmt.Printf("tally: %d yes / %d no -> proposal %s\n", dao.yes, dao.no, verdict(dao))
	fmt.Printf("vote receipts acknowledged back on the guest chain: %d\n", voter.receipts)
}

func verdict(t *tally) string {
	if t.yes > t.no {
		return "PASSES"
	}
	return "FAILS"
}
