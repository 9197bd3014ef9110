package relayer

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transfer"
)

// sendOnTransfer commits a packet on the cosmos chain's end of the guest
// link's "transfer" channel, the one shard 0 (lane 0, the root pacer)
// serves; the guest's nopModule acknowledges it.
func (e *linkEnv) sendOnTransfer(t *testing.T) {
	t.Helper()
	if _, err := e.cp.SendPacket("transfer", e.res.CPChannel, []byte("lane-0"), 0, time.Time{}); err != nil {
		t.Fatal(err)
	}
}

// blockLabels is every host block the guest link's chain produced, with the
// labels of the transactions each executed, and whether one failed.
func (e *linkEnv) blockLabels(t *testing.T) (labels [][]string, failed bool) {
	t.Helper()
	for _, b := range e.hostBlocks.Pull(nil) {
		var ls []string
		for _, r := range b.Results {
			ls = append(ls, r.Label)
			failed = failed || r.Err != nil && r.Label != "sign"
		}
		labels = append(labels, ls)
	}
	return labels, failed
}

// TestUpdateLandsWithItsReceives: at 0.5 pkt/s, alternating between the
// link's two channels, every client update toward the guest is bound with
// both lanes' first recv jobs proven at its height, and its commit goes out
// with theirs: the three commits execute in one host block. The guest's
// state therefore changes once per update cycle, and the crank mints one
// guest block per update where an update landing ahead of its receives
// needs two.
func TestUpdateLandsWithItsReceives(t *testing.T) {
	e := newLinkEnv(t, guestLink, netsim.Config{})
	st := e.guestState(t)
	blocksBefore := len(st.Entries)
	const sends = 60
	for i := 0; i < sends; i++ {
		at := time.Duration(i) * 2 * time.Second
		if i%2 == 0 {
			e.sched.After(at, func() { e.sendOnTransfer(t) })
		} else {
			e.sched.After(at, func() { e.sendBack(t, 5, 0) })
		}
	}
	e.sched.RunFor(10 * time.Minute)

	labels, failed := e.blockLabels(t)
	if failed {
		t.Error("a relayer transaction failed in execution")
	}
	updates := 0
	for _, ls := range labels {
		u, r := count(ls, "client-update/commit"), count(ls, "recv-packet/commit")
		if u == 0 && r == 0 {
			continue
		}
		updates += u
		if u != 1 || r != 2 {
			t.Errorf("a host block executed %d client-update and %d recv commits, want 1 and 2: %q", u, r, ls)
		}
	}
	if updates < 5 {
		t.Fatalf("%d client updates landed; the scenario did not run", updates)
	}
	if got := e.counter("delivered"); got != sends {
		t.Errorf("delivered = %d, want %d", got, sends)
	}
	if got := e.homeApp.Balance("dave", transfer.VoucherPrefix(bankPort, e.homeCh)+"COIN"); got != 5*sends/2 {
		t.Errorf("dave holds %d vouchers, want %d", got, 5*sends/2)
	}
	if got := len(st.Entries) - blocksBefore; got != updates {
		t.Errorf("%d guest blocks for %d update cycles, want one each", got, updates)
	}
}

// TestLateLaneCommitsOnItsOwnPacer: a client update toward the guest binds
// with one packet waiting on lane 0 and a long run of them on lane 1, whose
// recv job stages more chunks than the update's tail. The update's commit
// goes out with lane 0's and does not wait for lane 1: that lane keeps its
// commit and sends it on its own pacer once its chunks are staged, behind
// the update, and every packet is delivered once.
func TestLateLaneCommitsOnItsOwnPacer(t *testing.T) {
	e := newLinkEnv(t, guestLink, netsim.Config{})
	const amount, bank = 10, 40
	e.sendOnTransfer(t)
	for i := 0; i < bank; i++ {
		e.sendBack(t, amount, 0)
	}
	e.sched.RunFor(5 * time.Minute)

	commit := -1
	for i, l := range e.hostLabels {
		if l == "client-update/commit" {
			commit = i
			break
		}
	}
	if commit < 0 || count(e.hostLabels[commit:], "recv-packet/chunk") == 0 {
		t.Fatalf("no recv chunk went out after the update's commit; the scenario did not run: %q", e.hostLabels)
	}
	labels, failed := e.blockLabels(t)
	if failed {
		t.Error("a relayer transaction failed in execution")
	}
	var with, after int
	for _, ls := range labels {
		if count(ls, "client-update/commit") > 0 {
			with = count(ls, "recv-packet/commit")
			continue
		}
		if with > 0 {
			after += count(ls, "recv-packet/commit")
		}
	}
	if with != 1 || after != 1 {
		t.Errorf("recv commits: %d with the update's, %d after it; want lane 0's with it and lane 1's after", with, after)
	}
	if got := count(e.hostLabels, "client-update/commit"); got != 1 {
		t.Errorf("%d client updates, want 1", got)
	}
	lane0, lane1 := e.counter("ch."+string(e.res.GuestChannel)+".recv_submitted"), e.counter("ch."+string(e.homeCh)+".recv_submitted")
	if lane0 != 1 || lane1 != bank {
		t.Errorf("delivered %d on lane 0 and %d on lane 1, want 1 and %d", lane0, lane1, bank)
	}
	if got := e.homeApp.Balance("dave", transfer.VoucherPrefix(bankPort, e.homeCh)+"COIN"); got != amount*bank {
		t.Errorf("dave holds %d vouchers, want %d", got, amount*bank)
	}
	if n := e.guestState(t).StagingBuffers(); n != 0 {
		t.Errorf("%d staging buffers left open", n)
	}
}
