package core

import (
	"testing"
	"time"

	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/telemetry"
)

// TestPacketTraceSpanChain sends one guest→counterparty transfer and asserts
// the telemetry trace carries every lifecycle span exactly once, in causal
// order: send → commit → finalise → pickup → recv → ack.
func TestPacketTraceSpanChain(t *testing.T) {
	n := testNetwork(t)
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)
	if _, err := n.SendTransferFromGuest(alice, "cp-bob", "GUEST", 100, "", fees.PriorityPolicy, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(2 * time.Minute)

	snap := n.SnapshotTelemetry()
	if len(snap.Traces) != 1 {
		t.Fatalf("traced %d packets, want 1", len(snap.Traces))
	}
	tr := snap.Traces[0]

	chain := []string{
		telemetry.StageSend,
		telemetry.StageCommit,
		telemetry.StageFinalise,
		telemetry.StagePickup,
		telemetry.StageRecv,
		telemetry.StageAck,
	}
	if len(tr.Spans) != len(chain) {
		t.Fatalf("trace %s has %d spans %v, want the %d-stage chain", tr.Key, len(tr.Spans), tr.Spans, len(chain))
	}
	seen := make(map[string]int)
	for _, sp := range tr.Spans {
		seen[sp.Stage]++
	}
	for _, stage := range chain {
		if seen[stage] != 1 {
			t.Fatalf("stage %q appears %d times in trace %s, want exactly once", stage, seen[stage], tr.Key)
		}
	}
	// Causal ordering: each stage lands no earlier than its predecessor.
	for i := 1; i < len(chain); i++ {
		prev, _ := tr.Span(chain[i-1])
		cur, _ := tr.Span(chain[i])
		if cur.At.Before(prev.At) {
			t.Fatalf("stage %q at %v precedes %q at %v", chain[i], cur.At, chain[i-1], prev.At)
		}
	}
	// A successful round-trip never times out.
	if _, ok := tr.Span(telemetry.StageTimeout); ok {
		t.Fatalf("unexpected timeout span in trace %s", tr.Key)
	}

	// The same round-trip shows up in the handler counters on both ends.
	if got := snap.Counter("guest.ibc.packets_sent"); got != 1 {
		t.Errorf("guest.ibc.packets_sent = %d, want 1", got)
	}
	if got := snap.Counter("cp.ibc.packets_received"); got != 1 {
		t.Errorf("cp.ibc.packets_received = %d, want 1", got)
	}
	if got := snap.Counter("guest.ibc.packets_acked"); got != 1 {
		t.Errorf("guest.ibc.packets_acked = %d, want 1", got)
	}
}

// TestTimeoutTraceSpan sends a transfer with an immediate timeout and
// asserts the trace ends in a timeout span instead of recv/ack.
func TestTimeoutTraceSpan(t *testing.T) {
	n := testNetwork(t)
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)
	if _, err := n.SendTransferFromGuest(alice, "cp-bob", "GUEST", 100, "", fees.PriorityPolicy, time.Second); err != nil {
		t.Fatal(err)
	}
	n.Run(5 * time.Minute)

	snap := n.SnapshotTelemetry()
	if len(snap.Traces) != 1 {
		t.Fatalf("traced %d packets, want 1", len(snap.Traces))
	}
	tr := snap.Traces[0]
	if _, ok := tr.Span(telemetry.StageTimeout); !ok {
		t.Fatalf("trace %s has no timeout span: %v", tr.Key, tr.Spans)
	}
	if _, ok := tr.Span(telemetry.StageAck); ok {
		t.Fatalf("timed-out trace %s also has an ack span", tr.Key)
	}
	if got := snap.Counter("guest.ibc.packets_timed_out"); got != 1 {
		t.Errorf("guest.ibc.packets_timed_out = %d, want 1", got)
	}
}
