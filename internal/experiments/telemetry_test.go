package experiments

import "testing"

// TestTelemetrySnapshotCoversLifecycle sanity-checks that a deployment run
// leaves a populated snapshot: non-zero packet counters on both handlers and
// a quorum-verification latency histogram.
func TestTelemetrySnapshotCoversLifecycle(t *testing.T) {
	d := getShortRun(t)
	snap := d.Net.SnapshotTelemetry()

	for _, name := range []string{
		"guest.ibc.packets_sent",
		"guest.ibc.packets_received",
		"cp.ibc.packets_sent",
		"cp.ibc.packets_received",
		"host.txs_executed",
		"relayer.client_updates",
	} {
		if snap.Counter(name) == 0 {
			t.Errorf("counter %s is zero after a deployment run", name)
		}
	}
	for _, name := range []string{
		"guestblock.quorum_verify_s",
		"guest.block.interval_s",
		"relayer.update.latency_s",
	} {
		if len(snap.HistogramSamples(name)) == 0 {
			t.Errorf("histogram %s is empty after a deployment run", name)
		}
	}
}
