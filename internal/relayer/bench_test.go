package relayer

import (
	"testing"
	"time"

	"repro/internal/ibc"
)

// traceKey is the packet's key in the telemetry tracer, as a string.
func traceKey(p *ibc.Packet) string { return string(appendTraceKey(nil, p)) }

// BenchmarkTraceKey covers the per-event trace-key construction: every
// packet mark spells this key on the relayer's stack (six times in a
// packet's lifecycle), so it sits on the telemetry hot path under load.
func BenchmarkTraceKey(b *testing.B) {
	p := &ibc.Packet{
		Sequence:      123_456,
		SourcePort:    "transfer",
		SourceChannel: "channel-0",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var key [64]byte
		if len(appendTraceKey(key[:0], p)) == 0 {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkCheckTimeouts is one timeout scan over a link that has settled
// 10 000 packets (their traces kept for Fig. 2) and has 100 outstanding,
// none expired yet: the steady state of an outbound run between blocks.
func BenchmarkCheckTimeouts(b *testing.B) {
	l := newFakeLink(b, fakeChannels)
	for i := 0; i < 10_000; i++ {
		l.deliver(1, l.send(1, i%2, time.Hour), false)
	}
	for i := 0; i < 100; i++ {
		l.send(1, i%2, time.Hour)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.r.CheckTimeouts()
	}
	if len(l.submitted) != 0 {
		b.Fatalf("submitted %d timeouts before anything expired", len(l.submitted))
	}
}
