// Package telemetry is the repo's first-class observability layer: a
// lock-cheap metrics registry (counters, gauges, latency histograms), a
// per-packet trace model covering the full IBC lifecycle (SendPacket →
// commit → guest-block finalise → relayer pickup → RecvPacket/Ack/Timeout),
// and a typed event bus that replaces the old `func(kind string, data any)`
// sinks.
//
// The paper's whole evaluation (§V) is measurement — packet latency,
// light-client update cost, validator signing behaviour, guest block
// intervals — so instrumentation is part of the system model, not an
// afterthought: the actor packages report through one shared Telemetry and
// the experiment drivers compile their figures from its snapshots. A key
// is written only where something reads it; internal/core's
// TestEveryMetricHasAReader lists each key with its reader.
//
// Concurrency: counters and gauges are single atomics (safe to bump from
// any goroutine, negligible cost on hot paths); histograms and the tracer
// take a short mutex per observation; the bus delivers events synchronously
// under its own lock so emission order is deterministic.
package telemetry

// Telemetry bundles the two observability surfaces one deployment
// shares: a metrics registry and a packet tracer. Event buses are per
// chain handler (ibc.Handler.Events).
type Telemetry struct {
	// Metrics is the named counter/gauge/histogram registry.
	Metrics *Registry
	// Tracer records per-packet lifecycle spans.
	Tracer *Tracer
}

// New returns an empty Telemetry with both surfaces ready.
func New() *Telemetry {
	return &Telemetry{
		Metrics: NewRegistry(),
		Tracer:  NewTracer(),
	}
}

// Snapshot captures metrics and traces in one consistent, deterministically
// ordered export.
func (t *Telemetry) Snapshot() Snapshot {
	s := t.Metrics.Snapshot()
	s.Traces = t.Tracer.Snapshot()
	return s
}
