package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Lifecycle stages of one IBC packet, in order. A guest-sent packet that
// completes normally produces send → commit → finalise → pickup → recv →
// ack; one that expires ends in timeout instead of recv/ack.
const (
	// StageSend is SendPacket executing on the sending chain.
	StageSend = "send"
	// StageCommit is the packet commitment landing in provable state
	// (same host transaction as send in the guest-contract model).
	StageCommit = "commit"
	// StageFinalise is the guest block carrying the packet reaching
	// quorum finality.
	StageFinalise = "finalise"
	// StagePickup is the relayer picking the packet up for delivery.
	StagePickup = "pickup"
	// StageRecv is RecvPacket succeeding on the destination chain.
	StageRecv = "recv"
	// StageAck is the acknowledgement landing back on the sender.
	StageAck = "ack"
	// StageTimeout is a timeout proof landing instead of delivery.
	StageTimeout = "timeout"
)

// Span is one recorded lifecycle stage of a packet trace.
type Span struct {
	Stage string
	At    time.Time
}

// Trace is the ordered span list of one packet, keyed by the relayer's
// traceKey (sourcePort/sourceChannel/sequence).
type Trace struct {
	Key   string
	Spans []Span
}

// Span returns the span for stage and whether it was recorded.
func (t Trace) Span(stage string) (Span, bool) {
	for _, s := range t.Spans {
		if s.Stage == stage {
			return s, true
		}
	}
	return Span{}, false
}

// Tracer collects per-packet traces. Marks are idempotent per (key,
// stage): the first observation of a stage wins, so replays and duplicate
// event deliveries cannot double-count a lifecycle step. A nil tracer is a
// no-op.
type Tracer struct {
	mu     sync.Mutex
	traces map[string]*Trace
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{traces: make(map[string]*Trace)}
}

// Mark records stage for the packet identified by key at time at, unless
// that stage was already recorded.
func (t *Tracer) Mark(key, stage string, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.traces[key]
	if !ok {
		tr = newTrace(key)
		t.traces[key] = tr
	}
	tr.mark(stage, at)
}

// MarkBytes is Mark for a key spelled in the caller's buffer. The tracer
// copies the key only when it starts the key's trace, so a caller that
// marks one packet at several stages spells its key on the stack each
// time and allocates it once.
func (t *Tracer) MarkBytes(key []byte, stage string, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.traces[string(key)]
	if !ok {
		k := string(key)
		tr = newTrace(k)
		t.traces[k] = tr
	}
	tr.mark(stage, at)
}

// lifecycleStages is the span count of a packet that completes normally
// (send through ack); a timed-out packet has no more.
const lifecycleStages = 6

// newTrace starts key's trace with room for every lifecycle stage, so its
// span list is allocated once rather than grown at the second, third and
// fifth mark.
func newTrace(key string) *Trace {
	return &Trace{Key: key, Spans: make([]Span, 0, lifecycleStages)}
}

// mark appends stage at at unless the trace already holds it. Called with
// the tracer's mu held.
func (tr *Trace) mark(stage string, at time.Time) {
	for _, s := range tr.Spans {
		if s.Stage == stage {
			return
		}
	}
	tr.Spans = append(tr.Spans, Span{Stage: stage, At: at})
}

// Snapshot returns copies of all traces sorted by key.
func (t *Tracer) Snapshot() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.traces))
	for _, tr := range t.traces {
		out = append(out, copyTrace(tr))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func copyTrace(tr *Trace) Trace {
	return Trace{Key: tr.Key, Spans: append([]Span(nil), tr.Spans...)}
}
