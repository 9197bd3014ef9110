package telemetry

import (
	"sync"
	"testing"
	"time"
)

// traceOf is key's trace in the tracer's snapshot, and whether it exists.
func traceOf(tr *Tracer, key string) (Trace, bool) {
	for _, got := range tr.Snapshot() {
		if got.Key == key {
			return got, true
		}
	}
	return Trace{}, false
}

func TestTracerMarkFirstWins(t *testing.T) {
	tr := NewTracer()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tr.Mark("transfer/channel-0/1", StageSend, t0)
	tr.Mark("transfer/channel-0/1", StageSend, t0.Add(time.Hour)) // duplicate: ignored
	tr.Mark("transfer/channel-0/1", StageRecv, t0.Add(2*time.Second))

	got, ok := traceOf(tr, "transfer/channel-0/1")
	if !ok {
		t.Fatal("trace not found")
	}
	if len(got.Spans) != 2 {
		t.Fatalf("spans = %d, want 2 (duplicate send must be dropped)", len(got.Spans))
	}
	send, _ := got.Span(StageSend)
	if !send.At.Equal(t0) {
		t.Fatalf("send at %v, want first mark %v", send.At, t0)
	}
	if _, ok := got.Span(StageAck); ok {
		t.Fatal("unrecorded stage reported present")
	}
}

// TestMarkBytesCopiesKeyOnce: MarkBytes marks the trace Mark would, copies
// the key when the trace starts (the caller's buffer is reused), and
// allocates nothing for a trace that exists.
func TestMarkBytesCopiesKeyOnce(t *testing.T) {
	tr := NewTracer()
	t0 := time.Unix(0, 0)
	key := []byte("transfer/channel-0/1")
	tr.MarkBytes(key, StageSend, t0)
	copy(key, "XXXXXXXX")
	tr.Mark("transfer/channel-0/1", StageCommit, t0)
	got, ok := traceOf(tr, "transfer/channel-0/1")
	if !ok || len(got.Spans) != 2 {
		t.Fatalf("trace = %+v, %v: want send and commit under the key first marked", got, ok)
	}
	key = []byte("transfer/channel-0/1")
	if n := testing.AllocsPerRun(100, func() { tr.MarkBytes(key, StageRecv, t0) }); n != 0 {
		t.Fatalf("MarkBytes on an existing trace: %.0f allocations, want 0", n)
	}
}

func TestTracerSnapshotSortedAndIsolated(t *testing.T) {
	tr := NewTracer()
	now := time.Unix(0, 0)
	tr.Mark("b/chan/2", StageSend, now)
	tr.Mark("a/chan/1", StageSend, now)
	tr.Mark("a/chan/10", StageSend, now)

	snap := tr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Key >= snap[i].Key {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Key, snap[i].Key)
		}
	}
	// Mutating the snapshot must not leak into the tracer.
	snap[0].Spans[0].Stage = "corrupted"
	fresh, _ := traceOf(tr, snap[0].Key)
	if fresh.Spans[0].Stage == "corrupted" {
		t.Fatal("snapshot shares span storage with the tracer")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Mark("k", StageSend, time.Time{}) // must not panic
	if _, ok := traceOf(tr, "k"); ok {
		t.Fatal("nil tracer returned a trace")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer snapshot not nil")
	}
}

// TestTracerConcurrentMarks validates locking under contention; run with
// -race.
func TestTracerConcurrentMarks(t *testing.T) {
	tr := NewTracer()
	now := time.Unix(1000, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Mark("shared/chan/1", StageSend, now)
				tr.Mark("shared/chan/1", StageRecv, now)
			}
		}()
	}
	wg.Wait()
	got, _ := traceOf(tr, "shared/chan/1")
	if len(got.Spans) != 2 {
		t.Fatalf("spans = %d, want exactly 2 despite 1600 marks", len(got.Spans))
	}
}

// TestTraceSpansSizedAtStart: a new trace holds all six lifecycle stages
// without growing its span list, so marking them costs the same fixed
// allocations as marking the first.
func TestTraceSpansSizedAtStart(t *testing.T) {
	t0 := time.Unix(0, 0)
	markNew := func(stages ...string) float64 {
		return testing.AllocsPerRun(100, func() {
			tr := NewTracer()
			for _, stage := range stages {
				tr.Mark("transfer/channel-0/1", stage, t0)
			}
		})
	}
	first := markNew(StageSend)
	all := markNew(StageSend, StageCommit, StageFinalise, StagePickup, StageRecv, StageAck)
	if all != first {
		t.Fatalf("marking six stages of a new trace: %.0f allocations, one stage: %.0f; want equal", all, first)
	}
}
