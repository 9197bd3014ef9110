package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestTracerMarkFirstWins(t *testing.T) {
	tr := NewTracer()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tr.Mark("transfer/channel-0/1", StageSend, t0)
	tr.Mark("transfer/channel-0/1", StageSend, t0.Add(time.Hour)) // duplicate: ignored
	tr.Mark("transfer/channel-0/1", StageRecv, t0.Add(2*time.Second))

	got, ok := tr.Trace("transfer/channel-0/1")
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
	fresh, _ := tr.Trace(snap[0].Key)
	if fresh.Spans[0].Stage == "corrupted" {
		t.Fatal("snapshot shares span storage with the tracer")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Mark("k", StageSend, time.Time{}) // must not panic
	if _, ok := tr.Trace("k"); ok {
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
	got, _ := tr.Trace("shared/chan/1")
	if len(got.Spans) != 2 {
		t.Fatalf("spans = %d, want exactly 2 despite 1600 marks", len(got.Spans))
	}
}
