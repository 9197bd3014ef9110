package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

type testEvent struct{ n int }

func (testEvent) EventKind() string { return "test" }

func TestBusDeliversInSubscriptionOrder(t *testing.T) {
	b := NewBus()
	var got []string
	for i := 0; i < 4; i++ {
		i := i
		b.Subscribe(func(ev Event) {
			got = append(got, fmt.Sprintf("sub%d:%d", i, ev.(testEvent).n))
		})
	}
	b.Publish(testEvent{n: 1})
	b.Publish(testEvent{n: 2})

	want := []string{
		"sub0:1", "sub1:1", "sub2:1", "sub3:1",
		"sub0:2", "sub1:2", "sub2:2", "sub3:2",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d deliveries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestNilBusIsNoOp(t *testing.T) {
	var b *Bus
	b.Publish(testEvent{}) // must not panic
}

// TestBusConcurrentPublishSubscribe exercises the bus from many goroutines;
// run with -race to validate the locking discipline. A subscriber attached
// throughout sees every event exactly once.
func TestBusConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus()
	steady := 0 // written under the bus lock
	b.Subscribe(func(Event) { steady++ })
	const publishers, perPublisher, churners = 8, 200, 4

	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perPublisher; j++ {
				b.Publish(testEvent{n: j})
			}
		}()
	}
	for i := 0; i < churners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				b.Subscribe(func(Event) {})
			}
		}()
	}
	wg.Wait()

	if steady != publishers*perPublisher {
		t.Fatalf("steady subscriber saw %d events, want %d", steady, publishers*perPublisher)
	}
}
