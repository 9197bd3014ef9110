// Package fx declares one member of each kind the reader gate must tell
// apart (readers_test.go TestReaderGateResolvesObjects).
package fx

import (
	"container/heap"
	"encoding/json"
)

// Named's Name is called.
type Named struct{}

func (Named) Name() string { return "named" }

// Idle's Name shares a read method's name and is never called; count is
// read and written only ever written.
type Idle struct {
	count   int
	written int
}

func (Idle) Name() string { return "idle" }

// point is a map key: hashing and comparing keys reads its fields.
type point struct{ x, y int }

// pool's method is called through an instance, pool[int].
type pool[T any] struct{ items []T }

func (p *pool[T]) get() T {
	v := p.items[len(p.items)-1]
	p.items = p.items[:len(p.items)-1]
	return v
}

// queue is a heap.Interface: container/heap calls its methods.
type queue []int

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Wire is encoded whole by encoding/json.
type Wire struct {
	Field int `json:"field"`
}

// Run reads each member above that the gate must count as read.
func Run() (string, int, []byte, error) {
	idle := Idle{count: 1}
	idle.written = 2
	seen := map[point]bool{{x: 1, y: 2}: true}
	p := &pool[int]{items: []int{4}}
	q := &queue{3, 1, 2}
	heap.Init(q)
	b, err := json.Marshal(Wire{Field: 5})
	return Named{}.Name(), idle.count + len(seen) + p.get() + heap.Pop(q).(int), b, err
}
