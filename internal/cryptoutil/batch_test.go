package cryptoutil

import (
	"fmt"
	"sync"
	"testing"
)

// quorumTasks builds n valid hash-signature tasks from distinct keys.
func quorumTasks(n int) []VerifyTask {
	tasks := make([]VerifyTask, n)
	payload := HashBytes([]byte("payload"))
	for i := range tasks {
		k := GenerateKeyIndexed("batch-test", i)
		tasks[i] = HashTask(k.Public(), payload, k.SignHash(payload))
	}
	return tasks
}

func corrupt(t VerifyTask) VerifyTask {
	t.Sig[0] ^= 0xff
	return t
}

// firstFalse returns the index of the first false verdict, or -1.
func firstFalse(verdicts []bool) int {
	for i, ok := range verdicts {
		if !ok {
			return i
		}
	}
	return -1
}

func TestBatchVerifyAllTable(t *testing.T) {
	base := quorumTasks(7)
	type testCase struct {
		name    string
		mutate  func([]VerifyTask) []VerifyTask
		workers int
		want    bool
	}
	cases := []testCase{
		{"empty batch", func([]VerifyTask) []VerifyTask { return nil }, 4, true},
		{"single task", func(ts []VerifyTask) []VerifyTask { return ts[:1] }, 4, true},
		{"all valid", func(ts []VerifyTask) []VerifyTask { return ts }, 4, true},
		{"all valid serial", func(ts []VerifyTask) []VerifyTask { return ts }, 1, true},
		{"wrong signer", func(ts []VerifyTask) []VerifyTask {
			out := append([]VerifyTask(nil), ts...)
			out[3].Pub = ts[4].Pub
			return out
		}, 4, false},
	}
	// One invalid signature at each position, serial and parallel.
	for pos := 0; pos < len(base); pos++ {
		pos := pos
		for _, workers := range []int{1, 4} {
			cases = append(cases, testCase{
				fmt.Sprintf("invalid at %d workers %d", pos, workers),
				func(ts []VerifyTask) []VerifyTask {
					out := append([]VerifyTask(nil), ts...)
					out[pos] = corrupt(out[pos])
					return out
				},
				workers, false,
			})
		}
	}
	// Two invalid signatures: the offender named is the lower one, however
	// the pool schedules the batch.
	for _, workers := range []int{1, 4} {
		cases = append(cases, testCase{
			fmt.Sprintf("invalid at 2 and 5 workers %d", workers),
			func(ts []VerifyTask) []VerifyTask {
				out := append([]VerifyTask(nil), ts...)
				out[5] = corrupt(out[5])
				out[2] = corrupt(out[2])
				return out
			},
			workers, false,
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := NewBatchVerifier(WithWorkers(tc.workers), WithCacheSize(64))
			tasks := tc.mutate(base)
			if got := v.VerifyAll(tasks); got != tc.want {
				t.Fatalf("VerifyAll = %v, want %v", got, tc.want)
			}
			// Equivalence with the sequential single-signature path: the
			// same verdict, and the same first offender.
			serialFirst := -1
			for i, task := range tasks {
				if !VerifyHash(task.Pub, Hash(task.Msg), task.Sig) {
					serialFirst = i
					break
				}
			}
			if want := serialFirst < 0; want != tc.want {
				t.Fatalf("sequential VerifyHash disagrees: %v vs %v", want, tc.want)
			}
			if got := firstFalse(v.VerifyEach(tasks)); got != serialFirst {
				t.Fatalf("VerifyEach names task %d, sequential loop task %d", got, serialFirst)
			}
		})
	}
}

func TestBatchVerifyEach(t *testing.T) {
	tasks := quorumTasks(6)
	tasks[1] = corrupt(tasks[1])
	tasks[4] = corrupt(tasks[4])
	v := NewBatchVerifier(WithWorkers(3), WithCacheSize(16))
	got := v.VerifyEach(tasks)
	want := []bool{true, false, true, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VerifyEach[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBatchVerifyCacheAccounting(t *testing.T) {
	tasks := quorumTasks(5)
	v := NewBatchVerifier(WithWorkers(2), WithCacheSize(16))

	if !v.VerifyAll(tasks) {
		t.Fatal("first pass should verify")
	}
	s := v.Stats()
	if s.Hits != 0 || s.Misses != 5 || s.Len != 5 {
		t.Fatalf("after cold pass: %+v", s)
	}

	if !v.VerifyAll(tasks) {
		t.Fatal("second pass should verify")
	}
	s = v.Stats()
	if s.Hits != 5 || s.Misses != 5 {
		t.Fatalf("after warm pass: %+v", s)
	}

	// Invalid signatures are never cached.
	bad := corrupt(tasks[0])
	if v.Verify(bad) {
		t.Fatal("corrupt signature verified")
	}
	if v.Verify(bad) {
		t.Fatal("corrupt signature verified on retry")
	}
	s = v.Stats()
	if s.Misses != 7 {
		t.Fatalf("invalid tasks must always miss: %+v", s)
	}
}

func TestBatchVerifyCacheBounded(t *testing.T) {
	const capacity = 8
	v := NewBatchVerifier(WithWorkers(2), WithCacheSize(capacity))
	payload := HashBytes([]byte("bounded"))
	for i := 0; i < 10*capacity; i++ {
		k := GenerateKeyIndexed("bounded", i)
		if !v.Verify(HashTask(k.Public(), payload, k.SignHash(payload))) {
			t.Fatalf("task %d failed", i)
		}
		if got := v.Stats().Len; got > capacity {
			t.Fatalf("cache grew to %d entries, cap %d", got, capacity)
		}
	}
	if got := v.Stats().Len; got != capacity {
		t.Fatalf("cache len %d, want full at %d", got, capacity)
	}

	// An evicted entry re-verifies (miss), a retained one hits.
	s0 := v.Stats()
	k := GenerateKeyIndexed("bounded", 0) // oldest, long evicted
	v.Verify(HashTask(k.Public(), payload, k.SignHash(payload)))
	if v.Stats().Misses != s0.Misses+1 {
		t.Fatal("evicted entry should re-verify")
	}
	k = GenerateKeyIndexed("bounded", 10*capacity-1) // newest, retained
	v.Verify(HashTask(k.Public(), payload, k.SignHash(payload)))
	if v.Stats().Hits != s0.Hits+1 {
		t.Fatal("retained entry should hit")
	}
}

func TestBatchVerifyConcurrentCallers(t *testing.T) {
	v := NewBatchVerifier(WithWorkers(4), WithCacheSize(32))
	valid := quorumTasks(8)
	invalid := append([]VerifyTask(nil), valid...)
	invalid[5] = corrupt(invalid[5])

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if !v.VerifyAll(valid) {
					errs <- fmt.Sprintf("goroutine %d: valid batch rejected", g)
				}
				if v.VerifyAll(invalid) {
					errs <- fmt.Sprintf("goroutine %d: invalid batch accepted", g)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	s := v.Stats()
	if s.Hits == 0 {
		t.Fatalf("concurrent warm batches should hit the cache: %+v", s)
	}
}

func BenchmarkBatchVerify24(b *testing.B) {
	tasks := quorumTasks(24)
	for _, bench := range []struct {
		name string
		v    *BatchVerifier
	}{
		{"sequential", NewBatchVerifier(WithWorkers(1), WithCacheSize(0))},
		{"batch", NewBatchVerifier(WithCacheSize(0))},
		{"cached", NewBatchVerifier()},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !bench.v.VerifyAll(tasks) {
					b.Fatal("batch rejected")
				}
			}
		})
	}
}
