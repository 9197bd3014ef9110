package middleware

import (
	"testing"
)

// BenchmarkRecvBare measures the unwrapped application recv path — the
// baseline for the middleware-overhead rows of the repo benchmark
// (middleware.recv_bare_ns vs recv_stacked_ns; see benchmark/README.md).
func BenchmarkRecvBare(b *testing.B) {
	app := &quietApp{ack: []byte(`{"result":"AQ=="}`)}
	p := testPacket()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.OnRecvPacket(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecvStacked measures the same recv through a two-middleware
// stack. The gate: allocs/op here may exceed BenchmarkRecvBare by at most
// 2 (precomposed closure chains measure 0 extra).
func BenchmarkRecvStacked(b *testing.B) {
	app := &quietApp{ack: []byte(`{"result":"AQ=="}`)}
	stack := NewStack(app, &PassNamed{N: "a"}, &PassNamed{N: "b"})
	p := testPacket()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stack.OnRecvPacket(p); err != nil {
			b.Fatal(err)
		}
	}
}
