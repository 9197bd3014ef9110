package ibc

import "testing"

// BenchmarkPathToKey is the key derivation every store access pays, for the
// two kinds of path: a sequenced one (parsed in place, channel scope from
// the memo) and a flat one (hashed whole). "build+key" adds the path
// construction a packet operation does first, which is what the repo
// benchmark's ibc.path_to_key_ns row times.
func BenchmarkPathToKey(b *testing.B) {
	sequenced := CommitmentPath("transfer", "channel-0", 123_456)
	flat := ChannelPath("transfer", "channel-0")
	var sink [32]byte
	for _, c := range []struct {
		name string
		f    func() [32]byte
	}{
		{"sequenced", func() [32]byte { return PathToKey(sequenced) }},
		{"flat", func() [32]byte { return PathToKey(flat) }},
		{"build+key", func() [32]byte { return PathToKey(CommitmentPath("transfer", "channel-0", 123_456)) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = c.f()
			}
		})
	}
	_ = sink
}
