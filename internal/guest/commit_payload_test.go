package guest

import (
	"bytes"
	"math"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/host"
	"repro/internal/lightclient/tendermint"
	"repro/internal/wire"
)

// allocatedPerCall reports the heap bytes one call of f allocates: the
// least of three averages over runs calls each, since the runtime counts
// small allocations a span at a time and a fuzz worker allocates beside
// the call being measured.
func allocatedPerCall(runs int, f func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	least := uint64(math.MaxUint64)
	for window := 0; window < 3; window++ {
		metrics.Read(s)
		before := s[0].Value.Uint64()
		for i := 0; i < runs; i++ {
			f()
		}
		metrics.Read(s)
		least = min(least, (s[0].Value.Uint64()-before)/uint64(runs))
	}
	return least
}

// staged reassembles the payload a chunked upload stages, from its chunk
// transactions.
func staged(tb testing.TB, txs []*host.Transaction) []byte {
	tb.Helper()
	var out []byte
	for _, tx := range txs[:len(txs)-1] {
		a, err := decodeChunk(wire.NewReader(tx.Instructions[0].Data[1:]))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, a.Data...)
	}
	return out
}

// stagedCodec is the decoder of one staged commit payload under fuzz.
// decode reads data as the commit does — on a heap of host.MaxHeapBytes,
// charged for data first — and check holds a buffer decode accepted to the
// codec's contract: its payloads fit the heap with every proof whole, and
// they re-encode to at most len(data) bytes that decode to them again.
// slack is what decode may allocate beyond 4×len(data) + 16 KiB: a metered
// batch grows its proofs' shared tails up to the heap, the update-client
// buffer (a Tendermint update) not at all.
type stagedCodec struct {
	name   string
	slack  uint64
	decode func(data []byte) error
	check  func(t *testing.T, data []byte)
}

// onHeap is unmarshal as the commit runs it.
func onHeap[P any](unmarshal func([]byte, *host.HeapMeter) ([]P, error), data []byte) ([]P, error) {
	heap := host.NewHeapMeter(host.MaxHeapBytes)
	if err := heap.Alloc(len(data)); err != nil {
		return nil, err
	}
	return unmarshal(data, heap)
}

// batchCodec is the stagedCodec of a packet commit's buffer.
func batchCodec[P packetPayload](name string, unmarshal func([]byte, *host.HeapMeter) ([]P, error), marshal func(...P) []byte) stagedCodec {
	return stagedCodec{
		name:  name,
		slack: 2 * host.MaxHeapBytes,
		decode: func(data []byte) error {
			_, err := onHeap(unmarshal, data)
			return err
		},
		check: func(t *testing.T, data []byte) {
			ps, _ := onHeap(unmarshal, data)
			size := 0
			for _, p := range ps {
				size += p.wireSize()
			}
			if size > host.MaxHeapBytes {
				t.Fatalf("%s: %d staged bytes decoded to %d, above the %d-byte heap", name, len(data), size, host.MaxHeapBytes)
			}
			again := marshal(ps...)
			if len(again) > len(data) {
				t.Fatalf("%s: %d staged bytes re-encode to %d", name, len(data), len(again))
			}
			back, err := onHeap(unmarshal, again)
			if err != nil || len(back) != len(ps) {
				t.Fatalf("%s: re-encoded payloads decode to %d of %d (%v)", name, len(back), len(ps), err)
			}
			for i := range ps {
				if !bytes.Equal(marshal(back[i]), marshal(ps[i])) {
					t.Fatalf("%s: payload %d of %d changed in the re-encode", name, i, len(ps))
				}
			}
		},
	}
}

// commitCodecs are the staged buffers of the ack, timeout and
// update-client commits.
var commitCodecs = []stagedCodec{
	batchCodec("ack", UnmarshalAckPayloads, MarshalAckPayload),
	batchCodec("timeout", UnmarshalTimeoutPayloads, MarshalTimeoutPayload),
	{
		// The update-client buffer is the update's encoding itself.
		name: "update-client",
		decode: func(data []byte) error {
			_, err := tendermint.UnmarshalUpdate(data)
			return err
		},
		check: func(t *testing.T, data []byte) {
			u, _ := tendermint.UnmarshalUpdate(data)
			if again := u.Marshal(); !bytes.Equal(again, data) {
				t.Fatalf("update-client: accepted %x, re-marshals to %x", data, again)
			}
		},
	},
}

// settleBomb is a buffer that fits the heap as staged and would not as
// decoded: one payload with a 24 kB proof, then n-1 payloads of a few bytes
// each claiming all of it as its tail.
func settleBomb[P packetPayload](marshal func(...P) []byte, payload func(seq uint64, proofLen int) P, n int) []byte {
	buf := marshal(payload(1, 24_000))
	for i := 1; i < n; i++ {
		buf = stageLater(buf, payload(uint64(i+1), 0), 24_000, nil)
	}
	return buf
}

// FuzzCommitPayloadDecode feeds arbitrary bytes to the decoders of the
// staged ack, timeout and update-client buffers (untrusted bytes a relayer
// uploads to the contract): none panics or allocates beyond a fixed
// multiple of the input (and, for a metered batch, of the heap), none decodes to more than the heap
// holds, and a buffer one accepts re-encodes to at most its own size and
// decodes back to the same payloads — an ack or timeout batch may re-encode
// shorter, since the encoder shares the longest tail it can.
func FuzzCommitPayloadDecode(f *testing.F) {
	b := NewTxBuilder(&Contract{profile: host.SolanaProfile()}, cryptoutil.GenerateKey("fuzz-relayer").Public())
	p := payload(3, 1500)
	p.Packet.TimeoutHeight = 42
	p.Packet.TimeoutTimestamp = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	ack := func(seq uint64, proofLen int) *AckPayload {
		r := payload(seq, proofLen)
		return &AckPayload{Packet: r.Packet, Ack: []byte(`{"result":"AQ=="}`), ProofHeight: 9, Proof: r.Proof}
	}
	timeout := func(seq uint64, proofLen int) *TimeoutPayload {
		r := payload(seq, proofLen)
		return &TimeoutPayload{Packet: r.Packet, ProofHeight: 9, Proof: r.Proof}
	}
	// shared is a run of proofs that share all but their first few bytes.
	shared := func(i int) []byte {
		proof := bytes.Repeat([]byte{0xab}, 600)
		proof[0], proof[1] = byte(i), byte(i>>8)
		return proof
	}
	acks, timeouts := make([]*AckPayload, 3), make([]*TimeoutPayload, 3)
	for i := range acks {
		acks[i], timeouts[i] = ack(uint64(i+1), 0), timeout(uint64(i+1), 0)
		acks[i].Proof, timeouts[i].Proof = shared(i), shared(i)
	}
	update, sigs := testUpdate(tendermintKeys(f, 24), 24, 17)
	for _, txs := range [][]*host.Transaction{
		b.AckPacketTxs(&AckPayload{Packet: p.Packet, Ack: []byte(`{"result":"AQ=="}`), ProofHeight: 9, Proof: p.Proof}),
		b.TimeoutPacketTxs(&TimeoutPayload{Packet: p.Packet, ProofHeight: 9, Proof: p.Proof}),
		b.UpdateClientTxs("07-tendermint-0", update.Marshal(), sigs),
		b.AckPacketTxs(acks...),
		b.TimeoutPacketTxs(timeouts...),
	} {
		data := staged(f, txs)
		f.Add(data)
		f.Add(data[:len(data)-5])
		f.Add(append(append([]byte(nil), data...), 0xde, 0xad))
	}
	firstAck, firstTimeout := MarshalAckPayload(ack(1, 200)), MarshalTimeoutPayload(timeout(1, 200))
	for _, seed := range [][]byte{
		// A tail longer than the proof before it.
		stageLater(firstAck, ack(2, 0), 201, nil),
		stageLater(firstTimeout, timeout(2, 0), 201, nil),
		// A later payload cut inside its tail length.
		func() []byte { whole := stageLater(firstAck, ack(2, 0), 200, nil); return whole[:len(whole)-4-1] }(),
		func() []byte {
			whole := stageLater(firstTimeout, timeout(2, 0), 200, nil)
			return whole[:len(whole)-4-1]
		}(),
		// Tails that outgrow the heap.
		settleBomb(MarshalAckPayload, ack, 4),
		settleBomb(MarshalTimeoutPayload, timeout, 4),
		{},
		{0xff, 0xff, 0xff, 0xff},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range commitCodecs {
			var err error
			if n := allocatedPerCall(8, func() { err = c.decode(data) }); n > 4*uint64(len(data))+c.slack+16<<10 {
				t.Fatalf("%s: %d input bytes allocated %d", c.name, len(data), n)
			}
			if err == nil {
				c.check(t, data)
			}
		}
	})
}
