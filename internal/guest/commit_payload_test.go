package guest

import (
	"bytes"
	"math"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/host"
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

// commitPayloads are the staged payloads of the ack, timeout and
// update-client commits: each decoder, and the encoder of what it accepts.
var commitPayloads = []struct {
	name   string
	decode func([]byte) (any, error)
	encode func(any) []byte
}{
	{"ack", func(b []byte) (any, error) { return UnmarshalAckPayload(b) },
		func(p any) []byte { return MarshalAckPayload(p.(*AckPayload)) }},
	{"timeout", func(b []byte) (any, error) { return UnmarshalTimeoutPayload(b) },
		func(p any) []byte { return MarshalTimeoutPayload(p.(*TimeoutPayload)) }},
	{"update-client", func(b []byte) (any, error) { return UnmarshalUpdateClientPayload(b) },
		func(p any) []byte { return MarshalUpdateClientPayload(p.(*UpdateClientPayload).Header) }},
}

// FuzzCommitPayloadDecode feeds arbitrary bytes to the decoders of the
// staged ack, timeout and update-client payloads (untrusted bytes a relayer
// uploads to the contract): none panics, each allocates within a fixed
// multiple of the input, and a payload one accepts is canonical — it
// re-marshals to the same bytes.
func FuzzCommitPayloadDecode(f *testing.F) {
	b := NewTxBuilder(&Contract{}, cryptoutil.GenerateKey("fuzz-relayer").Public())
	p := payload(3, 1500)
	p.Packet.TimeoutHeight = 42
	p.Packet.TimeoutTimestamp = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	key := cryptoutil.GenerateKey("fuzz-validator")
	sigs := []SigBatch{{Pub: key.Public(), Payload: []byte("vote"), Sig: key.Sign([]byte("vote"))}}
	for i, txs := range [][]*host.Transaction{ // in commitPayloads order
		b.AckPacketTxs(&AckPayload{Packet: p.Packet, Ack: []byte(`{"result":"AQ=="}`), ProofHeight: 9, Proof: p.Proof}),
		b.TimeoutPacketTxs(&TimeoutPayload{Packet: p.Packet, ProofHeight: 9, Proof: p.Proof}),
		b.UpdateClientTxs("07-tendermint-0", bytes.Repeat([]byte{0xcd}, 2500), sigs),
	} {
		data := staged(f, txs)
		if _, err := commitPayloads[i].decode(data); err != nil {
			f.Fatalf("%s payload staged by TxBuilder: %v", commitPayloads[i].name, err)
		}
		f.Add(data)
		f.Add(data[:len(data)-5])
		f.Add(append(append([]byte(nil), data...), 0xde, 0xad))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range commitPayloads {
			var p any
			var err error
			if n := allocatedPerCall(8, func() { p, err = c.decode(data) }); n > 4*uint64(len(data))+16<<10 {
				t.Fatalf("%s: %d input bytes allocated %d", c.name, len(data), n)
			}
			if err != nil {
				continue
			}
			if again := c.encode(p); !bytes.Equal(again, data) {
				t.Fatalf("%s: accepted %x, re-marshals to %x", c.name, data, again)
			}
		}
	})
}
