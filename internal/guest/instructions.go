package guest

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/wire"
)

// Instruction opcodes of the Guest Contract.
const (
	// OpSendPacket: a client smart contract sends an IBC packet (Alg. 1
	// SendPacket).
	OpSendPacket byte = iota + 1
	// OpGenerateBlock mints a new guest block if due (Alg. 1
	// GenerateBlock); callable by anyone.
	OpGenerateBlock
	// OpSign is a validator's finalisation vote (Alg. 1 Sign).
	OpSign
	// OpStake adds candidate stake.
	OpStake
	// OpUnstake begins a candidate's exit.
	OpUnstake
	// OpWithdraw claims matured withdrawals.
	OpWithdraw
	// OpChunk appends bytes to a staging buffer (tx-size workaround).
	OpChunk
	// OpCommitUpdateClient applies a staged light-client update.
	OpCommitUpdateClient
	// OpCommitRecvPacket applies a staged incoming packet (Alg. 1
	// ReceivePacket).
	OpCommitRecvPacket
	// OpCommitAck applies a staged acknowledgement for a sent packet.
	OpCommitAck
	// OpCommitTimeout applies a staged timeout proof for a sent packet.
	OpCommitTimeout
	// OpSubmitMisbehaviour slashes a validator given fisherman evidence
	// (§III-C).
	OpSubmitMisbehaviour
	// OpEmergencyRelease frees all staked assets once the chain has been
	// dead for emergencyTimeout, 30 days (§VI-A's self-destruction
	// mitigation for the last-validator-wishing-to-quit problem).
	OpEmergencyRelease
	// OpCloseBuffer drops the fee payer's staging buffer: a relayer that
	// gives a chunked job up frees what its chunks staged.
	OpCloseBuffer
)

// SendPacketArgs are the OpSendPacket payload.
type SendPacketArgs struct {
	Sender           cryptoutil.PubKey
	Port             ibc.PortID
	Channel          ibc.ChannelID
	Data             []byte
	TimeoutHeight    ibc.Height
	TimeoutTimestamp time.Time
}

// EncodeSendPacket builds OpSendPacket instruction data.
func EncodeSendPacket(a *SendPacketArgs) []byte {
	w := wire.NewWriterSize(1 + len(a.Sender) +
		2 + len(a.Port) + 2 + len(a.Channel) + 4 + len(a.Data) + 8 + 8)
	w.U8(OpSendPacket)
	w.PubKey(a.Sender)
	w.String16(string(a.Port))
	w.String16(string(a.Channel))
	w.Bytes32(a.Data)
	w.U64(uint64(a.TimeoutHeight))
	w.Time(a.TimeoutTimestamp)
	return w.Bytes()
}

func decodeSendPacket(r *wire.Reader) (*SendPacketArgs, error) {
	a := &SendPacketArgs{
		Sender:  r.PubKey(),
		Port:    ibc.PortID(r.String16()),
		Channel: ibc.ChannelID(r.String16()),
		Data:    r.Bytes32(),
	}
	a.TimeoutHeight = ibc.Height(r.U64())
	a.TimeoutTimestamp = r.Time()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("guest: decode send packet: %w", err)
	}
	return a, nil
}

// EncodeGenerateBlock builds OpGenerateBlock instruction data.
func EncodeGenerateBlock() []byte { return []byte{OpGenerateBlock} }

// SignArgs are the OpSign payload. The actual Ed25519 verification happens
// at transaction level via the runtime precompile; the instruction carries
// the claim the contract checks against the verified set.
type SignArgs struct {
	Height    uint64
	PubKey    cryptoutil.PubKey
	Signature cryptoutil.Signature
}

// EncodeSign builds OpSign instruction data.
func EncodeSign(a *SignArgs) []byte {
	w := wire.NewWriterSize(1 + 8 + len(a.PubKey) + len(a.Signature))
	w.U8(OpSign)
	w.U64(a.Height)
	w.PubKey(a.PubKey)
	w.Signature(a.Signature)
	return w.Bytes()
}

func decodeSign(r *wire.Reader) (*SignArgs, error) {
	a := &SignArgs{Height: r.U64(), PubKey: r.PubKey(), Signature: r.Signature()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("guest: decode sign: %w", err)
	}
	return a, nil
}

// StakeArgs are the OpStake payload; the lamports move from the signing
// owner to the contract.
type StakeArgs struct {
	Validator cryptoutil.PubKey
	Amount    uint64
}

// EncodeStake builds OpStake instruction data.
func EncodeStake(a *StakeArgs) []byte {
	w := wire.NewWriter()
	w.U8(OpStake)
	w.PubKey(a.Validator)
	w.U64(a.Amount)
	return w.Bytes()
}

func decodeStake(r *wire.Reader) (*StakeArgs, error) {
	a := &StakeArgs{Validator: r.PubKey(), Amount: r.U64()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("guest: decode stake: %w", err)
	}
	return a, nil
}

// EncodeUnstake builds OpUnstake instruction data.
func EncodeUnstake(validator cryptoutil.PubKey) []byte {
	w := wire.NewWriter()
	w.U8(OpUnstake)
	w.PubKey(validator)
	return w.Bytes()
}

// EncodeWithdraw builds OpWithdraw instruction data.
func EncodeWithdraw() []byte { return []byte{OpWithdraw} }

// EncodeEmergencyRelease builds OpEmergencyRelease instruction data.
func EncodeEmergencyRelease() []byte { return []byte{OpEmergencyRelease} }

// ChunkArgs are the OpChunk payload: append Data to the fee payer's buffer
// and record any runtime-verified signatures for later commit use.
type ChunkArgs struct {
	BufferID uint64
	Data     []byte
	// SigClaims list (pubkey, payload) pairs this transaction verified
	// via the precompile; the contract records their digests.
	SigClaims []SigClaim
}

// SigClaim is a claim that the runtime verified pub's signature over
// Payload in this transaction.
type SigClaim struct {
	Pub     cryptoutil.PubKey
	Payload []byte
}

// EncodeChunk builds OpChunk instruction data.
func EncodeChunk(a *ChunkArgs) []byte {
	w := wire.NewWriter()
	w.U8(OpChunk)
	w.U64(a.BufferID)
	w.Bytes32(a.Data)
	w.U16(uint16(len(a.SigClaims)))
	for _, c := range a.SigClaims {
		w.PubKey(c.Pub)
		w.Bytes16(c.Payload)
	}
	return w.Bytes()
}

func decodeChunk(r *wire.Reader) (*ChunkArgs, error) {
	a := &ChunkArgs{BufferID: r.U64(), Data: r.Bytes32()}
	n := int(r.U16())
	for i := 0; i < n; i++ {
		a.SigClaims = append(a.SigClaims, SigClaim{Pub: r.PubKey(), Payload: r.Bytes16()})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("guest: decode chunk: %w", err)
	}
	return a, nil
}

// CommitArgs reference a staged buffer; ClientID is used by
// OpCommitUpdateClient only.
type CommitArgs struct {
	BufferID uint64
	ClientID ibc.ClientID
}

// EncodeCommit builds a commit instruction with the given opcode.
func EncodeCommit(op byte, a *CommitArgs) []byte {
	w := wire.NewWriter()
	w.U8(op)
	w.U64(a.BufferID)
	w.String16(string(a.ClientID))
	return w.Bytes()
}

func decodeCommit(r *wire.Reader) (*CommitArgs, error) {
	a := &CommitArgs{BufferID: r.U64(), ClientID: ibc.ClientID(r.String16())}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("guest: decode commit: %w", err)
	}
	return a, nil
}

// EncodeCloseBuffer builds OpCloseBuffer instruction data.
func EncodeCloseBuffer(bufferID uint64) []byte {
	w := wire.NewWriterSize(1 + 8)
	w.U8(OpCloseBuffer)
	w.U64(bufferID)
	return w.Bytes()
}

// RecvPayload is the staged payload for OpCommitRecvPacket: the packet,
// the proof height on the counterparty, and the commitment proof.
type RecvPayload struct {
	Packet      *ibc.Packet
	ProofHeight ibc.Height
	Proof       []byte
}

// AckPayload is the staged payload for OpCommitAck.
type AckPayload struct {
	Packet      *ibc.Packet
	Ack         []byte
	ProofHeight ibc.Height
	Proof       []byte
}

// TimeoutPayload is the staged payload for OpCommitTimeout.
type TimeoutPayload struct {
	Packet      *ibc.Packet
	ProofHeight ibc.Height
	Proof       []byte
}

// packetPayload is what the three packet commits stage per packet: fields
// ahead of the proof, then the proof, which comes last so a payload staged
// after another writes only the part of it the one before lacks
// (marshalPayloads). hook is the module callback applying it runs.
type packetPayload interface {
	packet() *ibc.Packet
	proof() []byte
	setProof(proof []byte)
	hook() ibc.Hook
	// wireSize is the payload's size with its proof whole: what it costs the
	// commit's heap once decoded, and what a payload staged first or alone
	// occupies in the buffer.
	wireSize() int
	writeFields(w *wire.Writer)
	readFields(r *wire.Reader)
}

func (p *RecvPayload) packet() *ibc.Packet   { return p.Packet }
func (p *RecvPayload) proof() []byte         { return p.Proof }
func (p *RecvPayload) setProof(proof []byte) { p.Proof = proof }
func (p *RecvPayload) hook() ibc.Hook        { return ibc.HookRecv }
func (p *RecvPayload) wireSize() int {
	return ibc.PacketWireSize(p.Packet) + 8 + 4 + len(p.Proof)
}
func (p *RecvPayload) writeFields(w *wire.Writer) {
	ibc.EncodePacket(w, p.Packet)
	w.U64(uint64(p.ProofHeight))
}
func (p *RecvPayload) readFields(r *wire.Reader) {
	// The reader's first error sticks: the caller checks once per payload.
	p.Packet, _ = ibc.DecodePacket(r)
	p.ProofHeight = ibc.Height(r.U64())
}

func (p *AckPayload) packet() *ibc.Packet   { return p.Packet }
func (p *AckPayload) proof() []byte         { return p.Proof }
func (p *AckPayload) setProof(proof []byte) { p.Proof = proof }
func (p *AckPayload) hook() ibc.Hook        { return ibc.HookAck }
func (p *AckPayload) wireSize() int {
	return ibc.PacketWireSize(p.Packet) + 4 + len(p.Ack) + 8 + 4 + len(p.Proof)
}
func (p *AckPayload) writeFields(w *wire.Writer) {
	ibc.EncodePacket(w, p.Packet)
	w.Bytes32(p.Ack)
	w.U64(uint64(p.ProofHeight))
}
func (p *AckPayload) readFields(r *wire.Reader) {
	p.Packet, _ = ibc.DecodePacket(r)
	p.Ack = r.Bytes32()
	p.ProofHeight = ibc.Height(r.U64())
}

func (p *TimeoutPayload) packet() *ibc.Packet   { return p.Packet }
func (p *TimeoutPayload) proof() []byte         { return p.Proof }
func (p *TimeoutPayload) setProof(proof []byte) { p.Proof = proof }
func (p *TimeoutPayload) hook() ibc.Hook        { return ibc.HookTimeout }
func (p *TimeoutPayload) wireSize() int {
	return ibc.PacketWireSize(p.Packet) + 8 + 4 + len(p.Proof)
}
func (p *TimeoutPayload) writeFields(w *wire.Writer) {
	ibc.EncodePacket(w, p.Packet)
	w.U64(uint64(p.ProofHeight))
}
func (p *TimeoutPayload) readFields(r *wire.Reader) {
	p.Packet, _ = ibc.DecodePacket(r)
	p.ProofHeight = ibc.Height(r.U64())
}

// sharedTail is how many trailing bytes proof has in common with prev, as
// far as a u16 can say.
func sharedTail(prev, proof []byte) int {
	n := 0
	for n < len(prev) && n < len(proof) && n < math.MaxUint16 &&
		prev[len(prev)-1-n] == proof[len(proof)-1-n] {
		n++
	}
	return n
}

// marshalPayloads encodes payloads of one kind for staging, end to end with
// no count prefix: a job stages every packet it carries in one buffer. The
// first payload is written whole — a single packet encodes exactly as it
// always has. One after it writes `u16 n` ahead of its proof and then only
// proof[:len(proof)-n]: n is the number of trailing bytes the proof shares
// with the whole proof of the payload before it. Proof bytes are opaque
// here; the format pays off because a trie.Proof, which is its own
// encoding ([]byte(p) is the wire form), holds its items
// deepest first, so two neighbouring leaves proven at one root agree
// in everything but the first item or two, and a caller that passes
// payloads in sequence order (the relayer does) stages each shared upper
// path once.
func marshalPayloads[P packetPayload](ps []P) []byte {
	size := 0 // an upper bound once neighbours share two bytes; the writer grows otherwise
	for _, p := range ps {
		size += p.wireSize()
	}
	w := wire.NewWriterSize(size)
	for i, p := range ps {
		p.writeFields(w)
		head := p.proof()
		if i > 0 {
			n := sharedTail(ps[i-1].proof(), head)
			w.U16(uint16(n))
			head = head[:len(head)-n]
		}
		w.Bytes32(head)
	}
	return w.Bytes()
}

// unmarshalPayloads decodes a staging buffer of one or more payloads of one
// kind laid end to end and makes every proof whole again — head ‖ the last n
// bytes of the proof before it, itself already whole — so what it returns is
// position-independent: a proof's head is read in place and copied with
// its tail into one allocation. The caller has charged heap for the
// buffer; each proof's growth (its n tail bytes, less the two of the
// length field they replace) is charged before it is allocated, so a few
// staged bytes cannot claim more memory than the heap has
// (host.ErrHeapExhausted). A truncated
// payload — and trailing bytes, which read as one — fails with
// wire.ErrShort, a tail longer than the proof it names with
// ErrRecvSharedTail; nothing is returned unless the whole buffer decodes.
func unmarshalPayloads[T any, P interface {
	*T
	packetPayload
}](data []byte, heap *host.HeapMeter, kind string) ([]P, error) {
	r := wire.NewReader(data)
	var ps []P
	var prev []byte
	for {
		p := P(new(T))
		p.readFields(r)
		n := 0
		if len(ps) > 0 {
			n = int(r.U16())
		}
		head := r.Raw(int(r.U32()))
		err := r.Err()
		if err == nil && n > len(prev) {
			err = fmt.Errorf("%w: %d bytes of a %d-byte proof", ErrRecvSharedTail, n, len(prev))
		}
		if err == nil && n > 2 {
			err = heap.Alloc(n - 2)
		}
		if err != nil {
			return nil, fmt.Errorf("guest: decode %s payload %d: %w", kind, len(ps), err)
		}
		p.setProof(append(append(make([]byte, 0, len(head)+n), head...), prev[len(prev)-n:]...))
		prev = p.proof()
		ps = append(ps, p)
		if r.Remaining() == 0 {
			return ps, nil
		}
	}
}

// MarshalRecvPayload encodes RecvPayloads for staging (marshalPayloads).
func MarshalRecvPayload(ps ...*RecvPayload) []byte { return marshalPayloads(ps) }

// UnmarshalRecvPayloads decodes a recv staging buffer (unmarshalPayloads).
func UnmarshalRecvPayloads(data []byte, heap *host.HeapMeter) ([]*RecvPayload, error) {
	return unmarshalPayloads[RecvPayload](data, heap, "recv")
}

// MarshalAckPayload encodes AckPayloads for staging (marshalPayloads).
func MarshalAckPayload(ps ...*AckPayload) []byte { return marshalPayloads(ps) }

// UnmarshalAckPayloads decodes an ack staging buffer (unmarshalPayloads).
func UnmarshalAckPayloads(data []byte, heap *host.HeapMeter) ([]*AckPayload, error) {
	return unmarshalPayloads[AckPayload](data, heap, "ack")
}

// MarshalTimeoutPayload encodes TimeoutPayloads for staging
// (marshalPayloads).
func MarshalTimeoutPayload(ps ...*TimeoutPayload) []byte { return marshalPayloads(ps) }

// UnmarshalTimeoutPayloads decodes a timeout staging buffer
// (unmarshalPayloads).
func UnmarshalTimeoutPayloads(data []byte, heap *host.HeapMeter) ([]*TimeoutPayload, error) {
	return unmarshalPayloads[TimeoutPayload](data, heap, "timeout")
}
