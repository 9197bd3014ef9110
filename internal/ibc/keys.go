package ibc

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/cryptoutil"
)

// ICS-24 commitment paths. Sequence-suffixed paths are translated into
// *structured* trie keys (namespace tag + channel digest + big-endian
// sequence) rather than flat hashes: consecutive sequences become adjacent
// keys, which is what lets the sealable trie's saturation collapse reclaim
// the storage of delivered packets (§III-A).

// Path builders (ibc-go compatible shapes).

// ConnectionPath is the storage path of a connection end.
func ConnectionPath(id ConnectionID) string {
	return fmt.Sprintf("connections/%s", id)
}

// ChannelPath is the storage path of a channel end.
func ChannelPath(port PortID, ch ChannelID) string {
	return fmt.Sprintf("channelEnds/ports/%s/channels/%s", port, ch)
}

// NextSequenceSendPath tracks the next outgoing sequence number.
func NextSequenceSendPath(port PortID, ch ChannelID) string {
	return fmt.Sprintf("nextSequenceSend/ports/%s/channels/%s", port, ch)
}

// NextSequenceRecvPath tracks the next expected sequence on ordered
// channels.
func NextSequenceRecvPath(port PortID, ch ChannelID) string {
	return fmt.Sprintf("nextSequenceRecv/ports/%s/channels/%s", port, ch)
}

// CommitmentPath is the storage path of an outgoing packet commitment.
func CommitmentPath(port PortID, ch ChannelID, seq uint64) string {
	return sequencedPath(nsCommitment, port, ch, seq)
}

// ReceiptPath is the storage path of an incoming packet receipt.
func ReceiptPath(port PortID, ch ChannelID, seq uint64) string {
	return sequencedPath(nsReceipt, port, ch, seq)
}

// AckPath is the storage path of a packet acknowledgement.
func AckPath(port PortID, ch ChannelID, seq uint64) string {
	return sequencedPath(nsAck, port, ch, seq)
}

// The sequenced namespaces and the fixed segments between their fields.
const (
	nsCommitment = "commitments"
	nsReceipt    = "receipts"
	nsAck        = "acks"

	segPorts     = "/ports/"
	segChannels  = "/channels/"
	segSequences = "/sequences/"
)

// sequencedPath builds "<ns>/ports/<port>/channels/<ch>/sequences/<seq>"
// in one allocation: every packet operation builds several of these.
func sequencedPath(ns string, port PortID, ch ChannelID, seq uint64) string {
	var digits [20]byte // a uint64 has at most 20 decimal digits
	num := strconv.AppendUint(digits[:0], seq, 10)
	var b strings.Builder
	b.Grow(len(ns) + len(segPorts) + len(port) + len(segChannels) + len(ch) + len(segSequences) + len(num))
	b.WriteString(ns)
	b.WriteString(segPorts)
	b.WriteString(string(port))
	b.WriteString(segChannels)
	b.WriteString(string(ch))
	b.WriteString(segSequences)
	b.Write(num)
	return b.String()
}

// seqKeys derives the trie keys of one channel's paths in one sequenced
// namespace without spelling them: at(seq) is PathToKey of the
// namespace's path for seq. The handler keeps one per namespace for each
// channel it holds, so a packet's commitment, receipt and ack keys cost a
// copy and a store of the sequence.
type seqKeys struct {
	ns      string
	port    PortID
	channel ChannelID
	// base is the key of sequence 0. spelled marks identifiers whose
	// paths do not split back into them (one holds a '/'): those paths
	// hash flat, so each key is derived from the spelled path.
	base    storeKey
	spelled bool
}

func newSeqKeys(ns string, port PortID, ch ChannelID) seqKeys {
	path := sequencedPath(ns, port, ch, 0)
	_, p, c, _, ok := splitSequencedPath(path)
	return seqKeys{
		ns: ns, port: port, channel: ch,
		base:    PathToKey(path),
		spelled: !ok || p != string(port) || c != string(ch),
	}
}

// at is the key of sequence seq.
func (k *seqKeys) at(seq uint64) storeKey {
	if k.spelled {
		return PathToKey(k.path(seq))
	}
	key := k.base
	binary.BigEndian.PutUint64(key[1+scopeLen:], seq)
	return key
}

// path spells sequence seq's path, for the errors that name it.
func (k *seqKeys) path(seq uint64) string {
	return sequencedPath(k.ns, k.port, k.channel, seq)
}

// Structured key namespaces. One byte tags keep namespaces disjoint.
const (
	keyTagHashed     byte = 0x00
	keyTagCommitment byte = 0x01
	keyTagReceipt    byte = 0x02
	keyTagAck        byte = 0x03
)

// PathToKey converts an ICS-24 path into a 32-byte trie key.
//
// Sequence-suffixed paths (commitments, receipts, acks) become structured
// keys: tag(1) || H(port/channel)[0:23] || sequence(8, big-endian). All
// other paths hash flat. The structured layout keeps per-channel sequences
// adjacent in the key space so that sealing delivered receipts saturates
// and collapses aligned blocks.
func PathToKey(path string) [cryptoutil.HashSize]byte {
	tag, port, channel, seq, ok := splitSequencedPath(path)
	if !ok {
		h := cryptoutil.HashTagged(keyTagHashed, []byte(path))
		h[0] = keyTagHashed
		return [cryptoutil.HashSize]byte(h)
	}
	var key [cryptoutil.HashSize]byte
	key[0] = tag
	scope := channelScope(tag, port, channel)
	copy(key[1:1+scopeLen], scope[:])
	binary.BigEndian.PutUint64(key[1+scopeLen:], seq)
	return key
}

// splitSequencedPath recognises "<ns>/ports/<p>/channels/<c>/sequences/<n>"
// and returns its fields as substrings of path. The number must be
// canonical decimal — the spelling the builders emit — so that no two
// paths the value table keeps apart share a structured key: anything else
// ("007", "+7", "") is not a sequenced path and hashes flat.
func splitSequencedPath(path string) (tag byte, port, channel string, seq uint64, ok bool) {
	ns, rest, _ := cutField(path)
	switch ns {
	case nsCommitment:
		tag = keyTagCommitment
	case nsReceipt:
		tag = keyTagReceipt
	case nsAck:
		tag = keyTagAck
	default:
		return 0, "", "", 0, false
	}
	if rest, ok = strings.CutPrefix(rest, segPorts); !ok {
		return 0, "", "", 0, false
	}
	if port, rest, ok = cutField(rest); !ok {
		return 0, "", "", 0, false
	}
	if rest, ok = strings.CutPrefix(rest, segChannels); !ok {
		return 0, "", "", 0, false
	}
	if channel, rest, ok = cutField(rest); !ok {
		return 0, "", "", 0, false
	}
	digits, ok := strings.CutPrefix(rest, segSequences)
	if !ok || (len(digits) > 1 && digits[0] == '0') {
		return 0, "", "", 0, false
	}
	// ParseUint takes digits only: no sign, no separators, no empty string.
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, "", "", 0, false
	}
	return tag, port, channel, seq, true
}

// cutField splits s before its first '/', which stays with the remainder
// (the fixed segments carry their slashes).
func cutField(s string) (field, rest string, ok bool) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i:], true
}

// scopeLen is how much of H(tag || port/channel) a structured key carries.
const scopeLen = 23

// scopeKey names one channel scope: a namespace tag and the channel.
type scopeKey struct {
	tag           byte
	port, channel string
}

// scopeMemoMax bounds the digest table. A deployment has a handful of
// channels per chain; paths arriving from outside (proof verification) may
// name any number, and past the bound their digests are computed each time.
const scopeMemoMax = 1024

// scopeMemo caches channelScope by copy-on-write: PathToKey runs on every
// store access, ReadOnlyStore views call it from other goroutines, and the
// table stops changing once a deployment's channels have been seen, so a
// read is one atomic load and a map lookup.
var scopeMemo atomic.Pointer[map[scopeKey][scopeLen]byte]

// channelScope is the channel-scope part of a structured key, memoised.
func channelScope(tag byte, port, channel string) [scopeLen]byte {
	k := scopeKey{tag, port, channel}
	var seen map[scopeKey][scopeLen]byte
	m := scopeMemo.Load()
	if m != nil {
		seen = *m
	}
	if d, ok := seen[k]; ok {
		return d
	}
	d := scopeDigest(tag, port, channel)
	if len(seen) < scopeMemoMax {
		next := make(map[scopeKey][scopeLen]byte, len(seen)+1)
		for k, v := range seen {
			next[k] = v
		}
		// port and channel alias the caller's path: the table keeps copies.
		next[scopeKey{tag, strings.Clone(port), strings.Clone(channel)}] = d
		// Losing a race drops this entry; the next miss stores it.
		scopeMemo.CompareAndSwap(m, &next)
	}
	return d
}

// scopeDigest computes H(tag || port "/" channel)[:scopeLen].
func scopeDigest(tag byte, port, channel string) (d [scopeLen]byte) {
	h := cryptoutil.HashTagged(tag, []byte(port), []byte{'/'}, []byte(channel))
	copy(d[:], h[:])
	return d
}
