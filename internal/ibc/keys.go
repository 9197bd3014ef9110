package ibc

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cryptoutil"
)

// ICS-24 commitment paths. Sequence-suffixed paths are translated into
// *structured* trie keys (namespace tag + channel digest + big-endian
// sequence) rather than flat hashes: consecutive sequences become adjacent
// keys, which is what lets the sealable trie's saturation collapse reclaim
// the storage of delivered packets (§III-A).

// Path builders (ibc-go compatible shapes).

// ClientStatePath is the storage path of a client's latest state.
func ClientStatePath(id ClientID) string {
	return fmt.Sprintf("clients/%s/clientState", id)
}

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
	return fmt.Sprintf("commitments/ports/%s/channels/%s/sequences/%d", port, ch, seq)
}

// ReceiptPath is the storage path of an incoming packet receipt.
func ReceiptPath(port PortID, ch ChannelID, seq uint64) string {
	return fmt.Sprintf("receipts/ports/%s/channels/%s/sequences/%d", port, ch, seq)
}

// AckPath is the storage path of a packet acknowledgement.
func AckPath(port PortID, ch ChannelID, seq uint64) string {
	return fmt.Sprintf("acks/ports/%s/channels/%s/sequences/%d", port, ch, seq)
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
	tag, chanScope, seq, ok := splitSequencedPath(path)
	if !ok {
		h := cryptoutil.HashTagged(keyTagHashed, []byte(path))
		h[0] = keyTagHashed
		return [cryptoutil.HashSize]byte(h)
	}
	var key [cryptoutil.HashSize]byte
	key[0] = tag
	scope := cryptoutil.HashTagged(tag, []byte(chanScope))
	copy(key[1:24], scope[:23])
	for i := 0; i < 8; i++ {
		key[cryptoutil.HashSize-1-i] = byte(seq >> (8 * i))
	}
	return key
}

// splitSequencedPath recognises "<ns>/ports/<p>/channels/<c>/sequences/<n>".
func splitSequencedPath(path string) (tag byte, chanScope string, seq uint64, ok bool) {
	parts := strings.Split(path, "/")
	if len(parts) != 7 || parts[1] != "ports" || parts[3] != "channels" || parts[5] != "sequences" {
		return 0, "", 0, false
	}
	switch parts[0] {
	case "commitments":
		tag = keyTagCommitment
	case "receipts":
		tag = keyTagReceipt
	case "acks":
		tag = keyTagAck
	default:
		return 0, "", 0, false
	}
	n, err := strconv.ParseUint(parts[6], 10, 64)
	if err != nil {
		return 0, "", 0, false
	}
	return tag, parts[2] + "/" + parts[4], n, true
}
