package trie

import (
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Wire format version for proofs.
const proofWireVersion = 1

// minItemSize is the fewest bytes an ascent item encodes to: a kind byte
// and an empty path's u16 bit length.
const minItemSize = 3

// MarshalBinary encodes the proof into a compact byte string. The encoding
// matters because relayed proofs must fit into 1232-byte host transactions
// (§IV); the relayer chunks larger payloads across transactions.
func (p *Proof) MarshalBinary() ([]byte, error) {
	size := 4 // version, flags, item count
	switch p.terminal {
	case terminalLeaf:
		size += 2 + len(p.LeafPath)
		if !p.Membership {
			size += cryptoutil.HashSize
		}
	case terminalExt:
		size += 2 + len(p.ExtPath) + cryptoutil.HashSize
	}
	for _, it := range p.Items {
		switch it.Kind {
		case AscentBranch:
			size += 2 + cryptoutil.HashSize
		case AscentExt:
			size += minItemSize + len(it.Path)
		default:
			return nil, fmt.Errorf("trie: cannot encode ascent kind %d", it.Kind)
		}
	}

	w := wire.NewWriterSize(size)
	w.U8(proofWireVersion)
	flags := byte(p.terminal) << 1
	if p.Membership {
		flags |= 1
	}
	w.U8(flags)
	switch p.terminal {
	case terminalLeaf:
		writePath(w, p.LeafPath, p.LeafPathLen)
		if !p.Membership {
			w.Hash(p.LeafValue)
		}
	case terminalExt:
		writePath(w, p.ExtPath, p.ExtPathLen)
		w.Hash(p.ExtChild)
	}
	w.U16(uint16(len(p.Items)))
	for _, it := range p.Items {
		w.U8(byte(it.Kind))
		if it.Kind == AscentBranch {
			w.U8(it.Bit)
			w.Hash(it.Sibling)
		} else {
			writePath(w, it.Path, it.PathLen)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a proof produced by MarshalBinary and accepts
// nothing else: short or trailing input, a non-canonical path, an unknown
// kind and a membership proof without a leaf are errors (ErrBadProof).
func (p *Proof) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	ver, flags := r.U8(), r.U8()
	if r.Err() == nil && ver != proofWireVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadProof, ver)
	}
	*p = Proof{Membership: flags&1 != 0, terminal: terminalKind(flags >> 1)}
	var err error
	switch {
	case p.terminal == terminalLeaf:
		p.LeafPath, p.LeafPathLen, err = readProofPath(r)
		if !p.Membership {
			p.LeafValue = r.Hash()
		}
	case p.Membership:
		return fmt.Errorf("%w: membership proof without a leaf", ErrBadProof)
	case p.terminal == terminalExt:
		p.ExtPath, p.ExtPathLen, err = readProofPath(r)
		p.ExtChild = r.Hash()
	case p.terminal != terminalNone:
		return fmt.Errorf("%w: unknown terminal kind %d", ErrBadProof, p.terminal)
	}
	if err != nil {
		return err
	}

	// A verifiable proof consumes at least one key bit per item.
	n := r.Count16(minItemSize)
	if n > keyBits {
		return fmt.Errorf("%w: %d ascent items for a %d-bit key", ErrBadProof, n, keyBits)
	}
	p.Items = make([]AscentItem, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		it := &p.Items[i]
		it.Kind = AscentKind(r.U8())
		switch it.Kind {
		case AscentBranch:
			it.Bit = r.U8()
			it.Sibling = r.Hash()
		case AscentExt:
			if it.Path, it.PathLen, err = readProofPath(r); err != nil {
				return err
			}
		default:
			if r.Err() == nil {
				return fmt.Errorf("%w: unknown ascent kind %d", ErrBadProof, it.Kind)
			}
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadProof, err)
	}
	p.ownPaths()
	return nil
}

// readProofPath is readPath for a proof; the path aliases the input
// until ownPaths copies it out.
func readProofPath(r *wire.Reader) ([]byte, int, error) {
	packed, bits, err := readPath(r)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrBadProof, err)
	}
	return packed, bits, nil
}

// ownPaths copies every path of a proof into one exact-size buffer, so
// the proof keeps its paths after the input it was read from, or the nodes
// it was built from, change or are gone. Each copy is capped so that no
// append through it reaches the next path; an empty path is nil.
func (p *Proof) ownPaths() {
	size := len(p.LeafPath) + len(p.ExtPath)
	for _, it := range p.Items {
		size += len(it.Path)
	}
	buf := make([]byte, 0, size)
	own := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		start := len(buf)
		buf = append(buf, b...)
		return buf[start:len(buf):len(buf)]
	}
	p.LeafPath, p.ExtPath = own(p.LeafPath), own(p.ExtPath)
	for i := range p.Items {
		p.Items[i].Path = own(p.Items[i].Path)
	}
}
