package ibc

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/nodestore"
	"repro/internal/trie"
)

// Operations of FuzzStoreVersions: each is two input bytes, the operation
// (mod opCount) and its argument.
const (
	opSet byte = iota
	opSetAgain
	opDelete
	opReceipt // write and seal a receipt path in one generation
	opCommit
	opRelease
	opEvict
	opDurability // argument mod 3: Sync, power cut + reopen, Close + reopen
	opCount
)

var (
	// fuzzPaths are the paths Set and Delete write; receiptPaths are the
	// ones opReceipt writes and seals.
	fuzzPaths = []string{
		CommitmentPath("transfer", "channel-0", 1), CommitmentPath("transfer", "channel-0", 2),
		CommitmentPath("transfer", "channel-0", 3), "clients/07-tendermint-0/clientState",
		AckPath("transfer", "channel-0", 1), AckPath("transfer", "channel-0", 2),
	}
	receiptPaths = []string{
		ReceiptPath("transfer", "channel-0", 1), ReceiptPath("transfer", "channel-0", 2),
		ReceiptPath("transfer", "channel-0", 3), ReceiptPath("transfer", "channel-0", 4),
	}
	allPaths = append(append([]string(nil), fuzzPaths...), receiptPaths...)
	// Set writes these; the first two are one byte, the last is longer
	// than a hash. A receipt holds receiptValue, which Set never writes.
	fuzzValues = []string{"\x02", "ack", "cs", "an acknowledgement longer than one hash, stored by value"}
)

// modelEntry is a path's state in the model: live with its value, or a
// sealed stub. An absent path has no entry.
type modelEntry struct {
	value  string
	sealed bool
}

type modelVersion struct {
	root  cryptoutil.Hash
	state map[string]modelEntry
}

// storeModel is what a Store must hold: the head, every retained version,
// and the newest commit (the head a reopen resumes from, retained or not).
type storeModel struct {
	head     map[string]modelEntry
	versions map[Version]modelVersion
	last     Version
	lastVer  modelVersion
}

// durable returns the committed part of the model, which a Sync or Close
// makes what a reopen recovers.
func (m *storeModel) durable() storeModel {
	return storeModel{versions: maps.Clone(m.versions), last: m.last, lastVer: m.lastVer}
}

// reopened resets the model to what a store reopened from d holds: the
// versions retained at d and a head equal to d's newest commit, unflushed
// writes lost.
func (m *storeModel) reopened(d storeModel) {
	*m = d
	m.versions = maps.Clone(d.versions)
	m.head = maps.Clone(d.lastVer.state)
	if m.head == nil {
		m.head = map[string]modelEntry{}
	}
}

// FuzzStoreVersions runs a disk-backed Store and a per-version map model
// through the same Set/Delete/Seal/Commit/Release/Evict sequence with
// syncs, power cuts and clean reopens. After every operation the head and
// each retained version must agree with the model on Get, Has and
// ProveMembership/ProveNonMembership, and every proof must verify under
// that version's root.
//
// Seal runs the way the handler seals a receipt: the path is written and
// sealed in the same generation, and no unsealed leaf holds a receipt's
// value. The backend addresses a node by its hash, which covers neither a
// leaf's seal nor a collapsed child's, so a sealed and an unsealed leaf
// with the same remaining path bits and value share one stored node, and
// a reopened or evicted version reads whichever was flushed first; sealing
// a leaf that an earlier commit flushed does not reach the backend at all.
// Both are open defects of the persisted format (ROADMAP.md, "Persist
// seals faithfully").
func FuzzStoreVersions(f *testing.F) {
	op := func(o, arg byte) []byte { return []byte{o, arg} }
	seed := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add(seed(op(opSet, 0), op(opSet, 7), op(opCommit, 0), op(opSet, 12), op(opDelete, 1), op(opCommit, 0),
		op(opEvict, 0), op(opReceipt, 0), op(opCommit, 0), op(opRelease, 1), op(opDurability, 0), op(opSet, 3),
		op(opCommit, 0), op(opDurability, 1), op(opSet, 20), op(opCommit, 0), op(opDurability, 2)))
	f.Add(seed(op(opSet, 4), op(opSet, 5), op(opCommit, 0), op(opDurability, 0), op(opReceipt, 1), op(opDelete, 5),
		op(opCommit, 0), op(opRelease, 0), op(opDurability, 0), op(opReceipt, 1), op(opDurability, 1), op(opSet, 10),
		op(opEvict, 0)))
	f.Add(seed(op(opSet, 2), op(opCommit, 0), op(opDurability, 1), op(opSet, 2), op(opCommit, 0)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		dir := t.TempDir()
		var d *nodestore.Disk
		var s *Store
		open := func() {
			var err error
			if d, err = nodestore.Open(dir, nodestore.DiskConfig{}); err != nil {
				t.Fatal(err)
			}
			if s, err = NewStoreWithBackend(d); err != nil {
				t.Fatal(err)
			}
		}
		open()
		defer func() { s.CloseBackend() }()
		m := storeModel{head: map[string]modelEntry{}, versions: map[Version]modelVersion{}}
		durable := m.durable()
		for i := 0; i+1 < len(ops); i += 2 {
			o, arg := ops[i]%opCount, ops[i+1]
			path := fuzzPaths[int(arg)%len(fuzzPaths)]
			_, present := m.head[path]
			var err, want error
			switch o {
			case opSet, opSetAgain:
				value := fuzzValues[int(arg)/len(fuzzPaths)%len(fuzzValues)]
				err = s.Set(path, []byte(value))
				m.head[path] = modelEntry{value: value}
			case opDelete:
				err = s.Delete(path)
				if !present {
					want = trie.ErrNotFound
				} else {
					delete(m.head, path)
				}
			case opReceipt:
				path = receiptPaths[int(arg)%len(receiptPaths)]
				if m.head[path].sealed {
					if err = s.Seal(path); !errors.Is(err, trie.ErrSealed) {
						t.Fatalf("op %d: sealing sealed %q: %v", i/2, path, err)
					}
					err, want = s.Set(path, receiptValue), trie.ErrSealed
				} else if err = s.Set(path, receiptValue); err == nil {
					err = s.Seal(path)
					m.head[path] = modelEntry{sealed: true}
				}
			case opCommit:
				root := s.Root()
				v := s.CommitAt(uint64(m.last) + 1)
				if v != m.last+1 {
					t.Fatalf("op %d: commit made version %d after %d", i/2, v, m.last)
				}
				m.last, m.lastVer = v, modelVersion{root: root, state: maps.Clone(m.head)}
				m.versions[v] = m.lastVer
			case opRelease, opEvict:
				v, ok := retainedAt(m.versions, int(arg))
				if !ok {
					continue
				}
				if o == opRelease {
					s.release(v)
					delete(m.versions, v)
				} else {
					s.evict(v)
				}
			case opDurability:
				switch arg % 3 {
				case 0:
					err = s.SyncBackend()
					durable = m.durable()
				case 1:
					if err := d.Crash(); err != nil {
						t.Fatal(err)
					}
					open()
					m.reopened(durable)
				case 2:
					err = s.CloseBackend()
					durable = m.durable()
					open()
					m.reopened(durable)
				}
			}
			if !errors.Is(err, want) || (want == nil) != (err == nil) {
				t.Fatalf("op %d (%d on %q): err = %v, want %v", i/2, o, path, err, want)
			}
			checkStoreModel(t, fmt.Sprintf("after op %d (%d)", i/2, o), s, &m)
		}
	})
}

// retainedAt returns the k-th retained version (mod their number), in
// version order.
func retainedAt(versions map[Version]modelVersion, k int) (Version, bool) {
	if len(versions) == 0 {
		return 0, false
	}
	vs := make([]Version, 0, len(versions))
	for v := range versions {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	return vs[k%len(vs)], true
}

// storeReader is what the head and a retained version both serve.
type storeReader interface {
	Get(string) ([]byte, error)
	Has(string) (bool, error)
	ProveMembership(string) ([]byte, []byte, error)
	ProveNonMembership(string) ([]byte, error)
}

func checkStoreModel(t *testing.T, when string, s *Store, m *storeModel) {
	t.Helper()
	checkReader(t, when+", head", s, s.Root(), m.head)
	if got := s.RetainedVersions(); got != len(m.versions) {
		t.Fatalf("%s: %d retained versions, model %d", when, got, len(m.versions))
	}
	for v, mv := range m.versions {
		ro, err := s.At(v)
		if err != nil {
			t.Fatalf("%s: At(%d): %v", when, v, err)
		}
		if ro.Root() != mv.root {
			t.Fatalf("%s: version %d root %s, model %s", when, v, ro.Root().Short(), mv.root.Short())
		}
		checkReader(t, fmt.Sprintf("%s, version %d", when, v), ro, mv.root, mv.state)
	}
}

func checkReader(t *testing.T, when string, r storeReader, root cryptoutil.Hash, state map[string]modelEntry) {
	t.Helper()
	for _, path := range allPaths {
		e, present := state[path]
		got, err := r.Get(path)
		has, hasErr := r.Has(path)
		val, proof, proveErr := r.ProveMembership(path)
		absence, absenceErr := r.ProveNonMembership(path)
		switch {
		case !present:
			if !errors.Is(err, trie.ErrNotFound) || has || hasErr != nil || proveErr == nil || absenceErr != nil {
				t.Fatalf("%s: absent %q: Get %v, Has %v %v, proof %v, absence proof %v", when, path, err, has, hasErr, proveErr, absenceErr)
			}
			if err := VerifyStoredNonMembership(root, path, absence); err != nil {
				t.Fatalf("%s: absence proof of %q: %v", when, path, err)
			}
		case e.sealed:
			if !errors.Is(err, trie.ErrSealed) || !errors.Is(hasErr, trie.ErrSealed) || !errors.Is(proveErr, trie.ErrSealed) || !errors.Is(absenceErr, trie.ErrSealed) {
				t.Fatalf("%s: sealed %q: Get %v, Has %v, proof %v, absence proof %v", when, path, err, hasErr, proveErr, absenceErr)
			}
		default:
			if err != nil || string(got) != e.value || !has || hasErr != nil || proveErr != nil || string(val) != e.value || absenceErr == nil {
				t.Fatalf("%s: %q = %q: Get %q %v, Has %v %v, proof %q %v, absence proof %v", when, path, e.value, got, err, has, hasErr, val, proveErr, absenceErr)
			}
			if err := VerifyStoredMembership(root, path, val, proof); err != nil {
				t.Fatalf("%s: proof of %q: %v", when, path, err)
			}
		}
	}
}
