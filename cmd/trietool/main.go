// Command trietool exercises the sealable Merkle trie from a small script
// language on stdin (or -e), useful for exploring the §III-A semantics:
//
//	set <key> <value>    store a value
//	get <key>            read a value
//	del <key>            delete a key
//	seal <key>           seal a key (storage reclamation)
//	prove <key>          print a membership/non-membership proof summary
//	root                 print the root commitment
//	stats                print node/seal counters
//	seq <prefix> <n>     insert n sequential keys under a namespace
//	sealseq <prefix> <n> seal n sequential keys under a namespace
//
// Keys and values are arbitrary strings (hashed to 32 bytes).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cryptoutil"
	"repro/internal/trie"
)

func main() {
	expr := flag.String("e", "", "semicolon-separated script (default: read stdin)")
	flag.Parse()

	tr := trie.New()
	run := func(line string) {
		if err := eval(os.Stdout, tr, line); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
	if *expr != "" {
		for _, line := range strings.Split(*expr, ";") {
			run(strings.TrimSpace(line))
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		run(strings.TrimSpace(sc.Text()))
	}
}

func key(s string) [trie.KeySize]byte {
	return [trie.KeySize]byte(cryptoutil.HashTagged('k', []byte(s)))
}

func seqKey(prefix string, i uint64) [trie.KeySize]byte {
	var k [trie.KeySize]byte
	h := cryptoutil.HashTagged('n', []byte(prefix))
	copy(k[:24], h[:24])
	for j := 0; j < 8; j++ {
		k[trie.KeySize-1-j] = byte(i >> (8 * j))
	}
	return k
}

// eval runs one script line against tr and writes what it prints to out.
func eval(out io.Writer, tr *trie.Trie, line string) error {
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	f := strings.Fields(line)
	switch f[0] {
	case "set":
		if len(f) != 3 {
			return errors.New("usage: set <key> <value>")
		}
		if err := tr.Set(key(f[1]), cryptoutil.HashBytes([]byte(f[2]))); err != nil {
			return err
		}
		fmt.Fprintf(out, "ok root=%s\n", tr.Root().Short())
	case "get":
		if len(f) != 2 {
			return errors.New("usage: get <key>")
		}
		v, err := tr.Get(key(f[1]))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "value hash: %s\n", v.Short())
	case "del":
		if len(f) != 2 {
			return errors.New("usage: del <key>")
		}
		if err := tr.Delete(key(f[1])); err != nil {
			return err
		}
		fmt.Fprintf(out, "ok root=%s\n", tr.Root().Short())
	case "seal":
		if len(f) != 2 {
			return errors.New("usage: seal <key>")
		}
		if err := tr.Seal(key(f[1])); err != nil {
			return err
		}
		fmt.Fprintf(out, "sealed; root unchanged: %s, live nodes %d\n", tr.Root().Short(), tr.NodeCount())
	case "prove":
		if len(f) != 2 {
			return errors.New("usage: prove <key>")
		}
		proof, err := tr.Prove(key(f[1]))
		if err != nil {
			return err
		}
		kind := "non-membership"
		if proof.Membership() {
			kind = "membership"
		}
		fmt.Fprintf(out, "%s proof: %d ascent items, %d bytes\n", kind, proof.Items(), len(*proof))
	case "root":
		fmt.Fprintf(out, "root: %s\n", tr.Root())
	case "stats":
		fmt.Fprintf(out, "live nodes: %d (%d bytes), sealed regions: %d, allocs: %d, frees: %d, entries: %d\n",
			tr.NodeCount(), tr.StorageBytes(), tr.SealedCount(), tr.TotalAllocs(), tr.TotalFrees(), tr.Len())
	case "seq", "sealseq":
		if len(f) != 3 {
			return fmt.Errorf("usage: %s <prefix> <n>", f[0])
		}
		n, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			k := seqKey(f[1], i)
			if f[0] == "seq" {
				err = tr.Set(k, cryptoutil.HashBytes([]byte{byte(i)}))
			} else {
				err = tr.Seal(k)
			}
			if err != nil {
				return fmt.Errorf("at %d: %w", i, err)
			}
		}
		fmt.Fprintf(out, "ok root=%s live=%d sealed=%d\n", tr.Root().Short(), tr.NodeCount(), tr.SealedCount())
	default:
		return fmt.Errorf("unknown command %q", f[0])
	}
	return nil
}
