package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trie"
)

// TestProveOutput pins the prove summary: the item count is the proof
// encoding's own, and the byte counts are what a relayer would carry.
func TestProveOutput(t *testing.T) {
	tr := trie.New()
	var out bytes.Buffer
	for _, line := range strings.Split("set a 1; set b 2; set c 3; prove a; prove zz", ";") {
		if err := eval(&out, tr, strings.TrimSpace(line)); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{"membership proof: 2 ascent items, 106 bytes", "non-membership proof: 2 ascent items, 138 bytes"}
	if len(lines) != 5 || lines[3] != want[0] || lines[4] != want[1] {
		t.Fatalf("output:\n%s\nwant its last two lines:\n%s", out.String(), strings.Join(want, "\n"))
	}
}
