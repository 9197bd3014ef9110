package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestScenarioModeVerdict: scenario mode passes a conserving run (with the
// generic overrides applied) and fails — which main turns into exit 1 — a
// run whose ledger reports a violation, printing it.
func TestScenarioModeVerdict(t *testing.T) {
	var out bytes.Buffer
	if !scenarioMode(&out, "mesh-line", 7, 3, 0, 2*time.Hour, "") {
		t.Fatalf("mesh-line failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "seed 7, 2h0m0s + 3h0m0s drain, 3 flows, 3 planned transfers each") {
		t.Fatalf("overrides not applied:\n%s", out.String())
	}
	// -packets means nothing to a scenario whose traffic is a loadgen
	// stream: it is ignored, not handed to a schedule the literal lacks.
	out.Reset()
	if !scenarioMode(&out, "load", 1, 5, 0, time.Minute, "") {
		t.Fatalf("load with -packets failed:\n%s", out.String())
	}
	out.Reset()
	if scenarioMode(&out, "stray-voucher", 1, 0, 0, 0, "") {
		t.Fatalf("stray-voucher passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "VIOLATION guest>cp[0]: vouchers 262 != delivered tokens 255") {
		t.Fatalf("violation not printed:\n%s", out.String())
	}
}

// TestScenarioModeStoresInTempDir: a scenario that declares a store runs
// with no -store-dir — it keeps its WAL in a throwaway directory — and
// every line of its verdict holds.
func TestScenarioModeStoresInTempDir(t *testing.T) {
	var out bytes.Buffer
	if !scenarioMode(&out, "recover", 1, 0, 0, 0, "") {
		t.Fatalf("recover failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok   root_match") || strings.Contains(out.String(), "FAIL") {
		t.Fatalf("verdict lines:\n%s", out.String())
	}
}

// TestProfilesWritten: -cpuprofile and -memprofile each leave a pprof file
// once the run they were started around stops, and an unset flag leaves
// nothing.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	startProfiles(cpu, mem)()
	for _, name := range []string{cpu, mem} {
		if fi, err := os.Stat(name); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", filepath.Base(name), err)
		}
	}
	startProfiles("", "")()
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Errorf("unset flags wrote files: %v", entries)
	}
}
