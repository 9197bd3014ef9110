// Command benchmark is the repository's benchmark: four workloads driven
// against the simulated guest-chain deployment, end-to-end metrics from
// untraced passes, per-layer metrics from layer drivers, telemetry counts
// and one traced pass, and a correctness check on every pass. The names
// it reports are fixed in spec.go and BENCHMARK.json; README.md explains
// the workloads, the clocks and how the metrics interact.
//
//	go run ./benchmark -seed 1                       # every workload, table + benchmark/out/results.json
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1   # one run, result line on stdout
//	go run ./benchmark -compare a.json b.json        # apply the bounds to two result files
//	go run ./benchmark -spec > BENCHMARK.json        # after changing a name or a bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// outDir receives results.json, trace files and scratch store directories.
// It lives under the benchmark's own path so a run writes nowhere else.
const outDir = "benchmark/out"

func main() {
	workload := flag.String("workload", "", "run one workload and print the driver's result line (default: all workloads)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs; never changes network wiring")
	seconds := flag.Float64("seconds", 0, "keep adding passes until this much host time was measured")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics), 0: untraced passes (end-to-end metrics)")
	repeats := flag.Int("repeats", 0, "minimum untraced passes per run (default 5, or 3 with -seconds; min 3)")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as this code defines it")
	flag.Parse()
	if *spec {
		os.Stdout.Write(benchmarkJSON())
		return
	}

	// One process, at most four cores: the simulator is single-threaded
	// apart from signature batches and GC workers.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *repeats == 0 {
		*repeats = 5
		if *seconds > 0 {
			*repeats = 3
		}
	}
	*repeats = max(*repeats, 3)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	scratch, err := os.MkdirTemp(outDir, "tmp-*")
	if err != nil {
		fatal("%v", err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, repeats: *repeats, scratch: scratch}

	code := 0
	if *workload != "" {
		code = driverRun(cfg, *workload, *trace == 1)
	} else {
		code = fullRun(cfg)
	}
	os.RemoveAll(scratch)
	os.Exit(code)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// driverRun is the contract mode: one workload, one run, and as the last
// line of standard output one JSON object with the run's metrics.
func driverRun(cfg runConfig, name string, traced bool) int {
	w := workloadByName(name)
	if w == nil {
		fatal("unknown workload %q", name)
	}
	var r *runResult
	if traced {
		r = tracedRun(cfg, w)
	} else {
		r = untracedRun(cfg, w)
	}
	printRun(os.Stdout, r)
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "benchmark: "+p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// fullRun measures every workload, untraced then traced, prints every
// metric as `workload metric value unit` and writes results.json.
func fullRun(cfg runConfig) int {
	doc := resultsDoc{Env: captureEnv(cfg.scratch), Seed: cfg.seed, Seconds: cfg.seconds, Repeats: cfg.repeats,
		Workloads: map[string]*workloadResults{}}
	code := 0
	for i := range workloads {
		w := &workloads[i]
		u := untracedRun(cfg, w)
		t := tracedRun(cfg, w)
		printRun(os.Stdout, u)
		printRun(os.Stdout, t)
		doc.Workloads[w.name] = &workloadResults{Why: w.why, EndToEnd: u, PerLayer: t}
		for _, r := range []*runResult{u, t} {
			for _, p := range r.Problems {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.name, p)
			}
			if !r.Correct {
				code = 1
			}
		}
		if u.hung || t.hung {
			// A pass that hit the watchdog is still burning a core, so any
			// further host-time number would be polluted.
			break
		}
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: wrote %s\n", path)
	return code
}

// printRun prints one line per metric: workload, metric, value, unit, and
// for host-time metrics the pass count and quartiles behind the median.
func printRun(out *os.File, r *runResult) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		extra := ""
		if len(m.Runs) > 1 {
			extra = fmt.Sprintf("  # host time, median of %d passes, quartiles %.6g..%.6g", len(m.Runs), m.Q1, m.Q3)
		}
		if n == "latency_p99_virtual_s" {
			extra = fmt.Sprintf("  # n=%d, highest supported percentile p%g", r.LatencySamples, 100*r.LatencyTail)
		}
		fmt.Fprintf(out, "%s %s %.6g %s%s\n", r.Workload, n, m.Value, m.Unit, extra)
	}
	fmt.Fprintf(out, "%s attempted %d failed %d correct %v passes %d\n", r.Workload, r.Attempted, r.Failed, r.Correct, len(r.Passes))
}

// env records where the numbers were taken.
type env struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	TempDir    string `json:"temp_dir"`
	TempFS     string `json:"temp_dir_fs"`
	GitCommit  string `json:"git_commit"`
}

func captureEnv(scratch string) env {
	return env{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		TempDir:    scratch,
		TempFS:     fsTypeOf(scratch),
		GitCommit:  gitCommit(),
	}
}

// fsTypeOf reads /proc/mounts for the filesystem holding dir. On tmpfs an
// fsync is nearly free, so disk *_ms numbers are that filesystem's.
func fsTypeOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// gitCommit reads the checked-out commit from .git without running git
// (the driver's checkout is not a repository: "unknown" there).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	return s
}
