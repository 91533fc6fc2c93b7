// Benchmark is the repo's end-to-end benchmark. One invocation runs one
// session — the two user journeys back to back, each against the real
// binary as a child process: a collabsim figure sweep, then a collabserve
// serving run — checks the outputs, and prints every metric.
//
//	go run ./benchmark -workload warm_steady -seed 1
//	go run ./benchmark -workload cold_churn -seed 1 -trace 1
//	go run ./benchmark -workload scheme_reads -selfcheck 5
//
// Run it from the repository root. With -trace 0 (the default) the session
// is timed and the end-to-end metrics are printed; with -trace 1 the same
// session is repeated with a span recorded around every call into the
// program and one round is replayed in-process layer by layer, and the
// per-layer metrics are printed instead. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and metrics.
// See README.md in this directory for the definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const outRoot = "benchmark/out"

// untraced is what a timed run leaves in out/<workload>/untraced.json: its
// end-to-end and process metrics.
type untraced struct {
	Seed    uint64            `json:"seed"`
	Seconds int               `json:"seconds"`
	Metrics map[string]metric `json:"metrics"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Process is the timed run's unbounded process metrics, for the selfcheck.
	Process map[string]metric `json:"-"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: warm_steady | cold_churn | scheme_reads")
		seed      = flag.Uint64("seed", 1, "instance seed")
		seconds   = flag.Int("seconds", 24, "length of the measured serving phase")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace.json instead of end-to-end metrics")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of k sessions and compare their medians against the bounds")
		corrupt   = flag.Bool("corrupt", false, "nudge one expected edge weight by an ulp: the run must then fail its check")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < rounds {
		fmt.Fprintf(os.Stderr, "benchmark: -seconds must be at least %d\n", rounds)
		os.Exit(2)
	}
	binDir, err := build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *selfcheck > 0 {
		os.Exit(runSelfcheck(w, binDir, *seed, *seconds, *selfcheck))
	}

	res, err := runOnce(w, *seed, *seconds, binDir, *trace == 1, *corrupt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res) // a map of plain structs cannot fail to marshal
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// build compiles the two programs under test from the checkout's source
// into the benchmark's output directory. Untimed.
func build() (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	binDir, err := filepath.Abs(filepath.Join(outRoot, "bin"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/collabserve", "./cmd/collabsim")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building the programs under test: %w\n%s", err, out)
	}
	return binDir, nil
}

// runOnce generates the instance of (w, seed, seconds), runs one session on
// it and prints its report. It returns an error only when the session could
// not be carried out; a session that ran but failed a check comes back with
// Correct false.
func runOnce(w workload, seed uint64, seconds int, binDir string, traced, corrupt bool) (*result, error) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	in, err := generate(w, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	outDir := filepath.Join(outRoot, w.Name)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := in.save(filepath.Join(outDir, "instance.json")); err != nil {
		return nil, err
	}
	s := &session{w: w, in: in, outDir: outDir, binDir: binDir, setups: setupRepeats}
	if traced {
		s.tr = newTracer()
		s.setups = 1
	}
	printEnv(in)
	raw, runErr := s.run(corrupt)
	if raw == nil {
		return nil, runErr
	}
	a := analyze(raw)
	if runErr != nil {
		a.Failed++
		a.problem("%v", runErr)
	}
	a.Attempted++ // the output checks count as one op
	res := &result{Metrics: a.Metrics, Process: a.Process}

	session := map[string]metric{} // everything the session itself measured
	for _, ms := range []map[string]metric{a.Metrics, a.Process} {
		for n, m := range ms {
			session[n] = m
		}
	}
	lastPath := filepath.Join(outDir, "untraced.json")
	if traced {
		layers, err := tracedReport(s, raw, a, session, lastPath)
		if err != nil {
			return nil, err
		}
		res.Metrics = layers
	} else {
		printMetrics(a.Process)
		if data, err := json.Marshal(untraced{in.Seed, in.Seconds, session}); err == nil {
			// Kept so that a later traced run can report its overhead.
			_ = os.WriteFile(lastPath, data, 0o644)
		}
	}
	for _, p := range spec.missing(res.Metrics, traced) {
		a.problem("%s", p)
	}
	res.Correct, res.Attempted, res.Failed = len(a.Problems) == 0 && a.Failed == 0, a.Attempted, a.Failed
	printMetrics(res.Metrics)
	fmt.Printf("ops_attempted %d\nops_failed %d\n", a.Attempted, a.Failed)
	for _, d := range a.Diag {
		fmt.Println(d)
	}
	for _, p := range a.Problems {
		fmt.Println("FAILED:", p)
	}
	return res, nil
}

func printEnv(in *instance) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("env cores=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d seconds=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, in.Workload, in.Seed, in.Seconds)
}

func sortedNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printMetrics(ms map[string]metric) {
	for _, n := range sortedNames(ms) {
		fmt.Printf("%s %.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
