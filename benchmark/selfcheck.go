package main

import (
	"fmt"
	"os"
	"sort"
)

// runSelfcheck runs two interleaved sets of k sessions (A B A B …) of the
// current code on one workload and compares, metric by metric, the two
// medians against the metric's bound: what a later change is held to, the
// benchmark must first meet against itself. The process metrics, which have
// no bound, are listed after them for the record. Session i of both sets
// runs seed+i. It returns the process exit code.
func runSelfcheck(w workload, binDir string, seed uint64, seconds, k int) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	sets := [2]map[string][]float64{{}, {}}
	var process map[string]metric // the last session's, for the names
	for i := 0; i < 2*k; i++ {
		res, err := runOnce(w, seed+uint64(i/2), seconds, binDir, false, false)
		if err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: selfcheck session %d failed: %v\n", i, err)
			return 1
		}
		for _, ms := range []map[string]metric{res.Metrics, res.Process} {
			for name, m := range ms {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		process = res.Process
	}
	sort.Slice(spec.EndToEnd, func(a, b int) bool { return spec.EndToEnd[a].Name < spec.EndToEnd[b].Name })
	rows := spec.EndToEnd
	for _, name := range sortedNames(process) {
		rows = append(rows, specMetric{Name: name}) // bound 0 = none
	}
	fmt.Printf("\nselfcheck %s k=%d seeds=%d..%d seconds=%d\n", w.Name, k, seed, seed+uint64(k)-1, seconds)
	fmt.Println("| metric | median A | median B | gap | spread A | spread B | bound | |")
	fmt.Println("| --- | --- | --- | --- | --- | --- | --- | --- |")
	code := 0
	for _, m := range rows {
		a, b := sets[0][m.Name], sets[1][m.Name]
		if len(a) == 0 || len(b) == 0 {
			fmt.Printf("| %s | missing | | | | | | FAIL |\n", m.Name)
			code = 1
			continue
		}
		ma, mb := median(a), median(b)
		gap := (mb - ma) / ma
		bound, verdict := fmt.Sprintf("%.0f%%", 100*m.Bound), "ok"
		switch {
		case m.Bound == 0:
			bound, verdict = "none", ""
		case gap > m.Bound || -gap > m.Bound:
			verdict, code = "FAIL", 1
		}
		fmt.Printf("| %s | %.5g | %.5g | %+.2f%% | %.2f%% | %.2f%% | %s | %s |\n",
			m.Name, ma, mb, 100*gap, 100*quartileSpread(a), 100*quartileSpread(b), bound, verdict)
	}
	return code
}
