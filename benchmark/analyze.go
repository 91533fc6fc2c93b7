package main

import (
	"fmt"
	"math"
	"sort"
)

// Stage 3 of 3: the analyzer. It is the only code that turns raw samples
// into percentiles, and the only place the sample-count rule lives.

// beyond is how many samples must lie above a percentile for it to be
// reported: fewer and the number is one request's luck, not a tail.
const beyond = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile returns the p-th percentile (0 < p < 100) of sorted by linear
// interpolation between closest ranks. It panics on an empty slice: every
// caller has already counted its samples.
func percentile(sorted []float64, p float64) float64 {
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (rank-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// supported reports whether n samples leave at least `beyond` of them above
// the p-th percentile.
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= beyond-1e-9 // 100 − 99.9 is not exactly 0.1
}

// highestSupported returns the highest of the usual tail percentiles that n
// samples support, or 50 when none does.
func highestSupported(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if supported(n, p) {
			return p
		}
	}
	return 50
}

// pct reports the p-th percentile of xs, refusing one the sample cannot
// support.
func pct(name string, xs []float64, p float64) (float64, error) {
	if len(xs) == 0 || (p > 50 && !supported(len(xs), p)) {
		return 0, fmt.Errorf("%s: %d samples do not support p%g (need %d beyond it)", name, len(xs), p, beyond)
	}
	return percentile(sortedCopy(xs), p), nil
}

// roundsCPU scales the median per-round CPU back to the whole measured
// phase, so that one disturbed round cannot move the total.
func roundsCPU(perRound []float64) float64 {
	return float64(len(perRound)) * median(perRound)
}

// analysis is what one session yields: the end-to-end metrics, the
// per-layer numbers only the real processes can give, the diagnostics
// printed beside them, and the reasons (if any) the run is invalid.
type analysis struct {
	Metrics map[string]metric // end-to-end: bounded in BENCHMARK.json
	// Process holds the times and CPU of the two child processes. They are
	// what a user pays too, but on a shared host they follow the host's speed
	// of the minute, not the code (README, "How steady they are"), so they
	// carry no bound: every run prints them, the traced run reports them.
	Process   map[string]metric
	Attempted int
	Failed    int
	Diag      []string
	Problems  []string
}

func (a *analysis) set(name string, v float64, unit string) {
	a.Metrics[name] = metric{v, unit}
}

func (a *analysis) process(name string, v float64, unit string) {
	a.Process[name] = metric{v, unit}
}

func (a *analysis) problem(format string, args ...any) {
	a.Problems = append(a.Problems, fmt.Sprintf(format, args...))
}

// latencies splits op samples taken in the measured phase into the
// latencies of the successful ones and a failure count.
func latencies(ops []opSample, keep func(opSample) bool) (ms []float64, attempted, failed int) {
	for _, o := range ops {
		if !o.Measured || (keep != nil && !keep(o)) {
			continue
		}
		attempted++
		if !o.OK {
			failed++
			continue
		}
		ms = append(ms, o.LatMS)
	}
	return ms, attempted, failed
}

// socketMS returns the sent → response times of the successful measured ops
// of one kind ("" = all): the latency with the generator's own wake-up and
// queueing left out.
func socketMS(ops []opSample, kind string) []float64 {
	var xs []float64
	for _, o := range ops {
		if o.Measured && o.OK && (kind == "" || o.Kind == kind) {
			xs = append(xs, o.SocketMS)
		}
	}
	return xs
}

// socketP50 is the median of socketMS, 0 without samples.
func socketP50(ops []opSample, kind string) float64 {
	xs := socketMS(ops, kind)
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// measuredCount is how many of ops were sent in the measured phase.
func measuredCount(ops []opSample) int {
	n := 0
	for _, o := range ops {
		if o.Measured {
			n++
		}
	}
	return n
}

func analyze(r *rawRun) *analysis {
	a := &analysis{Metrics: map[string]metric{}, Process: map[string]metric{}}

	a.set("setup_s", median(r.SetupS), "s")
	a.process("collabsim.sweep_s", r.Sweep.WallS, "s")
	a.process("collabsim.sweep_cpu_s", r.Sweep.CPUS, "s")
	rss, err := pct("sweep_rss_mb", r.Sweep.RSSMB, 50)
	if err != nil {
		a.problem("%v", err)
	}
	a.set("sweep_rss_mb", rss, "MB")
	a.Attempted++ // the sweep
	if r.Sweep.Exit != 0 {
		a.Failed++
		a.problem("sweep exited %d", r.Sweep.Exit)
	}

	var lags []float64
	for _, m := range r.Markers {
		if !m.Measured {
			continue
		}
		a.Attempted++
		if !m.OK {
			a.Failed++
			continue
		}
		lags = append(lags, m.LagMS)
	}
	var v float64
	for _, q := range []struct {
		name string
		p    float64
	}{{"visible_p50_ms", 50}, {"visible_p95_ms", 95}} {
		v, err = pct(q.name, lags, q.p)
		if err != nil {
			a.problem("%v", err)
		}
		a.set(q.name, v, "ms")
	}

	wr, n, f := latencies(r.Writes, nil)
	a.Attempted, a.Failed = a.Attempted+n, a.Failed+f
	v, err = pct("write_p50_ms", wr, 50)
	if err != nil {
		a.problem("%v", err)
	}
	a.process("collabserve.write_p50_ms", v, "ms")

	_, n, f = latencies(r.MarkerAcks, nil)
	a.Attempted, a.Failed = a.Attempted+n, a.Failed+f

	all, n, f := latencies(r.Reads, nil)
	a.Attempted, a.Failed = a.Attempted+n, a.Failed+f
	// Every workload reads /v1/reputation — the prober's polls where no read
	// is scheduled — so the read latency is the socket time of those GETs.
	rep := append(socketMS(r.Reads, "reputation"), socketMS(r.Polls, "poll.reputation")...)
	if v, err = pct("read_p50_ms", rep, 50); err != nil {
		a.problem("%v", err)
	}
	a.process("collabserve.read_p50_ms", v, "ms")

	a.process("collabserve.serve_cpu_s", roundsCPU(r.RoundCPUS), "s")
	if v, err = pct("serve_rss_mb", r.ServeRSSMB, 50); err != nil {
		a.problem("%v", err)
	}
	a.set("serve_rss_mb", v, "MB")
	// The prober's own requests, as a share of all the server answered.
	prober := measuredCount(r.MarkerAcks) + measuredCount(r.Polls)
	a.process("benchmark.prober_request_share", float64(prober)/float64(prober+measuredCount(r.Writes)+measuredCount(r.Reads)), "ratio")

	late, err := pct("lateness", r.LateMS, 95)
	if err != nil {
		a.problem("%v", err)
	} else if late > float64(maxLateP95.Milliseconds()) {
		a.problem("generator lateness p95 %.3f ms exceeds %v: the schedule was not kept", late, maxLateP95)
	}

	a.Diag = append(a.Diag,
		fmt.Sprintf("sweep_rss_peak %.2f MB", r.Sweep.PeakMB),
		fmt.Sprintf("serve_rss_peak %.2f MB", r.ServePeakMB),
		fmt.Sprintf("socket_p50_ms write=%.4f marker_post=%.4f", socketP50(r.Writes, ""), socketP50(r.MarkerAcks, "")),
		fmt.Sprintf("samples markers=%d writes=%d reads=%d polls=%d reputation_gets=%d rounds=%d setups=%d",
			len(lags), len(wr), len(all), measuredCount(r.Polls), len(rep), len(r.RoundCPUS), len(r.SetupS)),
		fmt.Sprintf("generator_lateness_p95 %.4f ms", late),
		fmt.Sprintf("round_cpu_s %s", fmtFloats(r.RoundCPUS)),
		fmt.Sprintf("setup_s_each %s", fmtFloats(r.SetupS)),
	)
	for _, t := range []struct {
		name string
		xs   []float64
	}{{"write", wr}, {"visible", lags}} {
		if len(t.xs) > 0 {
			p := highestSupported(len(t.xs))
			a.Diag = append(a.Diag, fmt.Sprintf("%s_tail p%g=%.4f ms (n=%d, highest percentile with %d samples beyond)",
				t.name, p, percentile(sortedCopy(t.xs), p), len(t.xs), beyond))
		}
	}
	return a
}

func fmtFloats(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median — the steadiness figure the selfcheck prints, with
// quartiles placed as Python's statistics.quantiles(n=4) places them.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(3) - q(1)) / q(2)
}
