package main

import "time"

// Phase lengths shared by every workload. The measured serving phase is
// split into rounds of identical scheduled work so that server CPU can be
// reported as a median over rounds; the warm-up carries the workload's own
// traffic and is timed by nothing.
const (
	warmup       = 2 * time.Second
	rounds       = 3
	refreshEvery = 50 * time.Millisecond // collabserve -refresh
	// Mean gap of the Poisson marker schedule: 667 markers in a 24 s measured
	// phase, the count the issue's 60 ms gave its 40 s one. The sampling error
	// of a median lag is set by the count (25 ms / √count on a 50 ms tick).
	markerGap   = 36 * time.Millisecond
	markerLimit = 2 * time.Second // a marker not visible by then is a failed op
	// Mean gap between visibility polls while markers are outstanding (each
	// gap is drawn from 0.5–1.5 × this). Every poll is a request the server
	// would not otherwise see, and visibility changes once per refresh tick,
	// so the mean is a fifth of the tick: the lag reads a steady 5 ms high and
	// the prober stays a stated, minor share of the traffic
	// (benchmark.prober_request_share, benchmark.prober_cpu_share).
	pollEvery    = 10 * time.Millisecond
	rssEvery     = 50 * time.Millisecond // resident-set sampling period, sweep and server alike
	bulkBatch    = 4096                  // events per preload POST (the server's default cap)
	setupRepeats = 5                     // set-ups per untraced run; setup_s is their median
	simWorkers   = 2                     // collabsim -workers, sized for nproc = 2
	maxLateP95   = 5 * time.Millisecond  // generator lateness above this invalidates the run
)

// workload is one sweep-then-serve session: which variant of each of the
// repo's two user journeys it runs. Why each was chosen is in BENCHMARK.json.
type workload struct {
	Name string

	// Sweep journey: the collabsim arguments after "-workers 2 -seed S -csv DIR",
	// and the shape its CSVs must have.
	Sweep       []string
	Fig4        bool // CSVs carry a rising altruistic and a falling irrational series
	SweepCSVs   int
	SweepSeries int
	SweepRows   int
	SweepPoints int  // engine runs behind the figure (chains × points)
	WarmChains  bool // the in-process chain replay restores + burns in instead of training cold

	// Serving journey.
	Peers     int
	Edges     int     // preloaded edges
	Churn     bool    // writes create and delete edges (structural) instead of adding to live ones
	BatchRate float64 // write batches per second
	BatchSize int     // events per batch
	ReadRate  float64 // mixed reads per second on the second connection; 0 = the prober only
}

var workloads = []workload{
	{
		Name:  "warm_steady",
		Sweep: []string{"-fig", "4", "-scale", "paper", "-warm"},
		Fig4:  true, SweepCSVs: 2, SweepSeries: 2, SweepRows: 9, SweepPoints: 90, WarmChains: true,
		Peers: 5000, Edges: 100_000, BatchRate: 300, BatchSize: 32,
	},
	{
		Name:  "cold_churn",
		Sweep: []string{"-fig", "4", "-scale", "paper"},
		Fig4:  true, SweepCSVs: 2, SweepSeries: 2, SweepRows: 9, SweepPoints: 90,
		Peers: 20000, Edges: 600_000, Churn: true, BatchRate: 100, BatchSize: 32,
	},
	{
		Name:      "scheme_reads",
		Sweep:     []string{"-ablation", "scheme", "-scale", "paper"},
		SweepCSVs: 1, SweepSeries: 5, SweepRows: 2, SweepPoints: 25,
		Peers: 20000, Edges: 400_000, BatchRate: 20, BatchSize: 8, ReadRate: 1000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
