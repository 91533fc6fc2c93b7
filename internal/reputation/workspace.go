package reputation

import "math"

// SolveStats describes what one Compute call did: how hard the iteration
// worked and which refresh path fed it. It is the observability surface
// threaded up through GlobalTrust and /v1/stats; a solve that ran out of
// iterations without meeting Epsilon reports Converged == false.
type SolveStats struct {
	Iterations int  // power iterations executed (≥ 1)
	Converged  bool // the L1 delta dropped below Epsilon within MaxIter
	Warm       bool // started from the previous eigenvector, not pre-trust
	Refresh    RefreshStats
}

// EigenTrustWorkspace holds everything a repeated EigenTrust computation
// needs — the matrix and the iteration vectors — so that steady-state
// recomputation allocates nothing:
//
//   - The CSR is refreshed in place while the graph's sparsity pattern is
//     stable (the common case when trust merely accumulates on existing
//     edges) and rebuilt into the same buffers when edges appear or vanish.
//   - The pre-trust, iteration, and warm-start vectors are reused across
//     calls.
//
// Determinism guarantee: the returned vector is a pure function of the
// graph, the configuration, and the warm-start state — identical across
// runs and (cold) identical to the dense reference EigenTrustDense. This
// holds because every output component is a gather over the transposed CSR
// whose accumulation order is fixed by the layout, the dangling,
// convergence and renormalization sums run serially in index order, and
// the teleportation arithmetic is the same expression in both solvers.
//
// The returned slice is owned by the workspace and valid until the next
// Compute call; callers that need to retain it must copy. A workspace is
// not safe for concurrent use.
type EigenTrustWorkspace struct {
	csr     CSR
	p       []float64 // pre-trust distribution
	t, next []float64 // iteration vectors (swapped each round)

	// Warm-start state: the previous solve's eigenvector. The next solve
	// starts from it (instead of the pre-trust vector) when prevN matches
	// the graph size and the config does not force ColdStart — same
	// Epsilon, far fewer iterations when the graph changed little.
	prev  []float64
	prevN int

	stats SolveStats // what the most recent solve did
}

// NewEigenTrustWorkspace returns an empty workspace; buffers are sized on
// first use and grown only when the graph outgrows them.
func NewEigenTrustWorkspace() *EigenTrustWorkspace {
	return &EigenTrustWorkspace{}
}

// CSR exposes the workspace's current matrix for inspection and tests.
func (ws *EigenTrustWorkspace) CSR() *CSR { return &ws.csr }

// LastStats returns what the most recent Compute call did. Zero-valued
// before the first solve.
func (ws *EigenTrustWorkspace) LastStats() SolveStats { return ws.stats }

// SeedWarm installs vec as the previous eigenvector, exactly as if the
// workspace had just solved and produced it. Snapshot restore uses this so
// a restored engine's next warm-started solve runs bit-identically to the
// original's — both start from the same bits.
func (ws *EigenTrustWorkspace) SeedWarm(vec []float64) {
	ws.prev = growFloats(ws.prev, len(vec))
	copy(ws.prev, vec)
	ws.prevN = len(vec)
}

// ResetWarm discards the warm-start state; the next solve runs cold.
func (ws *EigenTrustWorkspace) ResetWarm() { ws.prevN = 0 }

// Compute runs the power iteration on g and returns the global trust
// vector. Steady-state calls (same graph size, stable sparsity pattern)
// allocate nothing.
func (ws *EigenTrustWorkspace) Compute(g Graph, cfg EigenTrustConfig) ([]float64, error) {
	n := g.Len()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	ws.csr.Refresh(g)
	ws.p = growFloats(ws.p, n)
	ws.t = growFloats(ws.t, n)
	ws.next = growFloats(ws.next, n)
	cfg.fillPreTrust(ws.p)
	warm := !cfg.ColdStart && ws.prevN == n
	if warm {
		copy(ws.t, ws.prev)
	} else {
		copy(ws.t, ws.p)
	}
	ws.stats = SolveStats{Warm: warm, Refresh: ws.csr.LastRefresh()}

	for {
		ws.csr.gather(ws.next, ws.t, ws.p, cfg.Damping)
		delta := 0.0
		for j := 0; j < n; j++ {
			delta += math.Abs(ws.next[j] - ws.t[j])
		}
		ws.t, ws.next = ws.next, ws.t
		ws.stats.Iterations++
		ws.stats.Converged = delta < cfg.Epsilon
		if ws.stats.Converged || ws.stats.Iterations >= cfg.MaxIter {
			break
		}
	}
	// Final renormalization sheds the few-ulp drift that row-normalization
	// rounding accumulates over the iterations, so the result sums to 1 to
	// near machine precision.
	sum := 0.0
	for _, x := range ws.t {
		sum += x
	}
	if sum > 0 {
		for j := range ws.t {
			ws.t[j] /= sum
		}
	}
	ws.SeedWarm(ws.t)
	return ws.t, nil
}
