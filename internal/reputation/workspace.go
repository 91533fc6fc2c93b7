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

// roundExecutor is what a solver plugs into the shared power iteration: how
// one iterate becomes the next, and who needs to hear whether another round
// follows. The serial workspace gathers inline and tells nobody; the
// sharded workspace collects the K shards' slices and broadcasts the
// decision to them.
type roundExecutor interface {
	// step writes one power iteration of src into dst.
	step(dst, src []float64)
	// decide announces whether another round follows this one.
	decide(cont bool)
}

// powerIter is the EigenTrust power iteration itself — the one loop both
// workspaces embed. It owns everything about a solve that does not depend
// on where the gather runs: the pre-trust distribution, the start-vector
// choice, the convergence test, the final renormalization, the warm-start
// state, and the stats. All sums (L1 delta, renormalization) run serially
// in index order at this single site, so the stopping decision — and with
// it the iteration count and the result bits — cannot depend on the
// executor.
type powerIter struct {
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

// LastStats returns what the most recent Compute call did. Zero-valued
// before the first solve.
func (it *powerIter) LastStats() SolveStats { return it.stats }

// SeedWarm installs vec as the previous eigenvector, exactly as if the
// workspace had just solved and produced it. Snapshot restore uses this so
// a restored engine's next warm-started solve runs bit-identically to the
// original's — both start from the same bits.
func (it *powerIter) SeedWarm(vec []float64) {
	it.prev = growFloats(it.prev, len(vec))
	copy(it.prev, vec)
	it.prevN = len(vec)
}

// ResetWarm discards the warm-start state; the next solve runs cold.
func (it *powerIter) ResetWarm() { it.prevN = 0 }

// begin sizes the vectors for an n-peer solve, fills the pre-trust
// distribution, and loads the start vector into it.t: the previous
// eigenvector when warm, pre-trust otherwise. cfg must already be validated.
func (it *powerIter) begin(n int, cfg EigenTrustConfig, refresh RefreshStats) {
	it.p = growFloats(it.p, n)
	it.t = growFloats(it.t, n)
	it.next = growFloats(it.next, n)
	cfg.fillPreTrust(it.p)
	warm := !cfg.ColdStart && it.prevN == n
	if warm {
		copy(it.t, it.prev)
	} else {
		copy(it.t, it.p)
	}
	it.stats = SolveStats{Warm: warm, Refresh: refresh}
}

// iterate runs rounds through ex until the L1 delta drops below Epsilon or
// MaxIter rounds have run, then renormalizes, records the warm-start state,
// and returns the result (owned by the iterator, valid until the next
// begin).
func (it *powerIter) iterate(cfg EigenTrustConfig, ex roundExecutor) []float64 {
	n := len(it.t)
	for {
		ex.step(it.next, it.t)
		delta := 0.0
		for j := 0; j < n; j++ {
			delta += math.Abs(it.next[j] - it.t[j])
		}
		it.t, it.next = it.next, it.t
		it.stats.Iterations++
		it.stats.Converged = delta < cfg.Epsilon
		cont := !it.stats.Converged && it.stats.Iterations < cfg.MaxIter
		ex.decide(cont)
		if !cont {
			break
		}
	}
	// Final renormalization sheds the few-ulp drift that row-normalization
	// rounding accumulates over the iterations, so the result sums to 1 to
	// near machine precision.
	sum := 0.0
	for _, x := range it.t {
		sum += x
	}
	if sum > 0 {
		for j := range it.t {
			it.t[j] /= sum
		}
	}
	it.prev = growFloats(it.prev, n)
	copy(it.prev, it.t)
	it.prevN = n
	return it.t
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
// It is the K=1 case of the sharded solver run inline: a one-slice
// ShardPlan whose single slice spans the whole transposed CSR, gathered on
// the caller's goroutine by the same kernel and driven by the same loop.
//
// Determinism guarantee: the returned vector is a pure function of the
// graph, the configuration, and the warm-start state — identical across
// runs, identical to ShardedWorkspace at every shard count, and (cold)
// identical to the dense reference EigenTrustDense. This holds because
// every output component is a gather over the transposed CSR whose
// accumulation order is fixed by the layout, the dangling and convergence
// sums run serially in index order, and the teleportation arithmetic is the
// same expression everywhere.
//
// The returned slice is owned by the workspace and valid until the next
// Compute call; callers that need to retain it must copy. A workspace is
// not safe for concurrent use.
type EigenTrustWorkspace struct {
	powerIter
	plan    *ShardPlan
	damping float64 // the current solve's cfg.Damping, read by step
}

// NewEigenTrustWorkspace returns an empty workspace; buffers are sized on
// first use and grown only when the graph outgrows them.
func NewEigenTrustWorkspace() *EigenTrustWorkspace {
	return &EigenTrustWorkspace{plan: newShardPlan(1)}
}

// CSR exposes the workspace's current matrix for inspection and tests.
// Read-only: rebuilding it directly would leave the plan's slice view stale.
func (ws *EigenTrustWorkspace) CSR() *CSR { return &ws.plan.csr }

// Compute runs the power iteration on g and returns the global trust
// vector. Steady-state calls (same graph size, stable sparsity pattern)
// allocate nothing.
func (ws *EigenTrustWorkspace) Compute(g Graph, cfg EigenTrustConfig) ([]float64, error) {
	n := g.Len()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	ws.plan.Refresh(g)
	ws.begin(n, cfg, ws.plan.LastRefresh())
	ws.damping = cfg.Damping
	return ws.iterate(cfg, ws), nil
}

// step and decide make the workspace its own roundExecutor: the single
// slice gathered inline, and nobody to notify.
func (ws *EigenTrustWorkspace) step(dst, src []float64) {
	sl := ws.plan.Slice(0)
	sl.gather(dst, src, ws.p, ws.damping, sl.danglingMass(src))
}

func (ws *EigenTrustWorkspace) decide(bool) {}
