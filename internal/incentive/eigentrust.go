package incentive

import (
	"fmt"
	"time"

	"collabnet/internal/core"
	"collabnet/internal/reputation"
)

// GlobalTrustConfig parameterizes the EigenTrust-backed incentive scheme.
type GlobalTrustConfig struct {
	// RefreshEvery is the number of simulation steps between global-trust
	// recomputations (the gossip/aggregation cadence the paper's Section
	// II-C systems batch their updates at). The trust graph keeps
	// accumulating every step; only the eigenvector solve is batched.
	RefreshEvery int
	// Floor is the uniform allocation floor (as a multiple of 1/n) that
	// keeps newcomers with no global trust from starving.
	Floor float64
	// Trust configures the EigenTrust computation itself.
	Trust reputation.EigenTrustConfig
	// Concurrent backs the scheme with the epoch-swapped concurrent trust
	// store (reputation.ConcurrentGraph) instead of the serial LogGraph:
	// transfers enqueue on sharded ingest lanes, refreshes publish immutable
	// epochs and trust snapshots, and external observers read both without
	// locks. The scheme's own results are bit-identical either way (the
	// differential test pins this) — the switch only changes who else may
	// read the store while the simulation runs.
	Concurrent bool
	// Shards is the ingest shard count when Concurrent is set (0 = default).
	Shards int
}

// DefaultGlobalTrustConfig returns the configuration used by the
// reproduction's experiments.
func DefaultGlobalTrustConfig() GlobalTrustConfig {
	return GlobalTrustConfig{
		RefreshEvery: 10,
		Floor:        0.05,
		Trust:        reputation.DefaultEigenTrust(),
	}
}

// GlobalTrust is the EigenTrust global-reputation incentive scheme of the
// related-work taxonomy (Section II-C): every delivered transfer becomes a
// local-trust statement from the downloader toward the source, the global
// trust vector is the damped principal eigenvector of the normalized
// local-trust matrix, and a source allocates its bandwidth in proportion to
// its downloaders' global trust. Unlike tit-for-tat, credit propagates
// through the trust graph, so peers without direct relations still
// differentiate — the remedy Kamvar et al. propose for free-riding.
//
// The eigenvector is recomputed at most every RefreshEvery steps through a
// persistent reputation.EigenTrustWorkspace, so steady-state recomputation
// reuses the CSR matrix and iteration buffers instead of reallocating them
// (the sparsity pattern stabilizes once the download mesh has formed, after
// which each refresh is a value-only renormalization plus O(nnz)
// iterations).
//
// The local-trust store is the edge-log reputation.LogGraph: RecordTransfer
// is an O(1) log append, and the scheme drives the log's compaction from
// its own batched refresh cadence — each eigenvector solve compacts the
// tail accumulated since the previous refresh and, when the sparsity
// pattern is stable, refreshes the CSR with a value-only copy instead of
// rebuilding the adjacency from per-row maps. Results are bit-identical to
// a map-backed graph (the reputation differential suite pins this).
type GlobalTrust struct {
	cfg GlobalTrustConfig
	n   int
	// store is the local-trust store every mutation goes through — the
	// serial LogGraph, or the ConcurrentGraph when cfg.Concurrent is set.
	store reputation.Graph
	log   *reputation.LogGraph        // non-nil in serial mode
	cg    *reputation.ConcurrentGraph // non-nil in concurrent mode
	ws    *reputation.EigenTrustWorkspace

	trust []float64 // latest global trust vector (distribution over peers)
	score []float64 // squashed per-peer observable in [0,1)

	dirty        bool // graph changed since the last solve
	sinceRefresh int
	// lastSolveSeq is the concurrent-store epoch sequence the last solve ran
	// at (0 in serial mode) — the staleness watermark RefreshIfStale
	// compares the published epoch against.
	lastSolveSeq uint64

	// solved records that at least one eigenvector solve (or state load)
	// produced the current vector — the guard that lets recompute skip
	// entirely when nothing changed. The skip decision depends only on
	// snapshot-restored state (solved, dirty, store staleness), never on
	// buffer identity, so an engine and its restored twin always make the
	// same decision.
	solved bool

	lastSolve     SolveInfo
	warmSolves    uint64
	coldSolves    uint64
	skippedSolves uint64
}

// SolveInfo describes what the most recent recompute did: the workspace's
// solve statistics plus the refresh wall time, or a skip record when the
// store had not changed since the last solve (zero iterations, zero work).
type SolveInfo struct {
	Stats    reputation.SolveStats
	Skipped  bool
	Duration time.Duration
}

// LastSolve returns what the most recent recompute did. Zero-valued before
// the first solve (which construction always runs).
func (g *GlobalTrust) LastSolve() SolveInfo { return g.lastSolve }

// SolveCounts returns the cumulative number of warm, cold, and skipped
// recomputes — the serving plane's observability counters.
func (g *GlobalTrust) SolveCounts() (warm, cold, skipped uint64) {
	return g.warmSolves, g.coldSolves, g.skippedSolves
}

// NewGlobalTrust builds the scheme for n peers.
func NewGlobalTrust(n int, cfg GlobalTrustConfig) (*GlobalTrust, error) {
	if n <= 0 {
		return nil, fmt.Errorf("incentive: GlobalTrust needs n > 0, got %d", n)
	}
	if cfg.RefreshEvery <= 0 {
		return nil, fmt.Errorf("incentive: RefreshEvery must be > 0, got %d", cfg.RefreshEvery)
	}
	if cfg.Floor < 0 {
		return nil, fmt.Errorf("incentive: Floor must be >= 0, got %v", cfg.Floor)
	}
	g := &GlobalTrust{
		cfg:   cfg,
		n:     n,
		ws:    reputation.NewEigenTrustWorkspace(),
		trust: make([]float64, n),
		score: make([]float64, n),
	}
	if cfg.Concurrent {
		cg, err := reputation.NewConcurrentGraph(n, cfg.Shards)
		if err != nil {
			return nil, err
		}
		g.cg, g.store = cg, cg
	} else {
		log, err := reputation.NewLogGraph(n)
		if err != nil {
			return nil, err
		}
		g.log, g.store = log, log
	}
	// The initial solve doubles as configuration validation (damping,
	// epsilon, pre-trusted range) and yields the uniform starting vector.
	if err := g.recompute(); err != nil {
		return nil, err
	}
	return g, nil
}

// Trust returns peer's current global trust (the distribution component).
func (g *GlobalTrust) Trust(peer int) float64 {
	if peer < 0 || peer >= g.n {
		return 0
	}
	return g.trust[peer]
}

// Graph exposes the local-trust graph (for metrics and tests).
func (g *GlobalTrust) Graph() reputation.Graph { return g.store }

// ConcurrentStore returns the concurrent trust store backing the scheme, or
// nil when the scheme runs on the serial LogGraph. External observers use it
// for lock-free epoch reads and trust snapshots while the simulation writes.
func (g *GlobalTrust) ConcurrentStore() *reputation.ConcurrentGraph { return g.cg }

// recompute solves for the global trust vector through the reusable
// workspace and refreshes the squashed observables. The workspace's CSR
// refresh compacts the edge log first, so the scheme's refresh cadence is
// also the log's compaction cadence.
func (g *GlobalTrust) recompute() error {
	if g.solved && !g.Stale() {
		// Nothing landed since the last solve: the vector is already the
		// fixed point of the current store. Zero iterations, zero refresh
		// work — the cheapest possible refresh.
		g.skippedSolves++
		g.lastSolve = SolveInfo{Skipped: true}
		g.sinceRefresh = 0
		return nil
	}
	start := time.Now()
	var tv []float64
	var err error
	var seq uint64
	if g.cg != nil {
		// Concurrent mode: solve against the exact merged log under the
		// store's maintenance lock — the workspace's CSR delta paths
		// still apply because the underlying LogGraph pointer is
		// stable — while lock-free readers keep serving the previous epoch.
		seq = g.cg.Exclusive(func(lg *reputation.LogGraph) {
			tv, err = g.ws.Compute(lg, g.cfg.Trust)
		})
		g.lastSolveSeq = seq
	} else {
		tv, err = g.ws.Compute(g.log, g.cfg.Trust)
	}
	if err != nil {
		return err
	}
	copy(g.trust, tv) // tv is workspace-owned; keep our own stable copy
	for i, t := range g.trust {
		// n·t is 1 at the uniform distribution; the squash maps it into
		// [0,1) with 0.5 at uniform, monotone in trust.
		nt := float64(g.n) * t
		g.score[i] = nt / (nt + 1)
	}
	if g.cg != nil {
		// Publish the refreshed vector as an immutable snapshot for
		// lock-free observers, stamped with the exact epoch Exclusive
		// published for this solve — not the current epoch, which a
		// concurrent Flush may already have advanced past it.
		g.cg.PublishTrustAt(seq, g.trust)
	}
	stats := g.ws.LastStats()
	if stats.Warm {
		g.warmSolves++
	} else {
		g.coldSolves++
	}
	g.lastSolve = SolveInfo{Stats: stats, Duration: time.Since(start)}
	g.solved = true
	g.dirty = false
	g.sinceRefresh = 0
	return nil
}

// Name implements Scheme.
func (g *GlobalTrust) Name() string { return "eigentrust" }

// Allocate implements Scheme: weight_d = Floor/n + globaltrust_d, normalized
// in the caller's shares buffer.
func (g *GlobalTrust) Allocate(_ int, downloaders []int, shares []float64) {
	floor := g.cfg.Floor / float64(g.n)
	for i, d := range downloaders {
		shares[i] = floor + g.Trust(d)
	}
	core.NormalizeShares(shares)
}

// CanEdit implements Scheme: global trust carries no edit gate.
func (g *GlobalTrust) CanEdit(int) bool { return true }

// CanVote implements Scheme.
func (g *GlobalTrust) CanVote(int) bool { return true }

// VoteWeight implements Scheme: ballots weighted by global trust (plus the
// floor so a fresh network still resolves votes).
func (g *GlobalTrust) VoteWeight(voter int) float64 {
	return g.cfg.Floor/float64(g.n) + g.Trust(voter)
}

// RequiredMajority implements Scheme.
func (g *GlobalTrust) RequiredMajority(int) float64 { return 0.5 }

// RecordSharing implements Scheme (no-op: the agents' observable derives
// entirely from the trust vector, which only transfers move).
func (g *GlobalTrust) RecordSharing(int, float64, float64) {}

// RecordTransfer implements Scheme: a delivered transfer is direct positive
// experience — the downloader's local trust in the source grows by the
// delivered amount (EigenTrust's sat(i,j) counter).
func (g *GlobalTrust) RecordTransfer(downloader, source int, amount float64) {
	if amount <= 0 {
		return
	}
	if err := g.store.AddTrust(downloader, source, amount); err != nil {
		return
	}
	if downloader != source {
		g.dirty = true
	}
}

// RecordVoteOutcome implements Scheme (editing has no pairwise bandwidth
// counterpart in the trust graph).
func (g *GlobalTrust) RecordVoteOutcome(int, bool) {}

// RecordEditOutcome implements Scheme.
func (g *GlobalTrust) RecordEditOutcome(int, bool) {}

// EndStep implements Scheme: re-solve the eigenvector once the refresh
// cadence elapses and the graph actually changed.
func (g *GlobalTrust) EndStep() {
	g.sinceRefresh++
	if g.dirty && g.sinceRefresh >= g.cfg.RefreshEvery {
		// The configuration was validated at construction, so the solve
		// cannot fail.
		if err := g.recompute(); err != nil {
			panic(err)
		}
	}
}

// Reset implements Scheme: all accumulated trust is forgotten and the
// vector returns to the pre-trust distribution. The warm-start state is
// forgotten with it — the post-Reset solve runs cold, so a reset scheme is
// bit-equivalent to a freshly constructed one regardless of how many solves
// preceded the reset.
func (g *GlobalTrust) Reset() {
	g.store.Clear()
	g.ws.ResetWarm()
	g.dirty = true // Clear bypasses the statement path; never skip this solve
	if err := g.recompute(); err != nil {
		panic(err)
	}
}

// ResetPeer implements Scheme: every trust edge the peer is part of — its
// outgoing row and all incoming edges — is removed in place, and the trust
// vector is recomputed immediately so the fresh identity observes (and is
// observed at) the pre-trust distribution from its first step. The row
// clear and the recompute both run through reusable buffers, keeping the
// churn path allocation-free in steady state.
func (g *GlobalTrust) ResetPeer(peer int) {
	if peer < 0 || peer >= g.n {
		return
	}
	if err := g.store.ClearPeer(peer); err != nil {
		return
	}
	// Mark dirty unconditionally — whether ClearPeer actually removed edges
	// is store state, not call-sequence state, and the recompute skip must
	// make the same decision in an engine and its restored twin.
	g.dirty = true
	if err := g.recompute(); err != nil {
		panic(err)
	}
}

// Refresh forces an immediate eigenvector recompute regardless of the
// cadence — used by the scenario instrumentation and the differential tests
// to observe the vector at a deterministic point instead of waiting out
// RefreshEvery.
func (g *GlobalTrust) Refresh() {
	if err := g.recompute(); err != nil {
		panic(err)
	}
}

// RefreshNow is Refresh for long-running callers: it recomputes
// unconditionally and returns the solve error instead of panicking — the
// serving daemon's forced-refresh hook, where a bad configuration or store
// state should surface as a 5xx, not a crash.
func (g *GlobalTrust) RefreshNow() error { return g.recompute() }

// Stale reports whether trust statements have landed since the last solve,
// so the published vector no longer reflects the store. In concurrent mode
// that covers statements written around the scheme (directly onto the
// ConcurrentGraph by a serving ingest plane): anything still queued on the
// ingest shards, or folded into an epoch published after the last solve,
// counts as staleness alongside the scheme's own dirty flag.
func (g *GlobalTrust) Stale() bool {
	if g.dirty {
		return true
	}
	if g.cg != nil {
		st := g.cg.Stats()
		return st.Pending > 0 || st.Epoch > g.lastSolveSeq
	}
	return false
}

// RefreshIfStale recomputes only when Stale reports pending work, returning
// whether a solve ran — the hook a serving refresh loop calls when it wakes,
// so a wake that finds nothing new skips the O(nnz) power iteration
// entirely.
func (g *GlobalTrust) RefreshIfStale() (bool, error) {
	if !g.Stale() {
		return false, nil
	}
	if err := g.recompute(); err != nil {
		return false, err
	}
	return true, nil
}

// InjectTrust records a raw local-trust statement from one peer toward
// another, bypassing any transfer — the fake-report attack surface the
// collusion scenarios exercise: clique members assert trust in each other
// without ever delivering bandwidth. Invalid edges (out of range, self,
// non-positive) are ignored, mirroring AddTrust.
func (g *GlobalTrust) InjectTrust(from, to int, w float64) {
	if err := g.store.AddTrust(from, to, w); err != nil {
		return
	}
	if from != to && w > 0 {
		g.dirty = true
	}
}

// SharingScore implements Scheme: the squashed global trust, the agents'
// observable state.
func (g *GlobalTrust) SharingScore(peer int) float64 {
	if peer < 0 || peer >= g.n {
		return 0
	}
	return g.score[peer]
}

// EditingScore implements Scheme: global trust is resource-blind, so the
// same observable serves both dimensions.
func (g *GlobalTrust) EditingScore(peer int) float64 { return g.SharingScore(peer) }

var _ Scheme = (*GlobalTrust)(nil)
