package reputation

import "fmt"

// ShardedWorkspace runs the EigenTrust power iteration across K
// destination-range shards that communicate only by message passing — the
// in-process harness for the distributed solve. Each shard is a goroutine
// holding one ShardSlice (its range of the transposed, normalized trust
// matrix) and nothing else of the graph; the caller's goroutine acts as the
// combiner. Goroutines and channels stand in for the network: every
// float64 that crosses a channel is payload a real transport would carry,
// counted in ShardSolveStats.BytesExchanged, and shards never read each
// other's memory — only the immutable shard topology (who owns which
// range) and the buffers handed to them over channels.
//
// Round protocol, per solve:
//
//  1. The combiner refreshes the ShardPlan from the edge log (dirty-row
//     incremental when the sparsity pattern is stable), lets the shared
//     power iteration pick the start vector (previous eigenvector when
//     warm, pre-trust otherwise), and broadcasts it to every shard.
//  2. Each round, every shard computes the dangling mass from its own
//     assembled copy of the full t-vector, gathers its output range, and
//     sends a copy of that slice to each of the other K−1 shards and to
//     the combiner (an all-to-all exchange); it then assembles the next
//     full t-vector from its own slice plus the K−1 received ones.
//  3. The combiner assembles the full next vector from the K slices (its
//     step in the shared loop); the loop computes the L1 delta serially in
//     full index order — the very loop the serial solver runs, so the
//     stopping decision and the round count are bit-identical for every K
//     — and the combiner broadcasts the continue/stop decision. (Summing
//     per-shard partial deltas would regroup the float additions and could
//     flip the stopping decision.)
//  4. After the stop decision the shared loop renormalizes serially in
//     index order and stores the warm-start vector.
//
// Determinism: every output component is one contiguous dot product over a
// slice row whose source order equals the global transposed CSR's, the
// dangling/convergence/renormalization sums run in fixed index order at a
// single site, and the teleportation arithmetic is the same expression as
// the serial gather — so Compute is bit-identical to
// EigenTrustWorkspace.Compute (and, cold, to EigenTrustDense) for every
// shard count.
//
// Buffer reuse mirrors the serial workspace: per-link send buffers are
// double-buffered by round parity (a sender may be a full round ahead of a
// slow receiver, never two — the combiner's round-r decision is only sent
// after every round-r slice arrived, which transitively means every
// round-(r−1) buffer has been consumed), so steady-state solves allocate
// only the per-solve channels. The returned vector is owned by the
// workspace and valid until the next Compute; a ShardedWorkspace is not
// safe for concurrent use.
type ShardedWorkspace struct {
	// powerIter is the combiner: the full-length vectors, the loop, the
	// warm-start state, and LastStats/SeedWarm/ResetWarm — the same
	// iterator, hence the same contract, as EigenTrustWorkspace.
	powerIter
	k    int
	plan *ShardPlan

	shardStats ShardSolveStats

	// Per-shard persistent buffers, indexed by shard.
	tBuf     [][]float64 // shard's assembled full t-vector
	outBuf   [][]float64 // shard's gather output (its own range)
	pBuf     [][]float64 // shard's pre-trust range copy
	startBuf [][]float64 // combiner→shard start-vector copies
	// linkBuf[from][to][parity] is the double-buffered payload for the
	// from→to link; to == k addresses the combiner.
	linkBuf [][][2][]float64
}

// ShardSolveStats describes what one sharded Compute call did: the round
// count and convergence outcome (LastStats in the sharded vocabulary), how
// much payload crossed the simulated network, the per-shard work split, and
// which refresh path fed the plan.
type ShardSolveStats struct {
	Shards    int
	Rounds    int  // power-iteration rounds (== serial Iterations)
	Converged bool // L1 delta dropped below Epsilon within MaxIter
	Warm      bool // started from the previous eigenvector

	// BytesExchanged counts every float64 of t-vector payload that crossed
	// a channel this solve, at 8 bytes each: the start-vector broadcast
	// (K·8n) plus each round's all-to-all slice exchange (8n per
	// destination shard including the combiner, so K·8n per round).
	// Control messages (the one-bit continue/stop decisions) are not
	// counted.
	BytesExchanged int64

	// ShardRows/ShardNNZ give the per-shard split of destinations and of
	// matrix entries — the per-round work each shard performs.
	ShardRows []int
	ShardNNZ  []int

	Refresh RefreshStats
}

// NewShardedWorkspace returns an empty workspace that will solve with k
// shards. k must be at least 1; k larger than the peer count is allowed
// (surplus shards own empty ranges and only relay).
func NewShardedWorkspace(k int) (*ShardedWorkspace, error) {
	if k < 1 {
		return nil, fmt.Errorf("reputation: sharded workspace needs at least 1 shard, got %d", k)
	}
	return &ShardedWorkspace{k: k, plan: newShardPlan(k)}, nil
}

// EigenTrustSharded computes the global trust vector with a fresh k-shard
// workspace (cold, no warm-start state). One-shot convenience; repeated
// solvers should hold a ShardedWorkspace.
func EigenTrustSharded(g *LogGraph, cfg EigenTrustConfig, k int) ([]float64, error) {
	sw, err := NewShardedWorkspace(k)
	if err != nil {
		return nil, err
	}
	return sw.Compute(g, cfg)
}

// ShardStats returns the full sharded stats of the most recent solve. The
// ShardRows/ShardNNZ slices are owned by the workspace and valid until the
// next Compute.
func (sw *ShardedWorkspace) ShardStats() ShardSolveStats { return sw.shardStats }

// shardLinks is the combiner's end of one solve's channels — its
// roundExecutor: a step collects the K shards' output slices, a decision is
// broadcast back to them.
type shardLinks struct {
	plan *ShardPlan
	cmb  []chan []float64 // shard s → combiner: s's output slice
	dec  []chan bool      // combiner → shard s: continue/stop
}

func (l *shardLinks) step(dst, _ []float64) {
	for s, ch := range l.cmb {
		sl := <-ch
		lo := l.plan.slices[s].Lo
		copy(dst[lo:lo+len(sl)], sl)
	}
}

func (l *shardLinks) decide(cont bool) {
	for _, ch := range l.dec {
		ch <- cont
	}
}

// Compute runs the sharded power iteration on g and returns the global
// trust vector, bit-identical to EigenTrustWorkspace.Compute on the same
// graph, configuration, and warm-start state.
func (sw *ShardedWorkspace) Compute(g *LogGraph, cfg EigenTrustConfig) ([]float64, error) {
	n := g.Len()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	k := sw.k
	sw.plan.Refresh(g)
	sw.begin(n, cfg, sw.plan.LastRefresh())
	sw.ensureBuffers(n)

	// Channels are created per solve: no message can survive into a later
	// solve, which keeps the protocol state machine trivially restartable.
	// slCh[from][to] carries from's output slice to shard to; startCh
	// delivers the start vector.
	slCh := make([][]chan []float64, k)
	for a := 0; a < k; a++ {
		slCh[a] = make([]chan []float64, k)
		for b := 0; b < k; b++ {
			if a != b {
				slCh[a][b] = make(chan []float64, 1)
			}
		}
	}
	links := &shardLinks{plan: sw.plan, cmb: make([]chan []float64, k), dec: make([]chan bool, k)}
	startCh := make([]chan []float64, k)
	reports := make(chan int64, k) // each shard's end-of-solve byte count
	for s := 0; s < k; s++ {
		links.cmb[s] = make(chan []float64, 1)
		links.dec[s] = make(chan bool, 1)
		startCh[s] = make(chan []float64, 1)
	}
	for s := 0; s < k; s++ {
		go sw.shardMain(s, cfg.Damping, slCh, links.cmb[s], links.dec[s], startCh[s], reports)
	}

	bytes := int64(0)
	for s := 0; s < k; s++ {
		copy(sw.startBuf[s], sw.t)
		startCh[s] <- sw.startBuf[s]
		bytes += 8 * int64(n)
	}

	tv := sw.iterate(cfg, links)

	// Every shard exits on the stop decision and reports; receiving all K
	// reports is the join — no shard goroutine outlives Compute.
	for i := 0; i < k; i++ {
		bytes += <-reports
	}

	rows := make([]int, k)
	nnz := make([]int, k)
	for s := 0; s < k; s++ {
		rows[s] = sw.plan.slices[s].Rows()
		nnz[s] = sw.plan.slices[s].NNZ()
	}
	sw.shardStats = ShardSolveStats{
		Shards:         k,
		Rounds:         sw.stats.Iterations,
		Converged:      sw.stats.Converged,
		Warm:           sw.stats.Warm,
		BytesExchanged: bytes,
		ShardRows:      rows,
		ShardNNZ:       nnz,
		Refresh:        sw.stats.Refresh,
	}
	return tv, nil
}

// shardMain is one shard's solve loop. It touches only its own slice, its
// own buffers, and the channels; everything else it learns arrives as a
// message. Receives iterate over peers in fixed index order — no select —
// so the protocol itself is deterministic, not just the arithmetic.
func (sw *ShardedWorkspace) shardMain(s int, damping float64, slCh [][]chan []float64, cmb chan []float64, dec chan bool, start chan []float64, reports chan int64) {
	k := sw.k
	sl := &sw.plan.slices[s]
	rows := sl.Rows()
	t := sw.tBuf[s]
	out := sw.outBuf[s]
	p := sw.pBuf[s]
	bytes := int64(0)

	copy(t, <-start)
	parity := 0
	for {
		dm := sl.danglingMass(t)
		sl.gather(out, t, p, damping, dm)
		for to := 0; to < k; to++ {
			if to == s {
				continue
			}
			buf := sw.linkBuf[s][to][parity]
			copy(buf, out)
			slCh[s][to] <- buf
			bytes += 8 * int64(rows)
		}
		cbuf := sw.linkBuf[s][k][parity]
		copy(cbuf, out)
		cmb <- cbuf
		bytes += 8 * int64(rows)

		// Assemble next round's full t: own slice locally, the rest from
		// the wire.
		copy(t[sl.Lo:sl.Hi], out)
		for from := 0; from < k; from++ {
			if from == s {
				continue
			}
			in := <-slCh[from][s]
			lo := sw.plan.slices[from].Lo
			copy(t[lo:lo+len(in)], in)
		}
		if !<-dec {
			break
		}
		parity ^= 1
	}
	reports <- bytes
}

// ensureBuffers (re)sizes every per-shard buffer for an n-peer solve,
// reusing backing arrays, and fills each shard's pre-trust range copy.
func (sw *ShardedWorkspace) ensureBuffers(n int) {
	k := sw.k
	if len(sw.tBuf) != k {
		sw.tBuf = make([][]float64, k)
		sw.outBuf = make([][]float64, k)
		sw.pBuf = make([][]float64, k)
		sw.startBuf = make([][]float64, k)
		sw.linkBuf = make([][][2][]float64, k)
		for s := 0; s < k; s++ {
			sw.linkBuf[s] = make([][2][]float64, k+1)
		}
	}
	for s := 0; s < k; s++ {
		sl := &sw.plan.slices[s]
		rows := sl.Rows()
		sw.tBuf[s] = growFloats(sw.tBuf[s], n)
		sw.outBuf[s] = growFloats(sw.outBuf[s], rows)
		sw.pBuf[s] = growFloats(sw.pBuf[s], rows)
		copy(sw.pBuf[s], sw.p[sl.Lo:sl.Hi])
		sw.startBuf[s] = growFloats(sw.startBuf[s], n)
		for to := 0; to <= k; to++ {
			if to == s {
				continue
			}
			for par := 0; par < 2; par++ {
				sw.linkBuf[s][to][par] = growFloats(sw.linkBuf[s][to][par], rows)
			}
		}
	}
}
