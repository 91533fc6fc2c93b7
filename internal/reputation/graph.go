// Package reputation implements the reputation-management substrate the
// paper assumes to exist ("The existence of a mechanism to safely propagate
// reputation values in a P2P network is assumed", Section I), plus the two
// propagation algorithms its related work discusses (Section II-C): the
// EigenTrust algorithm of Kamvar et al. and the maximum-flow trust metric of
// Feldman et al. It also provides a gossip protocol that disseminates
// reputation values with tunable fanout.
//
// # Sparse EigenTrust
//
// The normalized local-trust matrix C is held once, in CSR (compressed
// sparse row) form: the values live destination-major (the transpose),
// where the power iteration is an O(nnz) gather — every output component is
// one contiguous dot product — and the source-major side keeps only its
// sparsity pattern, the thing a refresh diffs against. 16 bytes an edge;
// an entry's slot is found by binary search in its destination row. See the
// CSR type for the exact layout and the no-sort construction.
//
// # Workspace reuse
//
// Callers that recompute trust repeatedly over an evolving graph hold an
// EigenTrustWorkspace. Its contract: the CSR is refreshed in place —
// values, and pattern too — while the delta is small, and built into the
// same buffers otherwise; iteration vectors are reused across calls; the
// returned slice is owned by the workspace and valid until the next call.
// In steady state, Compute performs zero allocations.
//
// # Incremental recomputation
//
// Refresh cost is proportional to churn, not n, at two layers. First,
// LogGraph remembers which source rows its uncompacted tail touched, and
// CSR.Refresh takes one of three paths. Values only (pattern generation
// unchanged): the dirty rows are renormalized from the log's raw weights.
// Structural patch (pattern generation moved): the dirty rows are diffed
// against the stored forward pattern, the vanished entries are squeezed out
// of the transposed arrays and the new ones opened in place, and the same
// rows renormalized. Build (one count, one fused scatter-and-normalize over
// the whole log): a first use, a consumer that missed a dirty span — a
// generation counter detects a second CSR draining the same log, and
// ClearPeer, which strips a column from rows it does not mark, bumps it
// too — and a delta of more than n/8 rows, where one slot search per entry
// of the delta stops being cheaper than one sequential pass over the matrix
// (bulk loads; simulation steps that touch every agent). Row normalization
// is row-local and an entry never changes order relative to the others, so
// all three leave the arrays bit-identical to a fresh build. Second, the
// workspace warm-starts each solve from its previous eigenvector. The
// power-iteration map contracts in L1 with factor 1−Damping, so any two
// results stopped at Epsilon agree within 2·Epsilon/Damping in L1
// regardless of starting point — the bound the warm-vs-cold differential
// tests pin. EigenTrustConfig.ColdStart restores the classic pre-trust
// start bit-for-bit, and LastStats reports what each solve did
// (iterations, converged, warm, refresh path).
//
// # Graph storage
//
// Two implementations of the Graph interface hold the local-trust
// statements. TrustGraph is the map-backed executable reference: one
// map[int]float64 per row, simple and obviously correct, but it has no
// refresh path — every CSR refresh folds its n hash maps into a scratch
// LogGraph and builds from that — and the per-row buckets dominate memory
// at large n. LogGraph is the production store on the road to the million-peer
// target: writes append to an edge log, reads merge the last compacted CSR
// adjacency with the small uncompacted tail, and a deterministic
// counting-scatter compaction (log-size watermark or explicit Compact)
// folds the tail back into the CSR — no sorting, no maps, no per-edge
// allocation in steady state. A randomized differential test and the
// graph-differential fuzz target pin the two implementations to identical
// observable behavior over interleaved add/set/clear/compact/query
// sequences.
//
// # Concurrent reads (two-epoch model)
//
// ConcurrentGraph makes the LogGraph safe for many readers under a live
// writer with lock-free reads. The division of labor:
//
//   - Readers pin: Acquire loads the current-epoch pointer, increments the
//     epoch's reader count, and re-validates the pointer (rolling back and
//     retrying if a publish swapped it in between). No mutex, no
//     allocation, no waiting — a reader never blocks other readers, and a
//     held epoch never delays enqueues or the next publish. Holding one
//     indefinitely is still not free: the second publish after the pin
//     must retire the pinned buffer and parks until the reader releases.
//     Writers never publish, so a long-pinned epoch can stall a maintenance
//     call but never an enqueue.
//   - The publisher swaps: whoever runs maintenance (Flush, AppendEdges,
//     ClearPeer, Clear, LoadEdges, Exclusive) drains the sharded
//     ingest queues into the log in shard order, compacts, copies the CSR
//     arrays into the spare buffer, and atomically swaps it in as the new
//     current epoch.
//   - The publisher also retires: exactly two buffers exist, and before
//     overwriting the spare the publisher waits — parked on a drain
//     signal, not spinning — until the readers still pinned on it from
//     before the previous swap have released. Readers never wait; only the
//     publisher can, and only for the straggler readers of the buffer it
//     wants to reuse.
//
// The serial-reference guarantee carries over: compaction folds the tail
// row by row, a source's statements stay in order on its ingest shard, and
// shards drain in shard order, so any concurrent schedule preserving
// per-source statement order yields compacted arrays — and EigenTrust
// vectors — bit-identical to a serial LogGraph replaying the same
// per-source sequences. Trust vectors computed at a refresh are published
// as immutable TrustSnapshot values readers grab with one atomic load.
//
// # One matrix, one loop, and the sharded solver that was removed
//
// EigenTrust is one normalized matrix (the CSR), one gather over its
// transposed arrays, and one power-iteration loop (EigenTrustWorkspace).
// A destination-range sharded solver was removed because nothing but a
// diagnostic called it and, at n = 10k on two cores, eight shards ran 1.5×
// slower than this loop; commit 637773b adds it and f34988e reshapes it
// into windows of this CSR, the two versions to restore from. Its design,
// for a multi-process solver that needs it back: shard s of K owns
// destinations [s·n/K, (s+1)·n/K), a contiguous window of the
// destination-major transposed CSR; each round every shard gathers its
// window from a full copy of t and sends it to the K−1 other shards and a
// combiner, an all-to-all exchange of 8·n·K·(1+rounds) bytes per solve
// (counting the start-vector broadcast); per-link send buffers are
// double-buffered by round parity, since a sender can run at most one
// round ahead of a slow receiver; and the combiner assembles the full next
// vector, computes the L1 delta serially in index order and broadcasts the
// stop decision. That last rule kept the sharded vectors and round counts
// bit-identical to the serial ones for every K: summing per-shard partial
// deltas would regroup the float additions and could flip the Epsilon
// test.
//
// # Determinism
//
// EigenTrust, EigenTrustDense and EigenTrustWorkspace.Compute return
// bit-identical vectors for the same graph, configuration and start
// vector: each component's accumulation order is fixed by the CSR layout
// (sources ascending) rather than by scheduling or map iteration order,
// row normalization sums entries in ascending column order, and the
// dangling, convergence and renormalization sums run serially in index
// order.
// Because normalization always sums rows in ascending column order, the
// vectors are also bit-identical between the map-backed and the edge-log
// graph, and MaxFlow canonicalizes its input through AppendEdges so its
// augmenting order — and therefore its flow values — cannot depend on map
// iteration order either.
package reputation

import (
	"fmt"
	"sort"
)

// Graph is the trust-store interface shared by the map-backed TrustGraph
// (the executable reference) and the edge-log LogGraph (the scalable
// store). All implementations agree on semantics: self-trust is ignored,
// negative trust clamps to zero, SetTrust with zero removes the edge, and
// AppendEdges emits the canonical ascending (From, To) edge list.
type Graph interface {
	// Len returns the number of peers.
	Len() int
	// Trust returns the local trust of from in to (0 when absent).
	Trust(from, to int) float64
	// OutDegree returns the number of peers i directly trusts.
	OutDegree(i int) int
	// OutEdges calls fn for every outgoing edge of peer i. The visiting
	// order is implementation-defined (but deterministic for LogGraph); fn
	// must not mutate the graph.
	OutEdges(i int, fn func(to int, w float64))
	// SetTrust sets the local trust of from in to.
	SetTrust(from, to int, w float64) error
	// AddTrust accumulates w onto the existing local trust of from in to.
	AddTrust(from, to int, w float64) error
	// AppendEdges appends every edge in ascending (From, To) order to dst
	// and returns the extended slice.
	AppendEdges(dst []Edge) []Edge
	// LoadEdges replaces the graph's content with the given edges,
	// accumulating duplicates like repeated AddTrust calls.
	LoadEdges(edges []Edge) error
	// Clear removes every trust statement, keeping the peer count.
	Clear()
	// ClearPeer removes every trust statement peer i is part of — its whole
	// outgoing row and every incoming edge — leaving the slot empty for
	// reuse under a fresh identity. Out-of-range ids return an error.
	ClearPeer(i int) error
}

// TrustGraph is a directed weighted graph of local trust statements:
// Weight(i, j) is how much peer i trusts peer j, derived from i's direct
// experience. It is the common input to EigenTrust and MaxFlow.
//
// TrustGraph is the map-backed executable reference implementation of
// Graph; large or churn-heavy graphs should use LogGraph, which the
// differential suite pins to identical behavior.
type TrustGraph struct {
	n     int
	edges []map[int]float64 // edges[i][j] = local trust of i in j
}

// NewTrustGraph creates an empty trust graph over n peers.
func NewTrustGraph(n int) (*TrustGraph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("reputation: graph needs n > 0, got %d", n)
	}
	g := &TrustGraph{n: n, edges: make([]map[int]float64, n)}
	for i := range g.edges {
		g.edges[i] = make(map[int]float64)
	}
	return g, nil
}

// Len returns the number of peers.
func (g *TrustGraph) Len() int { return g.n }

// SetTrust sets the local trust of from in to. Negative trust is clamped to
// zero (EigenTrust's normalization discards negative evidence); self-trust
// is ignored. Out-of-range ids return an error.
func (g *TrustGraph) SetTrust(from, to int, w float64) error {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return fmt.Errorf("reputation: edge (%d,%d) out of range [0,%d)", from, to, g.n)
	}
	if from == to {
		return nil
	}
	if w < 0 {
		w = 0
	}
	if w == 0 {
		delete(g.edges[from], to)
		return nil
	}
	g.edges[from][to] = w
	return nil
}

// AddTrust accumulates w onto the existing local trust of from in to.
func (g *TrustGraph) AddTrust(from, to int, w float64) error {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return fmt.Errorf("reputation: edge (%d,%d) out of range [0,%d)", from, to, g.n)
	}
	if from == to || w <= 0 {
		return nil
	}
	g.edges[from][to] += w
	return nil
}

// Trust returns the local trust of from in to (0 when absent).
func (g *TrustGraph) Trust(from, to int) float64 {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return 0
	}
	return g.edges[from][to]
}

// OutEdges calls fn for every outgoing edge of peer i in unspecified order.
func (g *TrustGraph) OutEdges(i int, fn func(to int, w float64)) {
	if i < 0 || i >= g.n {
		return
	}
	for to, w := range g.edges[i] {
		fn(to, w)
	}
}

// OutDegree returns the number of peers i directly trusts.
func (g *TrustGraph) OutDegree(i int) int {
	if i < 0 || i >= g.n {
		return 0
	}
	return len(g.edges[i])
}

// NormalizedRow returns peer i's local trust distribution c_ij = w_ij / Σw_i,
// the row of the EigenTrust matrix C. A peer with no outgoing trust returns
// nil (EigenTrust redistributes such rows to the pre-trusted set).
func (g *TrustGraph) NormalizedRow(i int) map[int]float64 {
	if i < 0 || i >= g.n || len(g.edges[i]) == 0 {
		return nil
	}
	sum := 0.0
	for _, w := range g.edges[i] {
		sum += w
	}
	if sum <= 0 {
		return nil
	}
	row := make(map[int]float64, len(g.edges[i]))
	for j, w := range g.edges[i] {
		row[j] = w / sum
	}
	return row
}

// Edge is one directed local-trust statement — the unit of graph snapshots
// and of the planned append-only edge log.
type Edge struct {
	From int
	To   int
	W    float64
}

// AppendEdges appends every edge of the graph to dst in ascending (From, To)
// order and returns the extended slice. The deterministic order makes
// snapshots comparable byte-for-byte regardless of map iteration order.
func (g *TrustGraph) AppendEdges(dst []Edge) []Edge {
	var cols []int
	for from, row := range g.edges {
		if len(row) == 0 {
			continue
		}
		cols = cols[:0]
		for to := range row {
			cols = append(cols, to)
		}
		sort.Ints(cols)
		for _, to := range cols {
			dst = append(dst, Edge{From: from, To: to, W: row[to]})
		}
	}
	return dst
}

// LoadEdges replaces the graph's content with the given edges (accumulating
// duplicates, like repeated AddTrust calls). Row maps are kept, so loading a
// snapshot whose edges the graph has already seen does not grow buckets.
func (g *TrustGraph) LoadEdges(edges []Edge) error {
	g.Clear()
	for _, e := range edges {
		if err := g.AddTrust(e.From, e.To, e.W); err != nil {
			return err
		}
	}
	return nil
}

// Clear removes every trust statement in place, keeping the peer count and
// the per-row maps (and their buckets) for reuse.
func (g *TrustGraph) Clear() {
	for i := range g.edges {
		clear(g.edges[i])
	}
}

// ClearPeer removes peer i's outgoing row and every incoming edge in place,
// keeping the row maps for reuse — the identity-churn primitive: a peer that
// rejoins under slot i starts with no trust history in either direction.
func (g *TrustGraph) ClearPeer(i int) error {
	if i < 0 || i >= g.n {
		return fmt.Errorf("reputation: peer %d out of range [0,%d)", i, g.n)
	}
	clear(g.edges[i])
	for j := range g.edges {
		delete(g.edges[j], i)
	}
	return nil
}

// Clone returns a deep copy of the graph.
func (g *TrustGraph) Clone() *TrustGraph {
	cp, _ := NewTrustGraph(g.n)
	for i, row := range g.edges {
		for j, w := range row {
			cp.edges[i][j] = w
		}
	}
	return cp
}

// compile-time interface checks: both graph implementations satisfy Graph.
var (
	_ Graph = (*TrustGraph)(nil)
	_ Graph = (*LogGraph)(nil)
)
