package reputation

import "math"

// CSR is the normalized local-trust matrix C in compressed sparse row form,
// kept in two mirrored layouts:
//
//   - forward (source-major): rowPtr/colIdx/val hold row i's normalized
//     trust c_ij = w_ij/Σ_k w_ik with column indices strictly ascending.
//     This is the layout row-oriented consumers and the differential tests
//     read.
//   - transposed (destination-major): tRowPtr/tColIdx/tVal hold the same
//     entries grouped by destination, with source indices strictly
//     ascending. The power iteration next = C^T·t is a gather over this
//     layout: every output component is one contiguous dot product, so a
//     destination range is a contiguous window of these arrays (what a
//     ShardSlice views) and — because each component's accumulation order
//     is fixed by the layout, not the partition — every shard count yields
//     bit-identical results.
//
// tPos[k] is the transpose slot of forward entry k, so a value-only refresh
// can renormalize both layouts in one pass. dangling lists the rows with no
// outgoing trust (ascending); their walk mass is redistributed analytically
// by the iteration instead of being stored as explicit rows.
//
// Construction never sorts: the forward layout is produced by scattering the
// graph twice (source→transpose→forward), and each scatter preserves the
// ascending order of the outer loop, so both layouts come out sorted in
// O(n + nnz) regardless of the graph's map iteration order. All buffers are
// reused across Rebuild/Refresh calls; once capacities have grown to the
// graph's size, rebuilding allocates nothing.
type CSR struct {
	n int
	// Forward layout.
	rowPtr []int
	colIdx []int32
	val    []float64
	// Transposed layout.
	tRowPtr []int
	tColIdx []int32
	tVal    []float64
	// tPos maps forward entry k to its transpose slot.
	tPos []int
	// dangling rows (no outgoing trust), ascending.
	dangling []int32
	// cur is the scatter-cursor scratch, reused by Rebuild.
	cur []int

	// follow tracks this CSR's refresh position against the edge-log graph
	// it was last built from (pattern and dirty-consumption generations) —
	// the shared plumbing that picks between the rebuild, full-value-copy,
	// and dirty-rows-only paths.
	follow logFollower

	lastRefresh RefreshStats
}

// logFollower tracks one consumer's refresh position against a LogGraph:
// which log it last built from, at which sparsity-pattern generation, and at
// which dirty-row consumption generation. Every CSR holds one, so several
// consumers sharing a log (a serial workspace's CSR, a ShardPlan's) each
// classify their own refresh and report it in RefreshStats instead of
// silently falling back to a full copy.
type logFollower struct {
	src      *LogGraph
	patGen   uint64
	dirtyGen uint64
}

// refreshPath classifies what a refresh against a compacted LogGraph must do
// for a consumer currently sized for n rows.
type refreshPath int

const (
	// refreshRebuild: the sparsity pattern changed, the size changed, or the
	// consumer was built from a different (or no) log — full structural
	// rebuild.
	refreshRebuild refreshPath = iota
	// refreshFullCopy: pattern stable, but another consumer drained a dirty
	// span this one never saw — every row's values must be re-copied.
	refreshFullCopy
	// refreshDirtyOnly: pattern stable and this consumer saw every earlier
	// delta — only the currently-dirty rows need work.
	refreshDirtyOnly
)

// path classifies the refresh g requires. g must already be compacted.
func (f *logFollower) path(g *LogGraph, n int) refreshPath {
	if f.src != g || f.patGen != g.patGen || n != g.n {
		return refreshRebuild
	}
	if f.dirtyGen != g.dirtyGen {
		return refreshFullCopy
	}
	return refreshDirtyOnly
}

// rebuilt records that the consumer has just fully rebuilt from g, which
// subsumes every pending delta.
func (f *logFollower) rebuilt(g *LogGraph) {
	f.src = g
	f.patGen = g.patGen
	g.consumeDirty()
	f.dirtyGen = g.dirtyGen
}

// consumed records that the consumer folded in (or refreshed past) every
// pending dirty row of g.
func (f *logFollower) consumed(g *LogGraph) {
	g.consumeDirty()
	f.dirtyGen = g.dirtyGen
}

// RefreshStats describes what the most recent Rebuild/Refresh call did —
// the observability hook the solver threads up to /v1/stats.
type RefreshStats struct {
	PatternStable bool // value-only path: no structural rebuild was needed
	DirtyOnly     bool // only the dirty rows were copied and renormalized
	RowsTouched   int  // rows renormalized (n on the full paths)
}

// LastRefresh returns what the most recent Rebuild/Refresh call did.
func (c *CSR) LastRefresh() RefreshStats { return c.lastRefresh }

// NewCSR builds the CSR form of g's normalized local-trust matrix.
func NewCSR(g Graph) *CSR {
	c := &CSR{}
	c.Rebuild(g)
	return c
}

// Len returns the number of peers (matrix dimension).
func (c *CSR) Len() int { return c.n }

// NNZ returns the number of stored (positive, normalized) trust entries.
func (c *CSR) NNZ() int { return len(c.val) }

// Dangling returns a copy of the dangling-row list (peers with no outgoing
// trust), ascending.
func (c *CSR) Dangling() []int {
	out := make([]int, len(c.dangling))
	for i, r := range c.dangling {
		out[i] = int(r)
	}
	return out
}

// Dense materializes the normalized matrix as a dense n×n slice-of-rows
// (dangling rows are all-zero). Intended for tests and debugging.
func (c *CSR) Dense() [][]float64 {
	m := make([][]float64, c.n)
	for i := range m {
		m[i] = make([]float64, c.n)
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			m[i][c.colIdx[k]] = c.val[k]
		}
	}
	return m
}

// Row calls fn for every normalized entry of row i in ascending column
// order.
func (c *CSR) Row(i int, fn func(j int, v float64)) {
	if i < 0 || i >= c.n {
		return
	}
	for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
		fn(int(c.colIdx[k]), c.val[k])
	}
}

// Rebuild reconstructs both layouts from g, reusing every buffer whose
// capacity suffices. Rows are normalized with their entries summed in
// ascending column order, so the stored values are bit-reproducible for any
// map iteration order — and identical between the map-backed and the
// edge-log graph. Known implementations dispatch to specialized builds (the
// edge-log graph's compacted adjacency is already in CSR layout, so its
// build is a copy plus one transpose scatter); anything else goes through
// the Graph interface.
func (c *CSR) Rebuild(g Graph) {
	switch t := g.(type) {
	case *TrustGraph:
		c.rebuildFromMap(t)
	case *LogGraph:
		c.rebuildFromLog(t)
	default:
		c.rebuildGeneric(g)
	}
}

// rebuildFromMap is the map-backed build: the original three-pass
// counting-scatter construction reading the row maps directly.
func (c *CSR) rebuildFromMap(g *TrustGraph) {
	c.follow = logFollower{}
	n := g.Len()
	if n > math.MaxInt32 {
		// int32 column indices bound the representation; graphs beyond
		// 2^31 peers are out of scope for this reproduction.
		panic("reputation: CSR supports at most 2^31-1 peers")
	}
	c.n = n
	c.rowPtr = growInts(c.rowPtr, n+1)
	c.tRowPtr = growInts(c.tRowPtr, n+1)
	c.cur = growInts(c.cur, n)
	c.dangling = c.dangling[:0]

	// Pass 1: out-degrees into rowPtr[i+1], in-degrees into tRowPtr[j+1].
	for i := 0; i <= n; i++ {
		c.rowPtr[i] = 0
		c.tRowPtr[i] = 0
	}
	nnz := 0
	for i := 0; i < n; i++ {
		deg := 0
		for j, w := range g.edges[i] {
			if w > 0 {
				deg++
				c.tRowPtr[j+1]++
			}
		}
		c.rowPtr[i+1] = deg
		nnz += deg
		if deg == 0 {
			c.dangling = append(c.dangling, int32(i))
		}
	}
	for i := 0; i < n; i++ {
		c.rowPtr[i+1] += c.rowPtr[i]
		c.tRowPtr[i+1] += c.tRowPtr[i]
	}
	c.colIdx = growInt32s(c.colIdx, nnz)
	c.val = growFloats(c.val, nnz)
	c.tColIdx = growInt32s(c.tColIdx, nnz)
	c.tVal = growFloats(c.tVal, nnz)
	c.tPos = growInts(c.tPos, nnz)

	// Pass 2: scatter edges into the transpose. The outer loop runs sources
	// ascending and each source contributes at most one entry per
	// destination, so every transpose row ends up sorted by source — the
	// unordered map walk within a row cannot reorder it.
	copy(c.cur, c.tRowPtr[:n])
	for i := 0; i < n; i++ {
		for j, w := range g.edges[i] {
			if w > 0 {
				s := c.cur[j]
				c.cur[j] = s + 1
				c.tColIdx[s] = int32(i)
				c.tVal[s] = w // raw weight; normalized in pass 4
			}
		}
	}

	// Pass 3: scatter the transpose back into the forward layout (sorting
	// it by the same argument) and record the slot mapping.
	copy(c.cur, c.rowPtr[:n])
	for j := 0; j < n; j++ {
		for s := c.tRowPtr[j]; s < c.tRowPtr[j+1]; s++ {
			i := c.tColIdx[s]
			k := c.cur[i]
			c.cur[i] = k + 1
			c.colIdx[k] = int32(j)
			c.val[k] = c.tVal[s]
			c.tPos[k] = s
		}
	}

	// Pass 4: normalize each row, accumulating the divisor in ascending
	// column order, and mirror the result into the transpose.
	c.normalizeFromRaw()
}

// rebuildFromLog builds both layouts from an edge-log graph. The graph's
// compacted adjacency is already the forward layout with raw weights —
// columns ascending, only positive entries — so the build is a straight
// copy plus a single forward→transpose scatter (sources ascending keeps
// every transpose row sorted), then the shared normalization pass.
func (c *CSR) rebuildFromLog(g *LogGraph) {
	g.Compact()
	n := g.Len()
	c.n = n
	c.rowPtr = growInts(c.rowPtr, n+1)
	c.tRowPtr = growInts(c.tRowPtr, n+1)
	c.cur = growInts(c.cur, n)
	c.dangling = c.dangling[:0]

	nnz := len(g.colIdx)
	copy(c.rowPtr, g.rowPtr)
	c.colIdx = growInt32s(c.colIdx, nnz)
	c.val = growFloats(c.val, nnz)
	copy(c.colIdx, g.colIdx)
	copy(c.val, g.val)
	c.tColIdx = growInt32s(c.tColIdx, nnz)
	c.tVal = growFloats(c.tVal, nnz)
	c.tPos = growInts(c.tPos, nnz)

	// In-degrees and dangling rows.
	for i := 0; i <= n; i++ {
		c.tRowPtr[i] = 0
	}
	for _, j := range c.colIdx {
		c.tRowPtr[j+1]++
	}
	for i := 0; i < n; i++ {
		c.tRowPtr[i+1] += c.tRowPtr[i]
		if c.rowPtr[i+1] == c.rowPtr[i] {
			c.dangling = append(c.dangling, int32(i))
		}
	}

	// Forward → transpose scatter: rows ascending, so each transpose row's
	// sources come out ascending.
	copy(c.cur, c.tRowPtr[:n])
	for i := 0; i < n; i++ {
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			j := c.colIdx[k]
			s := c.cur[j]
			c.cur[j] = s + 1
			c.tColIdx[s] = int32(i)
			c.tVal[s] = c.val[k]
			c.tPos[k] = s
		}
	}
	c.normalizeFromRaw()
	c.follow.rebuilt(g)
	c.lastRefresh = RefreshStats{RowsTouched: n}
}

// rebuildGeneric builds both layouts from any Graph implementation through
// its OutEdges iterator, with the same two-scatter no-sort construction and
// the same arithmetic order as the specialized builds.
func (c *CSR) rebuildGeneric(g Graph) {
	c.follow = logFollower{}
	n := g.Len()
	if n > math.MaxInt32 {
		panic("reputation: CSR supports at most 2^31-1 peers")
	}
	c.n = n
	c.rowPtr = growInts(c.rowPtr, n+1)
	c.tRowPtr = growInts(c.tRowPtr, n+1)
	c.cur = growInts(c.cur, n)
	c.dangling = c.dangling[:0]

	for i := 0; i <= n; i++ {
		c.rowPtr[i] = 0
		c.tRowPtr[i] = 0
	}
	nnz := 0
	for i := 0; i < n; i++ {
		deg := 0
		g.OutEdges(i, func(j int, w float64) {
			if w > 0 {
				deg++
				c.tRowPtr[j+1]++
			}
		})
		c.rowPtr[i+1] = deg
		nnz += deg
		if deg == 0 {
			c.dangling = append(c.dangling, int32(i))
		}
	}
	for i := 0; i < n; i++ {
		c.rowPtr[i+1] += c.rowPtr[i]
		c.tRowPtr[i+1] += c.tRowPtr[i]
	}
	c.colIdx = growInt32s(c.colIdx, nnz)
	c.val = growFloats(c.val, nnz)
	c.tColIdx = growInt32s(c.tColIdx, nnz)
	c.tVal = growFloats(c.tVal, nnz)
	c.tPos = growInts(c.tPos, nnz)

	copy(c.cur, c.tRowPtr[:n])
	for i := 0; i < n; i++ {
		g.OutEdges(i, func(j int, w float64) {
			if w > 0 {
				s := c.cur[j]
				c.cur[j] = s + 1
				c.tColIdx[s] = int32(i)
				c.tVal[s] = w
			}
		})
	}
	copy(c.cur, c.rowPtr[:n])
	for j := 0; j < n; j++ {
		for s := c.tRowPtr[j]; s < c.tRowPtr[j+1]; s++ {
			i := c.tColIdx[s]
			k := c.cur[i]
			c.cur[i] = k + 1
			c.colIdx[k] = int32(j)
			c.val[k] = c.tVal[s]
			c.tPos[k] = s
		}
	}
	c.normalizeFromRaw()
}

// normalizeFromRaw divides each forward row (currently holding raw weights)
// by its ascending-order sum and writes the normalized values into both
// layouts.
func (c *CSR) normalizeFromRaw() {
	for i := 0; i < c.n; i++ {
		c.normalizeRow(i)
	}
}

// normalizeRow renormalizes one forward row (currently holding raw weights)
// in place and mirrors it into the transpose. Row-local: the arithmetic is
// exactly one iteration of normalizeFromRaw, so renormalizing any subset of
// rows whose raw values changed leaves the CSR bit-identical to a full pass.
func (c *CSR) normalizeRow(i int) {
	lo, hi := c.rowPtr[i], c.rowPtr[i+1]
	sum := 0.0
	for k := lo; k < hi; k++ {
		sum += c.val[k]
	}
	for k := lo; k < hi; k++ {
		v := c.val[k] / sum
		c.val[k] = v
		c.tVal[c.tPos[k]] = v
	}
}

// Refresh incrementally updates the matrix from g. When g's sparsity
// pattern still matches the stored structure (the common case while trust
// values merely accumulate), only the values are renormalized — no
// allocation, no scatter — and Refresh reports true. Any structural change
// (different size, new or removed edges) falls back to a full Rebuild and
// reports false. Either way the CSR matches g on return.
//
// For an edge-log graph the stability check is O(1): the graph is
// compacted and its pattern generation compared with the one recorded at
// the last build. On the stable path the refresh is incremental when this
// CSR consumed every earlier delta (dirty-generation match): only the rows
// the log's tail touched since the last refresh are copied and
// renormalized — O(dirty rows), not O(n). If another consumer drained the
// dirty set in between, the refresh falls back to the full value copy,
// which is always correct. The map-backed graph keeps its original per-row
// pattern probe, and other implementations always rebuild.
func (c *CSR) Refresh(g Graph) bool {
	switch t := g.(type) {
	case *TrustGraph:
		ok := c.refreshFromMap(t)
		c.lastRefresh = RefreshStats{PatternStable: ok, RowsTouched: c.n}
		return ok
	case *LogGraph:
		t.Compact()
		switch c.follow.path(t, c.n) {
		case refreshDirtyOnly:
			// Rows outside the pending dirty set already hold the
			// normalized form of their current weights; refresh only
			// what changed. Per-row normalization is row-local, so the
			// result is bit-identical to the full pass below.
			for _, r := range t.dirtyRows {
				lo, hi := c.rowPtr[r], c.rowPtr[r+1]
				copy(c.val[lo:hi], t.val[lo:hi])
				c.normalizeRow(int(r))
			}
			c.lastRefresh = RefreshStats{PatternStable: true, DirtyOnly: true, RowsTouched: len(t.dirtyRows)}
			c.follow.consumed(t)
			return true
		case refreshFullCopy:
			copy(c.val, t.val)
			c.normalizeFromRaw()
			c.lastRefresh = RefreshStats{PatternStable: true, RowsTouched: c.n}
			c.follow.consumed(t)
			return true
		default:
			c.rebuildFromLog(t)
			return false
		}
	default:
		c.rebuildGeneric(g)
		c.lastRefresh = RefreshStats{RowsTouched: c.n}
		return false
	}
}

// refreshFromMap is Refresh for the map-backed reference graph.
func (c *CSR) refreshFromMap(g *TrustGraph) bool {
	if g.Len() != c.n || c.follow.src != nil {
		c.rebuildFromMap(g)
		return false
	}
	for i := 0; i < c.n; i++ {
		lo, hi := c.rowPtr[i], c.rowPtr[i+1]
		row := g.edges[i]
		if len(row) != hi-lo {
			c.Rebuild(g)
			return false
		}
		sum := 0.0
		for k := lo; k < hi; k++ {
			w := row[int(c.colIdx[k])]
			if w <= 0 { // edge vanished (or was never there)
				c.Rebuild(g)
				return false
			}
			c.val[k] = w
			sum += w
		}
		for k := lo; k < hi; k++ {
			v := c.val[k] / sum
			c.val[k] = v
			c.tVal[c.tPos[k]] = v
		}
	}
	return true
}

// growInts returns s resized to length n, reusing its backing array when
// the capacity suffices. Contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
