package reputation

import "slices"

// CSR is the normalized local-trust matrix C, held once: the values live in
// the layout the iteration reads, and the other orientation keeps only its
// pattern.
//
//   - transposed values (destination-major): tRowPtr/tColIdx/tVal hold the
//     normalized trust c_ij = w_ij/Σ_k w_ik grouped by destination j, with
//     source indices strictly ascending. The power iteration next = C^T·t
//     is a gather over this layout (see gather): every output component is
//     one contiguous dot product whose accumulation order is fixed by the
//     layout.
//   - forward pattern (source-major): rowPtr/colIdx mirror the sparsity
//     pattern of the edge log as of the last refresh, columns strictly
//     ascending, no values. It is what the next refresh diffs the log's
//     dirty rows against to learn which entries appeared and vanished.
//
// The per-edge arrays are exactly colIdx, tColIdx and tVal: 16 bytes an
// edge. Nothing maps a forward entry to its transposed slot; the slot of
// entry (r, j) is found when needed by a lower-bound search for source r in
// destination row j. dangling lists the rows with no outgoing trust
// (ascending); their walk mass is redistributed analytically by the
// iteration instead of being stored as explicit rows.
//
// Every row is normalized from the log's raw weights summed in ascending
// column order, so the stored values are a pure function of the graph: the
// three refresh paths (see Refresh) leave the arrays bit-identical to a
// fresh build of the same graph. Construction never sorts — one count and
// one scatter with sources ascending leave every destination row sorted.
// All buffers are reused across calls, and a per-edge array that must grow
// is given an eighth of head-room, so a refresh allocates nothing once the
// capacities have settled around the graph's size.
type CSR struct {
	n int
	// Forward pattern: the log's pattern at the last refresh.
	rowPtr []int
	colIdx []int32
	// Transposed values.
	tRowPtr []int
	tColIdx []int32
	tVal    []float64
	// dangling rows (no outgoing trust), ascending.
	dangling []int32

	// Scratch: the build's scatter cursor, and the structural patch's
	// removed/added entries (keyed destination-major, see pairKey) with
	// their slots.
	cur            []int
	removed, added []uint64
	pos            []int

	// follow is this CSR's refresh position against the edge-log graph it
	// was last built from; Refresh picks its path from it.
	follow logFollower

	lastRefresh RefreshStats
}

// logFollower tracks one consumer's refresh position against a LogGraph:
// which log it last built from, at which sparsity-pattern generation, and at
// which dirty-row consumption generation. Every CSR holds one, so several
// CSRs sharing a log each classify their own refresh and report it in
// RefreshStats.
type logFollower struct {
	src      *LogGraph
	patGen   uint64
	dirtyGen uint64
}

// caughtUp records that the consumer now matches g: it has folded in (or
// built past) every pending dirty row.
func (f *logFollower) caughtUp(g *LogGraph) {
	f.src = g
	f.patGen = g.patGen
	g.consumeDirty()
	f.dirtyGen = g.dirtyGen
}

// deltaMaxFraction bounds the delta paths: a refresh with more than
// n/deltaMaxFraction dirty rows takes the build. Per dirty row the delta
// paths pay one slot search per entry where the build pays one sequential
// scatter per entry of the whole matrix, so past roughly an eighth of the
// rows (a bulk load, a simulation step that touches every agent) the build
// is the cheaper way to the same bits.
const deltaMaxFraction = 8

// RefreshStats describes what the most recent Rebuild/Refresh call did —
// the observability hook the solver threads up to /v1/stats.
type RefreshStats struct {
	PatternStable bool // the sparsity pattern was the one already stored
	DirtyOnly     bool // pattern stable and only the dirty rows were renormalized
	RowsTouched   int  // rows renormalized (n on the build)
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
func (c *CSR) NNZ() int { return len(c.tVal) }

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
	}
	for j := 0; j < c.n; j++ {
		for s := c.tRowPtr[j]; s < c.tRowPtr[j+1]; s++ {
			m[c.tColIdx[s]][j] = c.tVal[s]
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
	for _, j := range c.colIdx[c.rowPtr[i]:c.rowPtr[i+1]] {
		fn(int(j), c.tVal[c.slot(int32(i), j)])
	}
}

// gather writes one power iteration of src into dst: for every destination
// j, dst[j] = (1−a)·(Σ_i src[i]·c_ij + dm·p[j]) + a·p[j], where a is the
// damping, p the pre-trust distribution and dm the dangling mass of src
// (summed over the dangling rows in ascending order). Each Σ is one
// contiguous dot product over destination row j, sources ascending.
func (c *CSR) gather(dst, src, p []float64, damping float64) {
	dm := 0.0
	for _, i := range c.dangling {
		dm += src[i]
	}
	a := damping
	om := 1 - a
	tp, tc, tv := c.tRowPtr, c.tColIdx, c.tVal
	for j := 0; j < c.n; j++ {
		sum := 0.0
		for e := tp[j]; e < tp[j+1]; e++ {
			sum += src[tc[e]] * tv[e]
		}
		dst[j] = om*(sum+dm*p[j]) + a*p[j]
	}
}

// slot returns the position of entry (r, j) in the transposed arrays: the
// lower bound of source r among destination row j's ascending sources. For
// an entry not stored it is where the entry would be inserted.
func (c *CSR) slot(r, j int32) int {
	lo := c.tRowPtr[j]
	s, _ := slices.BinarySearch(c.tColIdx[lo:c.tRowPtr[j+1]], r)
	return lo + s
}

// Rebuild reconstructs the matrix from g by the full build, whatever the
// CSR held before.
func (c *CSR) Rebuild(g Graph) {
	c.follow = logFollower{}
	c.Refresh(g)
}

// Refresh brings the matrix up to date with g and reports whether g's
// sparsity pattern was the one already stored (in which case only values
// were written; the arrays were neither moved nor resized). Either way the
// CSR equals a fresh build of g on return, bit for bit.
//
// Against an edge-log graph the refresh costs what changed. The log is
// compacted, and its pattern and dirty-row generations are compared with
// the ones recorded at the last refresh:
//
//   - values only (pattern generation unchanged): each row the log's tail
//     touched is renormalized from the log's raw weights into its searched
//     slots — O(dirty entries), reported as DirtyOnly;
//   - structural patch (pattern generation moved): the dirty rows are
//     diffed against the stored forward pattern, the vanished entries are
//     squeezed out of the transposed arrays and the new ones opened in
//     place, and the dirty rows renormalized as above — O(dirty entries)
//     searches plus one memmove of the arrays, not a re-scatter;
//   - build (first use, another log or size, a dirty span this consumer
//     never saw because another consumer drained it, or more than
//     n/deltaMaxFraction dirty rows): one count and one fused
//     scatter-and-normalize over the whole log, RowsTouched = n.
//
// Any other Graph implementation is folded into a scratch LogGraph and
// built from that, every time.
func (c *CSR) Refresh(g Graph) bool {
	lg, ok := g.(*LogGraph)
	if !ok {
		lg = logGraphOf(g)
	}
	lg.Compact()
	f := &c.follow
	known := f.src == lg && c.n == lg.n
	stable := known && f.patGen == lg.patGen
	switch {
	case !known || f.dirtyGen != lg.dirtyGen || len(lg.dirtyRows) > lg.n/deltaMaxFraction:
		c.build(lg)
		c.lastRefresh = RefreshStats{PatternStable: stable, RowsTouched: c.n}
	case stable:
		for _, r := range lg.dirtyRows {
			c.renormalizeRow(lg, r)
		}
		c.lastRefresh = RefreshStats{PatternStable: true, DirtyOnly: true, RowsTouched: len(lg.dirtyRows)}
	default:
		c.patch(lg)
		c.lastRefresh = RefreshStats{RowsTouched: len(lg.dirtyRows)}
	}
	if ok {
		f.caughtUp(lg)
	} else {
		*f = logFollower{} // a scratch log is not there to be followed
	}
	return stable
}

// logGraphOf folds any Graph into a fresh LogGraph through its OutEdges
// iterator. A single accumulate onto an absent edge stores the weight
// itself, so the copy carries g's weights bit for bit.
func logGraphOf(g Graph) *LogGraph {
	lg, err := NewLogGraph(g.Len())
	if err != nil {
		panic(err) // a Graph has 0 < n < 2^31 peers
	}
	var i int
	add := func(j int, w float64) { lg.AddTrust(i, j, w) }
	for i = 0; i < lg.n; i++ {
		g.OutEdges(i, add)
	}
	return lg
}

// build constructs the matrix from the compacted log: count the in-degrees,
// then walk the rows in ascending order scattering each entry, already
// divided by its row's ascending-order sum, into its destination row.
// Sources arrive ascending, so every destination row comes out sorted.
func (c *CSR) build(g *LogGraph) {
	n, nnz := g.n, len(g.colIdx)
	c.n = n
	c.tRowPtr = growInts(c.tRowPtr, n+1)
	c.tColIdx = withRoom(c.tColIdx, nnz, 0)
	c.tVal = withRoom(c.tVal, nnz, 0)
	c.cur = growInts(c.cur, n)

	clear(c.tRowPtr)
	for _, j := range g.colIdx {
		c.tRowPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		c.cur[j] = c.tRowPtr[j]
		c.tRowPtr[j+1] += c.tRowPtr[j]
	}
	for i := 0; i < n; i++ {
		lo, hi := g.rowPtr[i], g.rowPtr[i+1]
		sum := rowSum(g.val[lo:hi])
		for k := lo; k < hi; k++ {
			s := c.cur[g.colIdx[k]]
			c.cur[g.colIdx[k]] = s + 1
			c.tColIdx[s] = int32(i)
			c.tVal[s] = g.val[k] / sum
		}
	}
	c.mirror(g)
}

// rowSum adds a row's raw weights in ascending column order — the one
// divisor every path normalizes with.
func rowSum(ws []float64) float64 {
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	return sum
}

// renormalizeRow writes row r of the compacted log, normalized, into the
// transposed slots of its entries, which must already exist. Row-local: the
// arithmetic is exactly the build's for that row, so renormalizing any set
// of rows whose weights changed leaves the CSR bit-identical to a build.
func (c *CSR) renormalizeRow(g *LogGraph, r int32) {
	lo, hi := g.rowPtr[r], g.rowPtr[r+1]
	sum := rowSum(g.val[lo:hi])
	for k := lo; k < hi; k++ {
		c.tVal[c.slot(r, g.colIdx[k])] = g.val[k] / sum
	}
}

// mirror copies the log's pattern into the forward arrays and rescans the
// dangling rows — the last step of every pattern-changing refresh.
func (c *CSR) mirror(g *LogGraph) {
	c.rowPtr = growInts(c.rowPtr, g.n+1)
	copy(c.rowPtr, g.rowPtr)
	c.colIdx = withRoom(c.colIdx, len(g.colIdx), 0)
	copy(c.colIdx, g.colIdx)
	c.dangling = c.dangling[:0]
	for i := 0; i < g.n; i++ {
		if g.rowPtr[i] == g.rowPtr[i+1] {
			c.dangling = append(c.dangling, int32(i))
		}
	}
}

// pairKey packs entry (r, j) so that ascending keys run in the transposed
// arrays' order: by destination j, then source r.
func pairKey(r, j int32) uint64 { return uint64(j)<<32 | uint64(r) }

func unpackPair(key uint64) (r, j int32) { return int32(uint32(key)), int32(key >> 32) }

// patch folds a pattern change confined to the log's dirty rows into the
// transposed arrays in place. Rows outside the dirty set hold exactly what
// a build would give them, and an entry keeps its order relative to every
// other entry when its neighbours come and go, so removing the vanished
// slots, opening the new ones and renormalizing the dirty rows is
// bit-identical to a build.
func (c *CSR) patch(g *LogGraph) {
	// Merge-diff each dirty row's stored pattern against the log's.
	c.removed, c.added = c.removed[:0], c.added[:0]
	for _, r := range g.dirtyRows {
		old := c.colIdx[c.rowPtr[r]:c.rowPtr[r+1]]
		cur := g.colIdx[g.rowPtr[r]:g.rowPtr[r+1]]
		for len(old) > 0 || len(cur) > 0 {
			switch {
			case len(cur) == 0 || (len(old) > 0 && old[0] < cur[0]):
				c.removed = append(c.removed, pairKey(r, old[0]))
				old = old[1:]
			case len(old) == 0 || cur[0] < old[0]:
				c.added = append(c.added, pairKey(r, cur[0]))
				cur = cur[1:]
			default:
				old, cur = old[1:], cur[1:]
			}
		}
	}
	slices.Sort(c.removed)
	slices.Sort(c.added)

	// Squeeze the removed slots out, moving the runs between them left.
	if pos := c.locate(c.removed); len(pos) > 0 {
		w := pos[0]
		for x, p := range pos {
			end := len(c.tColIdx)
			if x+1 < len(pos) {
				end = pos[x+1]
			}
			copy(c.tColIdx[w:], c.tColIdx[p+1:end])
			w += copy(c.tVal[w:], c.tVal[p+1:end])
		}
		c.tColIdx, c.tVal = c.tColIdx[:w], c.tVal[:w]
		c.shiftRowPtr(c.removed, -1)
	}

	// Open the added slots, moving the runs between them right, last run
	// first. The x-th added entry lands x places past its insertion point
	// in the squeezed arrays; its value is written by the renormalization
	// below, because its row is dirty.
	if pos := c.locate(c.added); len(pos) > 0 {
		end := len(c.tColIdx)
		c.tColIdx = withRoom(c.tColIdx, end+len(pos), end)
		c.tVal = withRoom(c.tVal, end+len(pos), end)
		for x := len(pos) - 1; x >= 0; x-- {
			p := pos[x]
			copy(c.tColIdx[p+x+1:], c.tColIdx[p:end])
			copy(c.tVal[p+x+1:], c.tVal[p:end])
			c.tColIdx[p+x], _ = unpackPair(c.added[x])
			end = p
		}
		c.shiftRowPtr(c.added, +1)
	}

	for _, r := range g.dirtyRows {
		c.renormalizeRow(g, r)
	}
	c.mirror(g)
}

// locate returns the slot of every entry in keys (ascending, so the slots
// come out ascending too) in the reused c.pos.
func (c *CSR) locate(keys []uint64) []int {
	c.pos = c.pos[:0]
	for _, key := range keys {
		c.pos = append(c.pos, c.slot(unpackPair(key)))
	}
	return c.pos
}

// shiftRowPtr moves the transposed row boundaries by d for every entry in
// keys (ascending): each boundary shifts by d times the entries whose
// destination lies before it.
func (c *CSR) shiftRowPtr(keys []uint64, d int) {
	_, first := unpackPair(keys[0])
	x, shift := 0, 0
	for j := int(first); j < c.n; j++ {
		for ; x < len(keys) && int(keys[x]>>32) == j; x++ {
			shift += d
		}
		c.tRowPtr[j+1] += shift
	}
}

// withRoom returns s resized to n entries with its first keep entries
// preserved. An array too short is replaced by one with an eighth of
// head-room, so an edge count that wanders around a level stops allocating
// once it has been there.
func withRoom[T any](s []T, n, keep int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	t := make([]T, n, n+n/8)
	copy(t, s[:keep])
	return t
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
