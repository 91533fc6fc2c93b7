package reputation

import (
	"fmt"
	"math"
)

// defaultLogWatermark is the minimum tail length that triggers an automatic
// compaction. The automatic threshold also scales with the compacted size
// (nnz/4), so compaction cost stays amortized O(1) per logged statement.
const defaultLogWatermark = 4096

// logOp is one record of the append-only trust log: an accumulate
// (set == false, w > 0) or an overwrite (set == true, w >= 0; zero deletes).
// Records are appended pre-validated, so replaying the log never errors.
type logOp struct {
	from, to int32
	w        float64
	set      bool
}

// LogGraph is the edge-log trust store: the scalable Graph implementation
// behind EigenTrust, MaxFlow, and the incentive schemes.
//
// # Layout
//
// The graph is two parts. The compacted adjacency holds the folded trust
// statements in CSR layout — rowPtr/colIdx/val with raw positive weights
// and strictly ascending columns per row — which is both the read substrate
// and (unlike the map-backed TrustGraph) directly reusable by the
// EigenTrust CSR build, so a refresh never walks hash maps. The tail is an
// append-only log of statements since the last compaction: AddTrust and
// SetTrust are O(1) appends that allocate nothing once the tail's capacity
// has grown.
//
// # Reads
//
// Point and row reads merge the compacted CSR with the tail: Trust binary-
// searches the compacted row and replays the (short) tail; OutEdges and
// OutDegree emit a merged row — compacted columns ascending, then new tail
// columns in first-touch order — through reusable scratch. AppendEdges
// compacts first and then emits the canonical ascending (From, To) list.
// Reads are deterministic (no map iteration anywhere) but, because dirty
// reads share scratch, a LogGraph is not safe for concurrent use.
//
// # Compaction
//
// Compact folds the tail into the compacted adjacency with a deterministic
// counting-scatter merge, mirroring the no-sort CSR construction: the tail
// is bucketed by source row, each row's ops collapse into per-pair net
// effects via a dense column-slot scratch, the pairs are ordered by column
// with a two-pass scatter through a destination-major layout (never a
// comparison sort), and a final linear merge walks old row and sorted
// effects into double-buffered arrays. The whole pass is O(n + nnz + tail)
// and allocation-free once the scratch has grown to the graph's size.
// Compaction runs on an explicit Compact call or automatically when the
// tail reaches the watermark (SetWatermark; the default scales with nnz).
//
// # Determinism
//
// Every observable — reads, compaction results, the pattern-change
// generation the EigenTrust CSR keys its value-only refresh on — is a pure
// function of the statement sequence. The differential suite pins LogGraph
// to the map-backed TrustGraph over interleaved add/set/clear/compact/query
// sequences, and EigenTrust/MaxFlow results over the two stores are
// bit-identical.
type LogGraph struct {
	n int

	// Compacted adjacency: raw positive trust weights in CSR layout,
	// columns strictly ascending within a row.
	rowPtr []int
	colIdx []int32
	val    []float64

	// Append-only tail of statements since the last compaction.
	tail    []logOp
	tailCnt []int32 // per-source tail op counts: row dirtiness is O(1)

	watermark int    // fixed compaction threshold; 0 = automatic
	patGen    uint64 // bumped whenever the sparsity pattern changes

	// Dirty-row tracking for the CSR's incremental refresh: every appended
	// statement marks its source row dirty, and the set survives
	// compactions until a consumer (CSR.Refresh) folds it in and calls
	// consumeDirty. Rows outside the set are unchanged since then, values
	// and pattern. dirtyGen is bumped at each consumption — and by anything
	// that changes rows without marking them — so a consumer that missed a
	// span detects the gap and builds instead of trusting a partial delta.
	dirtyMark []bool
	dirtyRows []int32
	dirtyGen  uint64

	// Churn accounting, read by inspection tooling: how many times a peer
	// row was cleared for identity reuse and how many compactions ran.
	rowClears   uint64
	compactions uint64

	// slot is the dense per-column scratch used by compaction and merged
	// reads: slot[col] holds a 1-based position, cleared back to zero after
	// each row so no generation counters are needed.
	slot []int32

	// Merged-row read scratch (OutEdges/OutDegree on dirty rows).
	rCols []int32
	rVals []float64

	// Compaction scratch, reused across compactions.
	tailPtr []int   // tail ranges per source row (n+1)
	tailOrd []int32 // tail indices bucketed by source row, stable
	pCols   []int32 // touched pair columns, grouped by row
	pRows   []int32 // touched pair rows
	opCnt   []int32 // tail ops per pair
	opPair  []int32 // pair id of each bucketed tail position
	opPtr   []int   // per-pair op-list ranges (len(pairs)+1)
	opList  []int32 // tail indices grouped by pair, log order within a pair
	opCur   []int   // op-list scatter cursor
	pairPtr []int   // pair ranges per row (n+1)
	dPtr    []int   // destination-major scatter offsets (n+1)
	dOrd    []int32 // pair indices in destination-major order
	pSorted []int32 // pair indices per row in ascending column order
	cur     []int   // shared scatter cursor
	nRowPtr []int   // merge double buffers, swapped with the live arrays
	nColIdx []int32
	nVal    []float64
}

// NewLogGraph creates an empty edge-log trust graph over n peers.
func NewLogGraph(n int) (*LogGraph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("reputation: graph needs n > 0, got %d", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("reputation: LogGraph supports at most 2^31-1 peers, got %d", n)
	}
	return &LogGraph{
		n:         n,
		rowPtr:    make([]int, n+1),
		tailCnt:   make([]int32, n),
		slot:      make([]int32, n),
		dirtyMark: make([]bool, n),
	}, nil
}

// Len returns the number of peers.
func (g *LogGraph) Len() int { return g.n }

// NNZ returns the number of edges in the compacted adjacency (the tail may
// hold more statements; Compact folds them in).
func (g *LogGraph) NNZ() int { return len(g.val) }

// TailLen returns the number of uncompacted statements in the log.
func (g *LogGraph) TailLen() int { return len(g.tail) }

// RowClears returns how many ClearPeer calls the graph has absorbed — the
// identity-churn reuse count inspection tooling reports.
func (g *LogGraph) RowClears() uint64 { return g.rowClears }

// Compactions returns how many tail-folding compactions have run.
func (g *LogGraph) Compactions() uint64 { return g.compactions }

// SetWatermark fixes the tail length that triggers automatic compaction.
// k <= 0 restores the automatic threshold max(4096, nnz/4).
func (g *LogGraph) SetWatermark(k int) {
	if k <= 0 {
		k = 0
	}
	g.watermark = k
}

// threshold returns the effective compaction watermark.
func (g *LogGraph) threshold() int {
	if g.watermark > 0 {
		return g.watermark
	}
	t := len(g.val) / 4
	if t < defaultLogWatermark {
		t = defaultLogWatermark
	}
	return t
}

func (g *LogGraph) checkRange(from, to int) error {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return fmt.Errorf("reputation: edge (%d,%d) out of range [0,%d)", from, to, g.n)
	}
	return nil
}

// SetTrust sets the local trust of from in to. Negative trust is clamped to
// zero (zero removes the edge at the next compaction); self-trust is
// ignored. Out-of-range ids return an error.
func (g *LogGraph) SetTrust(from, to int, w float64) error {
	if err := g.checkRange(from, to); err != nil {
		return err
	}
	if from == to {
		return nil
	}
	if w < 0 {
		w = 0
	}
	g.append(logOp{from: int32(from), to: int32(to), w: w, set: true})
	return nil
}

// AddTrust accumulates w onto the existing local trust of from in to.
// Non-positive w and self-trust are ignored, like the map-backed reference.
func (g *LogGraph) AddTrust(from, to int, w float64) error {
	if err := g.checkRange(from, to); err != nil {
		return err
	}
	if from == to || w <= 0 {
		return nil
	}
	g.append(logOp{from: int32(from), to: int32(to), w: w})
	return nil
}

// append records one validated statement and compacts when the tail hits
// the watermark.
func (g *LogGraph) append(op logOp) {
	g.tail = append(g.tail, op)
	g.tailCnt[op.from]++
	if !g.dirtyMark[op.from] {
		g.dirtyMark[op.from] = true
		g.dirtyRows = append(g.dirtyRows, op.from)
	}
	if len(g.tail) >= g.threshold() {
		g.Compact()
	}
}

// DirtyRowCount returns how many source rows have been touched since the
// last refresh consumed the dirty set.
func (g *LogGraph) DirtyRowCount() int { return len(g.dirtyRows) }

// consumeDirty resets the dirty-row set and bumps the consumption
// generation. Called by a refresh that has folded in (or fully refreshed
// past) every pending dirty row; the generation bump tells any other
// consumer that it missed a span and must build.
func (g *LogGraph) consumeDirty() {
	if len(g.dirtyRows) == 0 {
		return // nothing pending: no consumer's view is invalidated
	}
	for _, r := range g.dirtyRows {
		g.dirtyMark[r] = false
	}
	g.dirtyRows = g.dirtyRows[:0]
	g.dirtyGen++
}

// compactedTrust returns the compacted weight of (from, to) by binary
// search over the row's ascending columns.
func (g *LogGraph) compactedTrust(from, to int) float64 {
	lo, hi := g.rowPtr[from], g.rowPtr[from+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(g.colIdx[mid]) < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.rowPtr[from+1] && int(g.colIdx[lo]) == to {
		return g.val[lo]
	}
	return 0
}

// Trust returns the local trust of from in to (0 when absent): the
// compacted value with the tail replayed over it.
func (g *LogGraph) Trust(from, to int) float64 {
	if from < 0 || from >= g.n || to < 0 || to >= g.n || from == to {
		return 0
	}
	v := g.compactedTrust(from, to)
	if g.tailCnt[from] == 0 {
		return v
	}
	f, t := int32(from), int32(to)
	for k := range g.tail {
		op := &g.tail[k]
		if op.from != f || op.to != t {
			continue
		}
		if op.set {
			v = op.w
		} else {
			v += op.w
		}
	}
	return v
}

// mergedRow materializes row i — compacted entries first (columns
// ascending), then new tail columns in first-touch order — into the shared
// read scratch. Entries overwritten to zero remain with value 0 and are
// filtered by the callers. The returned slices are valid until the next
// dirty read or compaction.
func (g *LogGraph) mergedRow(i int) ([]int32, []float64) {
	g.rCols = g.rCols[:0]
	g.rVals = g.rVals[:0]
	for k := g.rowPtr[i]; k < g.rowPtr[i+1]; k++ {
		g.rCols = append(g.rCols, g.colIdx[k])
		g.rVals = append(g.rVals, g.val[k])
		g.slot[g.colIdx[k]] = int32(len(g.rCols))
	}
	f := int32(i)
	for k := range g.tail {
		op := &g.tail[k]
		if op.from != f {
			continue
		}
		p := g.slot[op.to]
		if p == 0 {
			g.rCols = append(g.rCols, op.to)
			g.rVals = append(g.rVals, 0)
			p = int32(len(g.rCols))
			g.slot[op.to] = p
		}
		if op.set {
			g.rVals[p-1] = op.w
		} else {
			g.rVals[p-1] += op.w
		}
	}
	for _, c := range g.rCols {
		g.slot[c] = 0
	}
	return g.rCols, g.rVals
}

// OutEdges calls fn for every outgoing edge of peer i: compacted columns in
// ascending order, then uncompacted tail columns in first-touch order — a
// deterministic order, unlike the map-backed reference. fn must not mutate
// the graph.
func (g *LogGraph) OutEdges(i int, fn func(to int, w float64)) {
	if i < 0 || i >= g.n {
		return
	}
	if g.tailCnt[i] == 0 {
		for k := g.rowPtr[i]; k < g.rowPtr[i+1]; k++ {
			fn(int(g.colIdx[k]), g.val[k])
		}
		return
	}
	cols, vals := g.mergedRow(i)
	for k, c := range cols {
		if vals[k] > 0 {
			fn(int(c), vals[k])
		}
	}
}

// OutDegree returns the number of peers i directly trusts.
func (g *LogGraph) OutDegree(i int) int {
	if i < 0 || i >= g.n {
		return 0
	}
	if g.tailCnt[i] == 0 {
		return g.rowPtr[i+1] - g.rowPtr[i]
	}
	_, vals := g.mergedRow(i)
	deg := 0
	for _, v := range vals {
		if v > 0 {
			deg++
		}
	}
	return deg
}

// AppendEdges compacts the log and appends every edge of the graph to dst
// in ascending (From, To) order, returning the extended slice — the same
// canonical order the map-backed reference emits, so snapshots of the two
// stores compare byte-for-byte.
func (g *LogGraph) AppendEdges(dst []Edge) []Edge {
	g.Compact()
	for i := 0; i < g.n; i++ {
		for k := g.rowPtr[i]; k < g.rowPtr[i+1]; k++ {
			dst = append(dst, Edge{From: i, To: int(g.colIdx[k]), W: g.val[k]})
		}
	}
	return dst
}

// LoadEdges replaces the graph's content with the given edges (accumulating
// duplicates, like repeated AddTrust calls) and compacts, so a loaded graph
// starts with an empty tail.
func (g *LogGraph) LoadEdges(edges []Edge) error {
	g.Clear()
	for _, e := range edges {
		if err := g.AddTrust(e.From, e.To, e.W); err != nil {
			return err
		}
	}
	g.Compact()
	return nil
}

// Clear removes every trust statement in place, keeping the peer count and
// all buffers for reuse.
func (g *LogGraph) Clear() {
	for i := range g.rowPtr {
		g.rowPtr[i] = 0
	}
	g.colIdx = g.colIdx[:0]
	g.val = g.val[:0]
	g.tail = g.tail[:0]
	clear(g.tailCnt)
	clear(g.dirtyMark)
	g.dirtyRows = g.dirtyRows[:0]
	g.dirtyGen++
	g.patGen++
}

// ClearPeer removes peer i's outgoing row and every incoming edge in place —
// the identity-churn primitive. The tail is folded in first, then the
// compacted arrays are filtered with a single write cursor, so the pass is
// O(nnz) with zero allocations and the slot can be reused under a fresh
// identity immediately. The generations are bumped only when edges were
// actually removed, preserving the EigenTrust value-only refresh fast path
// across no-op clears. Both are bumped then: column i is stripped from rows
// that are not marked dirty, so a follower must see a span it cannot patch
// and rebuild.
func (g *LogGraph) ClearPeer(i int) error {
	if i < 0 || i >= g.n {
		return fmt.Errorf("reputation: peer %d out of range [0,%d)", i, g.n)
	}
	g.Compact()
	w := 0
	removed := false
	col := int32(i)
	for r := 0; r < g.n; r++ {
		start, end := g.rowPtr[r], g.rowPtr[r+1]
		g.rowPtr[r] = w
		if r == i {
			if end > start {
				removed = true
			}
			continue
		}
		for k := start; k < end; k++ {
			if g.colIdx[k] == col {
				removed = true
				continue
			}
			g.colIdx[w] = g.colIdx[k]
			g.val[w] = g.val[k]
			w++
		}
	}
	g.rowPtr[g.n] = w
	g.colIdx = g.colIdx[:w]
	g.val = g.val[:w]
	if removed {
		g.patGen++
		g.dirtyGen++
	}
	g.rowClears++
	return nil
}

// Clone returns a deep copy of the graph (scratch buffers excluded).
func (g *LogGraph) Clone() *LogGraph {
	cp, _ := NewLogGraph(g.n)
	cp.watermark = g.watermark
	cp.rowPtr = append(cp.rowPtr[:0], g.rowPtr...)
	cp.colIdx = append(cp.colIdx[:0], g.colIdx...)
	cp.val = append(cp.val[:0], g.val...)
	cp.tail = append(cp.tail[:0], g.tail...)
	copy(cp.tailCnt, g.tailCnt)
	copy(cp.dirtyMark, g.dirtyMark)
	cp.dirtyRows = append(cp.dirtyRows[:0], g.dirtyRows...)
	cp.dirtyGen = g.dirtyGen
	cp.patGen = g.patGen
	return cp
}

// foldPair applies pair p's tail ops, in log order, onto base — the same
// left-to-right fold the dirty read paths use, so compacted values and
// dirty reads agree bit-for-bit, and so the compacted value of an edge is
// a pure sequential fold of its full statement history no matter how many
// compactions that history was split across.
func (g *LogGraph) foldPair(p int32, base float64) float64 {
	v := base
	for t := g.opPtr[p]; t < g.opPtr[p+1]; t++ {
		op := &g.tail[g.opList[t]]
		if op.set {
			v = op.w
		} else {
			v += op.w
		}
	}
	return v
}

// Compact folds the uncompacted tail into the compacted adjacency with the
// deterministic counting-scatter merge described on the type. It is a
// no-op when the tail is empty. Steady-state compactions (scratch already
// grown, pattern stable or not) allocate nothing.
//
// Compaction is schedule-invariant: each edge's new value is the
// left-to-right fold of its tail ops onto its base value (see foldPair),
// so compacting after every op, once at the end, or anywhere in between
// yields bit-identical arrays even for weights whose float additions do
// not associate. The concurrent store's serial-reference guarantee relies
// on this — its epochs compact at publish boundaries a serial replay never
// sees.
func (g *LogGraph) Compact() {
	if len(g.tail) == 0 {
		return
	}
	g.compactions++
	n := g.n

	// Phase 1: bucket the tail by source row (stable counting scatter —
	// tailCnt already holds the per-row counts).
	g.tailPtr = growInts(g.tailPtr, n+1)
	g.tailPtr[0] = 0
	for i := 0; i < n; i++ {
		g.tailPtr[i+1] = g.tailPtr[i] + int(g.tailCnt[i])
	}
	g.tailOrd = growInt32s(g.tailOrd, len(g.tail))
	g.cur = growInts(g.cur, n)
	copy(g.cur, g.tailPtr[:n])
	for k := range g.tail {
		f := g.tail[k].from
		s := g.cur[f]
		g.cur[f] = s + 1
		g.tailOrd[s] = int32(k)
	}

	// Phase 2: group each row's ops, in log order, into per-pair op lists.
	// The ops are NOT collapsed numerically here: phase 4 folds each
	// pair's ops left-to-right onto the base value, exactly as the dirty
	// read path does, so a pair's compacted value is the sequential fold of
	// its entire statement history — independent of how that history was
	// split across compactions. Collapsing adds into one net sum first
	// would regroup the float additions and make the result depend on the
	// compaction schedule, breaking bit-exact replay equivalence between
	// stores that compact at different points (serial log vs concurrent
	// store epochs) for non-integer weights.
	g.pCols = g.pCols[:0]
	g.pRows = g.pRows[:0]
	g.opCnt = g.opCnt[:0]
	g.pairPtr = growInts(g.pairPtr, n+1)
	g.pairPtr[0] = 0
	g.opPair = growInt32s(g.opPair, len(g.tail))
	for i := 0; i < n; i++ {
		base := len(g.pCols)
		for s := g.tailPtr[i]; s < g.tailPtr[i+1]; s++ {
			op := &g.tail[g.tailOrd[s]]
			p := g.slot[op.to]
			if p == 0 {
				g.pCols = append(g.pCols, op.to)
				g.pRows = append(g.pRows, int32(i))
				g.opCnt = append(g.opCnt, 0)
				p = int32(len(g.pCols))
				g.slot[op.to] = p
			}
			g.opCnt[p-1]++
			g.opPair[s] = p - 1
		}
		for _, c := range g.pCols[base:] {
			g.slot[c] = 0
		}
		g.pairPtr[i+1] = len(g.pCols)
	}

	// Stable-scatter the bucketed tail positions into per-pair op lists
	// (ascending s preserves each pair's log order).
	g.opPtr = growInts(g.opPtr, len(g.pCols)+1)
	g.opPtr[0] = 0
	for q, c := range g.opCnt {
		g.opPtr[q+1] = g.opPtr[q] + int(c)
	}
	g.opList = growInt32s(g.opList, len(g.tail))
	g.opCur = growInts(g.opCur, len(g.pCols))
	copy(g.opCur, g.opPtr[:len(g.pCols)])
	for s := range g.opPair {
		q := g.opPair[s]
		k := g.opCur[q]
		g.opCur[q] = k + 1
		g.opList[k] = g.tailOrd[s]
	}

	// Phase 3: order each row's pairs by column without sorting: scatter
	// the pairs into a destination-major layout (rows ascending within a
	// destination because pairs are enumerated rows-ascending) and back —
	// the same two-scatter argument the CSR build uses.
	npairs := len(g.pCols)
	g.dPtr = growInts(g.dPtr, n+1)
	for j := 0; j <= n; j++ {
		g.dPtr[j] = 0
	}
	for _, c := range g.pCols {
		g.dPtr[c+1]++
	}
	for j := 0; j < n; j++ {
		g.dPtr[j+1] += g.dPtr[j]
	}
	g.dOrd = growInt32s(g.dOrd, npairs)
	copy(g.cur, g.dPtr[:n])
	for q := 0; q < npairs; q++ {
		c := g.pCols[q]
		s := g.cur[c]
		g.cur[c] = s + 1
		g.dOrd[s] = int32(q)
	}
	g.pSorted = growInt32s(g.pSorted, npairs)
	copy(g.cur, g.pairPtr[:n])
	for s := 0; s < npairs; s++ {
		q := g.dOrd[s]
		r := g.pRows[q]
		k := g.cur[r]
		g.cur[r] = k + 1
		g.pSorted[k] = q
	}

	// Phase 4: linear merge of each old row with its column-sorted effects
	// into the double buffers; rows without effects are copied wholesale.
	maxNNZ := len(g.colIdx) + npairs
	g.nRowPtr = growInts(g.nRowPtr, n+1)
	if cap(g.nColIdx) < maxNNZ {
		g.nColIdx = make([]int32, 0, maxNNZ)
	} else {
		g.nColIdx = g.nColIdx[:0]
	}
	if cap(g.nVal) < maxNNZ {
		g.nVal = make([]float64, 0, maxNNZ)
	} else {
		g.nVal = g.nVal[:0]
	}
	changed := false
	g.nRowPtr[0] = 0
	for i := 0; i < n; i++ {
		k, kEnd := g.rowPtr[i], g.rowPtr[i+1]
		q, qEnd := g.pairPtr[i], g.pairPtr[i+1]
		if q == qEnd {
			g.nColIdx = append(g.nColIdx, g.colIdx[k:kEnd]...)
			g.nVal = append(g.nVal, g.val[k:kEnd]...)
			g.nRowPtr[i+1] = len(g.nColIdx)
			continue
		}
		for k < kEnd || q < qEnd {
			switch {
			case q == qEnd || (k < kEnd && g.colIdx[k] < g.pCols[g.pSorted[q]]):
				// Untouched compacted entry.
				g.nColIdx = append(g.nColIdx, g.colIdx[k])
				g.nVal = append(g.nVal, g.val[k])
				k++
			case k == kEnd || g.pCols[g.pSorted[q]] < g.colIdx[k]:
				// New column: fold the pair's ops onto a zero base.
				p := g.pSorted[q]
				v := g.foldPair(p, 0)
				if v > 0 {
					g.nColIdx = append(g.nColIdx, g.pCols[p])
					g.nVal = append(g.nVal, v)
					changed = true
				}
				q++
			default:
				// Same column: fold the pair's ops onto the base value.
				p := g.pSorted[q]
				v := g.foldPair(p, g.val[k])
				if v > 0 {
					g.nColIdx = append(g.nColIdx, g.colIdx[k])
					g.nVal = append(g.nVal, v)
				} else {
					changed = true // overwritten to zero: edge removed
				}
				k++
				q++
			}
		}
		g.nRowPtr[i+1] = len(g.nColIdx)
	}

	// Swap the double buffers in and reset the tail.
	g.rowPtr, g.nRowPtr = g.nRowPtr, g.rowPtr
	g.colIdx, g.nColIdx = g.nColIdx, g.colIdx
	g.val, g.nVal = g.nVal, g.val
	g.tail = g.tail[:0]
	clear(g.tailCnt)
	if changed {
		g.patGen++
	}
}
