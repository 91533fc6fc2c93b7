package reputation

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// defaultIngestShards is the ingest-queue shard count NewConcurrentGraph
// uses when the caller passes 0: enough to keep writers on separate locks
// without ballooning the drain loop on small machines.
const defaultIngestShards = 8

// GraphEpoch is one immutable published snapshot of the compacted trust
// adjacency: the CSR arrays of the writer-side LogGraph frozen at a publish
// point. Readers obtain an epoch with ConcurrentGraph.Acquire, read through
// it with plain array lookups (no locks, no allocation), and Release it when
// done; the publisher reuses an epoch's buffers only after its reader count
// has drained to zero, so a pinned epoch can never change underneath its
// readers.
//
// An epoch's read methods mirror the read side of the Graph interface
// (Trust, OutDegree, OutEdges) plus Seq/NNZ for observability. All of them
// see exactly the state published at the epoch's swap — writes enqueued
// later are invisible until the reader re-Acquires.
type GraphEpoch struct {
	seq    uint64
	n      int
	rowPtr []int
	colIdx []int32
	val    []float64

	readers atomic.Int64
	// retiring is set by the publisher while it is parked waiting for this
	// buffer's readers to drain; the Release that drops the count to zero
	// then signals drained (buffered, non-blocking send). The flag/counter
	// ordering is the classic store-buffering handshake: the publisher
	// stores retiring before loading readers, a releasing reader decrements
	// readers before loading retiring, and sequentially consistent atomics
	// guarantee that either the publisher sees the final decrement or the
	// reader sees the flag and signals — a missed wakeup would need both
	// loads to land before both stores, which the total order forbids.
	retiring atomic.Bool
	drained  chan struct{}
}

// newGraphEpoch allocates one reusable epoch buffer for an n-peer store.
func newGraphEpoch(n int) *GraphEpoch {
	return &GraphEpoch{n: n, rowPtr: make([]int, n+1), drained: make(chan struct{}, 1)}
}

// Seq returns the epoch's publish sequence number (1 is the first publish;
// the empty founding epoch is 0).
func (e *GraphEpoch) Seq() uint64 { return e.seq }

// Len returns the number of peers.
func (e *GraphEpoch) Len() int { return e.n }

// NNZ returns the number of edges in the snapshot.
func (e *GraphEpoch) NNZ() int { return len(e.val) }

// Trust returns the local trust of from in to at this epoch (0 when absent)
// by binary search over the row's ascending columns.
func (e *GraphEpoch) Trust(from, to int) float64 {
	if from < 0 || from >= e.n || to < 0 || to >= e.n || from == to {
		return 0
	}
	lo, hi := e.rowPtr[from], e.rowPtr[from+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(e.colIdx[mid]) < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < e.rowPtr[from+1] && int(e.colIdx[lo]) == to {
		return e.val[lo]
	}
	return 0
}

// OutDegree returns the number of peers i directly trusts at this epoch.
func (e *GraphEpoch) OutDegree(i int) int {
	if i < 0 || i >= e.n {
		return 0
	}
	return e.rowPtr[i+1] - e.rowPtr[i]
}

// OutEdges calls fn for every outgoing edge of peer i at this epoch, columns
// ascending.
func (e *GraphEpoch) OutEdges(i int, fn func(to int, w float64)) {
	if i < 0 || i >= e.n {
		return
	}
	for k := e.rowPtr[i]; k < e.rowPtr[i+1]; k++ {
		fn(int(e.colIdx[k]), e.val[k])
	}
}

// Release unpins the epoch. Every Acquire must be paired with exactly one
// Release; a forgotten Release eventually blocks the publisher (the epoch's
// buffers can never be retired), which the epoch-leak tests guard against.
// The last reader out of a retiring buffer wakes the parked publisher; the
// signal is a non-blocking send on a buffered channel, so Release itself
// never blocks and never allocates.
func (e *GraphEpoch) Release() {
	if e.readers.Add(-1) == 0 && e.retiring.Load() {
		select {
		case e.drained <- struct{}{}:
		default:
		}
	}
}

// TrustSnapshot is one immutable published global-trust vector: the result
// of an EigenTrust refresh frozen together with the graph epoch sequence it
// was computed at. Readers grab the current snapshot with
// ConcurrentGraph.TrustSnapshot — a single atomic load — and may hold it
// indefinitely without blocking later refreshes, which publish fresh
// snapshots instead of mutating old ones.
type TrustSnapshot struct {
	// Seq is the graph epoch sequence the vector was computed from.
	Seq uint64
	// Vector is the global trust distribution. It is immutable; callers
	// must not modify it.
	Vector []float64
}

// ingestShard is one lane of the sharded ingest queue. A source peer always
// maps to the same shard, so the shard preserves each source's statement
// order — the property the deterministic-compaction argument rests on. The
// pad keeps neighboring shard locks on separate cache lines.
type ingestShard struct {
	mu  sync.Mutex
	ops []logOp
	_   [24]byte
}

// ConcurrentGraph is the concurrent-reader trust store: an edge-log
// LogGraph behind a sharded ingest queue, with the compacted CSR adjacency
// published to readers as immutable epochs through an atomic pointer swap.
//
// # Concurrency model (two epochs, double-buffered)
//
//   - Writers (any goroutine) enqueue validated statements onto the ingest
//     shard owned by the statement's source peer: one short per-shard mutex
//     section, O(1) amortized, never touching reader state. A writer never
//     publishes, so it never compacts, copies or waits on a pinned epoch.
//   - Readers (any goroutine) pin the current epoch with Acquire — an
//     atomic pointer load plus a reader-count increment, re-validated
//     against the pointer so a racing swap cannot hand out a recycled
//     buffer — read through it lock-free, and Release it. The read path
//     takes no mutex and performs no allocation.
//   - The publisher (whoever holds the maintenance lock: Flush, Compact,
//     AppendEdges, ClearPeer, Clear, LoadEdges, Exclusive — nothing else
//     publishes) drains the shards in shard order into the writer-side
//     LogGraph, compacts it, copies the compacted arrays into the spare
//     buffer, and swaps the current-epoch pointer to it. Exactly two
//     buffers exist; before reusing the spare, the publisher waits for the
//     reader count pinned on it (stragglers from before the previous swap)
//     to drain to zero. Readers never wait; only the publisher can.
//
// # Determinism (serial-reference guarantee)
//
// Compaction folds the tail row by row, so the compacted arrays depend only
// on the per-source subsequence of statements, never on cross-source
// interleaving. Because a source's statements all land on one shard in
// arrival order and shards are drained in shard order, any concurrent
// schedule that preserves per-source statement order produces compacted
// CSR arrays — and therefore EigenTrust vectors — bit-identical to the
// serial LogGraph replaying the same per-source sequences. The concurrent
// differential tests pin this for randomized mixed schedules.
//
// # Visibility
//
// Lock-free reads see the last-published epoch: statements enqueued since
// then become visible at the next publish, which the owner schedules (a
// server flushes when Stats().Pending reaches its watermark, a simulation
// at its refresh cadence). The exact, fully merged view is available
// through the maintenance plane (Exclusive, AppendEdges), which flushes
// first.
// ConcurrentGraph implements Graph with lock-free point reads on the
// serving plane and flushing mutators, so the solvers and snapshot codecs
// run against it unchanged.
type ConcurrentGraph struct {
	n       int
	shards  []ingestShard
	pending atomic.Int64 // enqueued, not yet drained statements

	mu       sync.Mutex // maintenance lock: log, spare buffer, publishing
	log      *LogGraph  // writer-side store; guarded by mu
	drainBuf [][]logOp  // per-shard spare slices swapped in at drain
	dirty    bool       // log changed since the last publish; guarded by mu

	cur   atomic.Pointer[GraphEpoch]
	spare *GraphEpoch // retired buffer, reused at the next publish; guarded by mu
	seq   uint64      // publish sequence; guarded by mu

	trust atomic.Pointer[TrustSnapshot]

	// Counters for inspection tooling (repinspect -graph, stress tests).
	flushes     atomic.Uint64
	swaps       atomic.Uint64
	retireWaits atomic.Uint64
}

// ConcurrentStats is a point-in-time counter snapshot of a ConcurrentGraph,
// read without the maintenance lock.
type ConcurrentStats struct {
	Epoch       uint64 // sequence of the currently published epoch
	Swaps       uint64 // epochs published (pointer swaps)
	RetireWaits uint64 // publishes that had to wait for a reader drain
	Flushes     uint64 // ingest drains
	Pending     int64  // statements enqueued but not yet drained
	Readers     int64  // readers pinned on the published epoch right now
}

// NewConcurrentGraph creates a concurrent trust store over n peers with the
// given ingest shard count (0 = default). The zero-edge founding epoch is
// published immediately, so readers can Acquire before the first write.
func NewConcurrentGraph(n, shards int) (*ConcurrentGraph, error) {
	log, err := NewLogGraph(n)
	if err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = defaultIngestShards
	}
	if shards > n {
		shards = n
	}
	cg := &ConcurrentGraph{
		n:        n,
		shards:   make([]ingestShard, shards),
		log:      log,
		drainBuf: make([][]logOp, shards),
		spare:    newGraphEpoch(n),
	}
	cg.cur.Store(newGraphEpoch(n))
	return cg, nil
}

// Len returns the number of peers.
func (cg *ConcurrentGraph) Len() int { return cg.n }

func (cg *ConcurrentGraph) checkRange(from, to int) error {
	if from < 0 || from >= cg.n || to < 0 || to >= cg.n {
		return fmt.Errorf("reputation: edge (%d,%d) out of range [0,%d)", from, to, cg.n)
	}
	return nil
}

// AddTrust accumulates w onto the local trust of from in to: an O(1) append
// onto the source's ingest shard, visible to readers at the next publish.
// Semantics match LogGraph (self-trust and non-positive w ignored).
func (cg *ConcurrentGraph) AddTrust(from, to int, w float64) error {
	if err := cg.checkRange(from, to); err != nil {
		return err
	}
	if from == to || w <= 0 {
		return nil
	}
	cg.enqueue(logOp{from: int32(from), to: int32(to), w: w})
	return nil
}

// SetTrust overwrites the local trust of from in to (zero deletes, negative
// clamps to zero), with the same enqueue path and visibility as AddTrust.
func (cg *ConcurrentGraph) SetTrust(from, to int, w float64) error {
	if err := cg.checkRange(from, to); err != nil {
		return err
	}
	if from == to {
		return nil
	}
	if w < 0 {
		w = 0
	}
	cg.enqueue(logOp{from: int32(from), to: int32(to), w: w, set: true})
	return nil
}

// enqueue appends one pre-validated statement to its source's shard. It
// never publishes: the statement is folded in by the next maintenance call.
func (cg *ConcurrentGraph) enqueue(op logOp) {
	sh := &cg.shards[int(op.from)%len(cg.shards)]
	sh.mu.Lock()
	sh.ops = append(sh.ops, op)
	sh.mu.Unlock()
	cg.pending.Add(1)
}

// acquirePinHook, when non-nil, runs between the reader-count increment and
// the pointer re-validation in Acquire. Test-only: it lets the rollback
// regression test drive publishes into exactly that window, where the pinned
// epoch can be swapped out and a second publish can park on its drain
// signal. Always nil outside tests; tests set it before spawning goroutines
// and restore it before the test returns.
var acquirePinHook func(*GraphEpoch)

// Acquire pins and returns the current epoch. The increment is re-validated
// against the epoch pointer: if a publish swapped the pointer between the
// load and the increment, the pin is rolled back and retried, so a returned
// epoch is always one whose buffers the publisher is not reusing. The
// rollback must go through Release, not a bare decrement: between the
// increment and the re-validation two publishes can complete, leaving the
// publisher parked on this very epoch's drain signal — and since the epoch
// is no longer reachable through the current pointer, no later reader's
// Release would ever wake it. Acquire never blocks and never allocates.
func (cg *ConcurrentGraph) Acquire() *GraphEpoch {
	for {
		e := cg.cur.Load()
		e.readers.Add(1)
		if h := acquirePinHook; h != nil {
			h(e)
		}
		if cg.cur.Load() == e {
			return e
		}
		e.Release()
	}
}

// Trust returns the local trust of from in to as of the last published
// epoch — a lock-free point read (Acquire, binary search, Release).
func (cg *ConcurrentGraph) Trust(from, to int) float64 {
	e := cg.Acquire()
	v := e.Trust(from, to)
	e.Release()
	return v
}

// OutDegree returns peer i's out-degree as of the last published epoch.
func (cg *ConcurrentGraph) OutDegree(i int) int {
	e := cg.Acquire()
	d := e.OutDegree(i)
	e.Release()
	return d
}

// OutEdges calls fn for every outgoing edge of peer i as of the last
// published epoch, columns ascending. The epoch is pinned for the duration
// of the iteration; consumers that read several rows coherently should
// Acquire an epoch themselves.
func (cg *ConcurrentGraph) OutEdges(i int, fn func(to int, w float64)) {
	e := cg.Acquire()
	e.OutEdges(i, fn)
	e.Release()
}

// Flush drains the ingest shards into the edge log, compacts, and publishes
// a new epoch. Blocks only writers/maintenance; readers stay lock-free
// throughout. A Flush that finds nothing new (no queued statements, no log
// mutation since the last publish) is a no-op: the published epoch already
// reflects every completed write, so no swap is forced.
func (cg *ConcurrentGraph) Flush() {
	cg.mu.Lock()
	cg.drainLocked()
	if cg.dirty {
		cg.publishLocked()
	}
	cg.mu.Unlock()
}

// Compact is Flush under the name the serial store uses, so code written
// against LogGraph's explicit-compaction idiom ports over unchanged.
func (cg *ConcurrentGraph) Compact() { cg.Flush() }

// AppendEdges flushes and appends every edge to dst in the canonical
// ascending (From, To) order. Maintenance plane: exact, not lock-free.
func (cg *ConcurrentGraph) AppendEdges(dst []Edge) []Edge {
	cg.mu.Lock()
	cg.drainLocked()
	dst = cg.log.AppendEdges(dst)
	if cg.dirty {
		cg.publishLocked()
	}
	cg.mu.Unlock()
	return dst
}

// LoadEdges replaces the graph's content with the given edges and publishes
// the result, discarding any statements still queued in the shards (they
// predate the load, which replaces all content anyway).
func (cg *ConcurrentGraph) LoadEdges(edges []Edge) error {
	cg.mu.Lock()
	defer cg.mu.Unlock()
	cg.discardLocked()
	if err := cg.log.LoadEdges(edges); err != nil {
		return err
	}
	cg.dirty = true
	cg.publishLocked()
	return nil
}

// Clear removes every trust statement (including queued ones) and publishes
// the empty graph.
func (cg *ConcurrentGraph) Clear() {
	cg.mu.Lock()
	cg.discardLocked()
	cg.log.Clear()
	cg.dirty = true
	cg.publishLocked()
	cg.mu.Unlock()
}

// ClearPeer flushes queued statements, removes peer i's row and incoming
// edges from the log, and publishes — the identity-churn primitive.
// Statements enqueued before the call are folded in first, so a clear
// linearizes after every write that completed before it.
func (cg *ConcurrentGraph) ClearPeer(i int) error {
	cg.mu.Lock()
	defer cg.mu.Unlock()
	cg.drainLocked()
	if err := cg.log.ClearPeer(i); err != nil {
		return err
	}
	cg.dirty = true
	cg.publishLocked()
	return nil
}

// Exclusive drains the ingest shards and runs fn with the writer-side
// LogGraph under the maintenance lock, then publishes the (possibly
// mutated) state as a fresh epoch and returns that epoch's sequence. This
// is the solver hook: an EigenTrust refresh runs against the exact merged
// log — reusing the CSR fast paths keyed on the LogGraph pointer — while
// readers keep serving the previous epoch, and the refreshed state becomes
// visible atomically afterwards. A result computed inside fn should be
// republished via PublishTrustAt with the returned sequence, so the stamp
// names the epoch the result was computed from even if a concurrent Flush
// publishes in between. fn must not retain the *LogGraph beyond the call.
func (cg *ConcurrentGraph) Exclusive(fn func(*LogGraph)) uint64 {
	cg.mu.Lock()
	cg.drainLocked()
	fn(cg.log)
	cg.dirty = true // fn may have mutated the log; republish unconditionally
	cg.publishLocked()
	seq := cg.seq
	cg.mu.Unlock()
	return seq
}

// PublishTrustAt publishes a copy of vec as the current immutable trust
// snapshot, stamped with seq — the graph epoch sequence the vector was
// computed from, typically the value Exclusive returned for the solve.
// Readers holding the previous snapshot are unaffected; the next refresh
// never waits for them.
func (cg *ConcurrentGraph) PublishTrustAt(seq uint64, vec []float64) {
	snap := &TrustSnapshot{
		Seq:    seq,
		Vector: append(make([]float64, 0, len(vec)), vec...),
	}
	cg.trust.Store(snap)
}

// PublishTrust is PublishTrustAt stamped with the epoch published at call
// time. Prefer PublishTrustAt with the sequence Exclusive returned when the
// vector came out of a solve: a concurrent Flush can advance the current
// epoch between the solve and this call, and the call-time stamp would then
// name an epoch newer than the vector.
func (cg *ConcurrentGraph) PublishTrust(vec []float64) {
	cg.PublishTrustAt(cg.cur.Load().seq, vec)
}

// TrustSnapshot returns the last published trust snapshot (nil before the
// first PublishTrust) — one atomic load, safe from any goroutine.
func (cg *ConcurrentGraph) TrustSnapshot() *TrustSnapshot {
	return cg.trust.Load()
}

// Stats returns the current counter snapshot.
func (cg *ConcurrentGraph) Stats() ConcurrentStats {
	e := cg.Acquire()
	s := ConcurrentStats{
		Epoch:       e.seq,
		Swaps:       cg.swaps.Load(),
		RetireWaits: cg.retireWaits.Load(),
		Flushes:     cg.flushes.Load(),
		Pending:     cg.pending.Load(),
		Readers:     e.readers.Load() - 1, // exclude our own pin
	}
	e.Release()
	return s
}

// drainLocked moves every queued statement into the edge log, shard by
// shard in shard order. Statement replay happens outside the shard locks
// (the slices are swapped out against drained spares), so writers are
// blocked only for the pointer swap. Caller holds mu.
func (cg *ConcurrentGraph) drainLocked() int {
	total := 0
	for i := range cg.shards {
		sh := &cg.shards[i]
		sh.mu.Lock()
		ops := sh.ops
		sh.ops = cg.drainBuf[i][:0]
		sh.mu.Unlock()
		for k := range ops {
			cg.log.append(ops[k])
		}
		cg.drainBuf[i] = ops[:0]
		total += len(ops)
	}
	if total > 0 {
		cg.pending.Add(int64(-total))
		cg.flushes.Add(1)
		cg.dirty = true
	}
	return total
}

// discardLocked empties the ingest shards without replaying them — used by
// whole-graph replacement (Clear, LoadEdges). Caller holds mu.
func (cg *ConcurrentGraph) discardLocked() {
	for i := range cg.shards {
		sh := &cg.shards[i]
		sh.mu.Lock()
		n := len(sh.ops)
		sh.ops = sh.ops[:0]
		sh.mu.Unlock()
		if n > 0 {
			cg.pending.Add(int64(-n))
		}
	}
}

// publishLocked compacts the log, copies its CSR arrays into the spare
// buffer, and swaps it in as the new current epoch; the displaced buffer
// becomes the next spare. Before writing, it waits for readers still pinned
// on the spare (stragglers from before the previous swap) to drain — the
// retirement step: an epoch's buffers are reused only once unreachable AND
// unpinned. Exactly two buffers exist for the lifetime of the graph.
// Caller holds mu.
func (cg *ConcurrentGraph) publishLocked() {
	e := cg.spare
	if e.readers.Load() != 0 {
		// Park, don't spin: on a loaded (or single-CPU) machine a pinned
		// reader may sit preempted for a scheduler quantum, and a spinning
		// waiter would burn exactly the CPU that reader needs to finish and
		// release. Parking frees the processor and the drain signal wakes us.
		cg.retireWaits.Add(1)
		e.retiring.Store(true)
		for e.readers.Load() != 0 {
			<-e.drained
		}
		e.retiring.Store(false)
		// Drop any signal raced in after the final drain so a stale token
		// cannot satisfy the next retirement's wait prematurely.
		select {
		case <-e.drained:
		default:
		}
	}
	cg.log.Compact()
	cg.dirty = false
	cg.seq++
	e.seq = cg.seq
	e.n = cg.n
	e.rowPtr = growInts(e.rowPtr, cg.n+1)
	copy(e.rowPtr, cg.log.rowPtr)
	nnz := len(cg.log.val)
	e.colIdx = growInt32s(e.colIdx, nnz)
	e.val = growFloats(e.val, nnz)
	copy(e.colIdx, cg.log.colIdx)
	copy(e.val, cg.log.val)
	cg.spare = cg.cur.Swap(e)
	cg.swaps.Add(1)
}

// compile-time check: the concurrent store satisfies the Graph interface.
var _ Graph = (*ConcurrentGraph)(nil)
