package reputation

import "fmt"

// This file is the data half of the destination-range sharded EigenTrust
// solver (the round protocol lives in shardsolver.go): ShardSlice is what
// one shard of a distributed deployment would hold — a contiguous
// destination range of the transposed, normalized local-trust matrix and
// nothing else — and ShardPlan cuts the K slices out of the one transposed
// CSR. The transposed layout is destination-major, so shard s's range
// [Lo,Hi) is a contiguous window of CSR.tRowPtr/tColIdx/tVal: a slice is a
// view of that window (exactly the bytes a real transport would ship), not
// a second matrix.

// ShardSlice is one destination-range slice of the transposed local-trust
// matrix: everything shard s needs to compute components [Lo,Hi) of a
// power iteration from a full t-vector, and nothing else. The layout
// mirrors the global CSR's transpose restricted to the range — for each
// owned destination j, TColIdx holds the sources trusting j in strictly
// ascending order and TVal the normalized weights c_ij — so a dot product
// over a slice row accumulates in exactly the order the serial solver
// uses, which is what makes the sharded solve bit-identical.
type ShardSlice struct {
	// Lo, Hi bound the owned destination range [Lo, Hi).
	Lo, Hi int
	// N is the total peer count (matrix dimension); source indices in
	// TColIdx are global, in [0, N).
	N int
	// TRowPtr is local: entries of owned destination j live at
	// [TRowPtr[j-Lo], TRowPtr[j-Lo+1]) in TColIdx/TVal.
	TRowPtr []int
	TColIdx []int32
	TVal    []float64
	// Dangling is the global dangling-row list (peers with no outgoing
	// trust, ascending). Every shard carries the full list because the
	// dangling mass is a sum over the full t-vector, which each shard
	// assembles from the exchanged slices anyway.
	Dangling []int32
}

// Rows returns the number of destinations the slice owns.
func (s *ShardSlice) Rows() int { return s.Hi - s.Lo }

// NNZ returns the number of stored normalized trust entries.
func (s *ShardSlice) NNZ() int { return len(s.TVal) }

// danglingMass sums t over the dangling rows in ascending order — the walk
// mass the iteration redistributes to the pre-trust distribution.
func (s *ShardSlice) danglingMass(t []float64) float64 {
	dm := 0.0
	for _, i := range s.Dangling {
		dm += t[i]
	}
	return dm
}

// gather computes dst[0:Rows()] = components [Lo,Hi) of one power
// iteration from the full previous iterate src. p is the pre-trust
// distribution restricted to the owned range (p[r] = global p[Lo+r]), dm
// the dangling mass of src. This is the only gather kernel: the serial
// workspace runs it over the single K=1 slice, the sharded solver over each
// shard's slice. Every component is one contiguous dot product whose
// accumulation order is fixed by the layout (sources ascending), never by
// the partition, which is what makes every shard count bit-identical.
func (s *ShardSlice) gather(dst, src, p []float64, damping, dm float64) {
	a := damping
	om := 1 - a
	tp, tc, tv := s.TRowPtr, s.TColIdx, s.TVal
	for r := 0; r < s.Hi-s.Lo; r++ {
		sum := 0.0
		for e := tp[r]; e < tp[r+1]; e++ {
			sum += src[tc[e]] * tv[e]
		}
		dst[r] = om*(sum+dm*p[r]) + a*p[r]
	}
}

// ShardRange returns the destination range [lo, hi) that shard s of k owns
// over an n-peer graph: a contiguous equal split.
func ShardRange(n, k, s int) (lo, hi int) {
	return s * n / k, (s + 1) * n / k
}

// ShardPlan is one CSR plus K ShardSlice views of its transposed arrays.
// Refresh is CSR.Refresh — same values-only / structural-patch / build
// decision, same RefreshStats — followed, whenever the pattern moved, by
// re-cutting the views (a patch shifts the window boundaries, a build may
// reallocate the arrays). A refresh that reports a stable pattern writes
// each value into its searched slot of the arrays the views alias, so the
// slices are current without being touched.
type ShardPlan struct {
	k      int
	csr    CSR
	slices []ShardSlice
}

// NewShardPlan cuts the k destination-range slices of g's normalized
// local-trust matrix. k must be at least 1; k larger than the peer count is
// allowed (the surplus shards own empty ranges).
func NewShardPlan(g *LogGraph, k int) (*ShardPlan, error) {
	if k < 1 {
		return nil, fmt.Errorf("reputation: shard plan needs at least 1 shard, got %d", k)
	}
	p := newShardPlan(k)
	p.Refresh(g)
	return p, nil
}

// newShardPlan returns an empty plan; the first Refresh cuts the slices.
func newShardPlan(k int) *ShardPlan {
	return &ShardPlan{k: k, slices: make([]ShardSlice, k)}
}

// Shards returns the number of slices k.
func (p *ShardPlan) Shards() int { return p.k }

// Len returns the number of peers the slices were cut for.
func (p *ShardPlan) Len() int { return p.csr.n }

// NNZ returns the total number of stored entries across all slices.
func (p *ShardPlan) NNZ() int { return p.csr.NNZ() }

// Slices returns the plan's slices. The returned slice and its contents are
// owned by the plan and remain valid until the next Refresh.
func (p *ShardPlan) Slices() []ShardSlice { return p.slices }

// Slice returns slice s.
func (p *ShardPlan) Slice(s int) *ShardSlice { return &p.slices[s] }

// LastRefresh returns what the most recent Refresh call did.
func (p *ShardPlan) LastRefresh() RefreshStats { return p.csr.LastRefresh() }

// Refresh brings the slices up to date with g, reporting true when the
// sparsity pattern was stable (nothing moved, no re-cut).
func (p *ShardPlan) Refresh(g Graph) bool {
	stable := p.csr.Refresh(g)
	if !stable {
		p.recut()
	}
	return stable
}

// recut points every slice at its window of the CSR's transposed arrays.
// TRowPtr is the one thing a slice owns: the window's row pointers rebased
// to the slice's first entry.
func (p *ShardPlan) recut() {
	c := &p.csr
	for s := range p.slices {
		sl := &p.slices[s]
		lo, hi := ShardRange(c.n, p.k, s)
		base, end := c.tRowPtr[lo], c.tRowPtr[hi]
		sl.Lo, sl.Hi, sl.N = lo, hi, c.n
		sl.TRowPtr = growInts(sl.TRowPtr, hi-lo+1)
		for r := range sl.TRowPtr {
			sl.TRowPtr[r] = c.tRowPtr[lo+r] - base
		}
		sl.TColIdx = c.tColIdx[base:end:end]
		sl.TVal = c.tVal[base:end:end]
		sl.Dangling = c.dangling[:len(c.dangling):len(c.dangling)]
	}
}
