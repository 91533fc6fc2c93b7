package reputation

import (
	"reflect"
	"testing"

	"collabnet/internal/xrand"
)

// applyGraphOp applies the op-stream step described by (kind, a, b, w) to a
// graph; the randomized differential and the fuzz target share it so both
// exercise the identical op vocabulary: add, set (incl. zero = delete),
// clear, compact (no-op on the map reference), and the read-only queries
// are checked by the callers.
func applyGraphOp(g Graph, kind int, a, b int, w float64) {
	switch kind {
	case 0:
		g.AddTrust(a, b, w)
	case 1:
		g.SetTrust(a, b, w)
	case 2:
		g.SetTrust(a, b, 0) // explicit delete
	case 3:
		g.Clear()
	case 4:
		if lg, ok := g.(*LogGraph); ok {
			lg.Compact()
		}
	}
}

// checkGraphsEqual compares every observable of the two implementations:
// point reads, degrees, the canonical edge list, and the merged row view.
func checkGraphsEqual(t *testing.T, ref *TrustGraph, lg *LogGraph) {
	t.Helper()
	n := ref.Len()
	if lg.Len() != n {
		t.Fatalf("Len: %d vs %d", lg.Len(), n)
	}
	for i := 0; i < n; i++ {
		if rd, ld := ref.OutDegree(i), lg.OutDegree(i); rd != ld {
			t.Fatalf("OutDegree(%d): map %d, log %d", i, rd, ld)
		}
		for j := 0; j < n; j++ {
			if rv, lv := ref.Trust(i, j), lg.Trust(i, j); rv != lv {
				t.Fatalf("Trust(%d,%d): map %v, log %v", i, j, rv, lv)
			}
		}
		// OutEdges as an unordered multiset: accumulate into dense rows.
		rrow := make([]float64, n)
		lrow := make([]float64, n)
		ref.OutEdges(i, func(to int, w float64) { rrow[to] += w })
		lg.OutEdges(i, func(to int, w float64) { lrow[to] += w })
		if !reflect.DeepEqual(rrow, lrow) {
			t.Fatalf("OutEdges(%d): map %v, log %v", i, rrow, lrow)
		}
	}
	// Canonical edge lists must agree byte-for-byte (AppendEdges compacts
	// the log graph, so check it last).
	re := ref.AppendEdges(nil)
	le := lg.AppendEdges(nil)
	if len(re) == 0 && len(le) == 0 {
		return
	}
	if !reflect.DeepEqual(re, le) {
		t.Fatalf("AppendEdges: map %v, log %v", re, le)
	}
}

// TestGraphDifferentialRandomOps is the tentpole pin: random interleaved
// add/set/delete/clear/compact/query sequences drive the edge-log graph and
// the map-backed reference in lockstep; every observable must agree at
// every checkpoint.
func TestGraphDifferentialRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(12)
		ref, err := NewTrustGraph(n)
		if err != nil {
			t.Fatal(err)
		}
		lg, err := NewLogGraph(n)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Bool(0.5) {
			lg.SetWatermark(1 + rng.Intn(8)) // force frequent auto-compaction
		}
		steps := 100 + rng.Intn(200)
		for s := 0; s < steps; s++ {
			kind := rng.Intn(5)
			a, b := rng.Intn(n), rng.Intn(n)
			w := rng.Float64() * 4
			applyGraphOp(ref, kind, a, b, w)
			applyGraphOp(lg, kind, a, b, w)
			if s%17 == 0 {
				checkGraphsEqual(t, ref, lg)
			}
		}
		checkGraphsEqual(t, ref, lg)
	}
}

// buildGraphPair fills a map graph and a log graph with the same random
// statement stream and returns both.
func buildGraphPair(t *testing.T, n int, density float64, seed uint64) (*TrustGraph, *LogGraph) {
	t.Helper()
	ref, err := NewTrustGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLogGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Bool(density) {
				w := rng.Float64()*5 + 0.01
				ref.AddTrust(i, j, w)
				lg.AddTrust(i, j, w)
			}
		}
	}
	return ref, lg
}

// TestEigenTrustBitIdenticalAcrossGraphs pins the acceptance criterion:
// EigenTrust over the edge-log graph is bit-identical to the map-backed
// graph — against the dense reference and through the sparse solver, with
// the log graph checked both compacted and with a pending tail.
func TestEigenTrustBitIdenticalAcrossGraphs(t *testing.T) {
	cfg := DefaultEigenTrust()
	for seed := uint64(1); seed <= 6; seed++ {
		n := 5 + int(seed)*7
		ref, lg := buildGraphPair(t, n, 0.15, seed)
		cfg.PreTrusted = nil
		if seed%2 == 0 {
			cfg.PreTrusted = []int{0, n - 1}
		}
		want, err := EigenTrustDense(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gotDense, _ := EigenTrustDense(lg, cfg); !reflect.DeepEqual(gotDense, want) {
			t.Fatalf("seed %d: dense over log graph differs", seed)
		}
		gotMap, err := EigenTrust(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotLog, err := EigenTrust(lg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotMap, want) || !reflect.DeepEqual(gotLog, want) {
			t.Fatalf("seed %d: sparse paths differ from dense", seed)
		}
		// A pending tail (uncompacted statements) must not change results.
		rng := xrand.New(seed + 99)
		for k := 0; k < 5; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			w := rng.Float64() + 0.01
			ref.AddTrust(i, j, w)
			lg.AddTrust(i, j, w)
		}
		want2, _ := EigenTrustDense(ref, cfg)
		got2, err := EigenTrust(lg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got2, want2) {
			t.Fatalf("seed %d: tailed log graph differs", seed)
		}
	}
}

// TestMaxFlowBitIdenticalAcrossGraphs pins MaxFlow and MaxFlowTrust to
// identical outputs over the two graph stores: the
// canonical edge list fixes the augmenting order, so the flows are
// bit-identical, not merely close.
func TestMaxFlowBitIdenticalAcrossGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		n := 4 + int(seed)*3
		ref, lg := buildGraphPair(t, n, 0.25, seed*13)
		for s := 0; s < n; s += 2 {
			fm, err := MaxFlow(ref, s, n-1-s%n)
			if err != nil {
				t.Fatal(err)
			}
			fl, err := MaxFlow(lg, s, n-1-s%n)
			if err != nil {
				t.Fatal(err)
			}
			if fm != fl {
				t.Fatalf("seed %d: MaxFlow(%d,%d) map %v log %v", seed, s, n-1-s%n, fm, fl)
			}
		}
		vm, err := MaxFlowTrust(ref, 0)
		if err != nil {
			t.Fatal(err)
		}
		vl, err := MaxFlowTrust(lg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vm, vl) {
			t.Fatalf("seed %d: MaxFlowTrust differs", seed)
		}
	}
}

// TestCSRFromLogGraphMatchesMap builds the EigenTrust CSR from both stores
// over random graphs and demands identical dense forms — the structural
// guarantee behind the bit-identical vectors.
func TestCSRFromLogGraphMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		n := 3 + int(seed)*5
		ref, lg := buildGraphPair(t, n, 0.2, seed*7)
		cm := NewCSR(ref)
		cl := NewCSR(lg)
		if !reflect.DeepEqual(cm.Dense(), cl.Dense()) {
			t.Fatalf("seed %d: CSR dense forms differ", seed)
		}
		if !reflect.DeepEqual(cm.Dangling(), cl.Dangling()) {
			t.Fatalf("seed %d: dangling sets differ", seed)
		}
		checkCSRInvariants(t, cl, ref)
	}
}
