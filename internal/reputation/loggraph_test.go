package reputation

import (
	"reflect"
	"testing"

	"collabnet/internal/xrand"
)

func TestLogGraphBasics(t *testing.T) {
	g, err := NewLogGraph(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	if err := g.SetTrust(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if got := g.Trust(0, 1); got != 2.5 {
		t.Errorf("Trust(0,1) = %v (uncompacted)", got)
	}
	g.Compact()
	if got := g.Trust(0, 1); got != 2.5 {
		t.Errorf("Trust(0,1) = %v (compacted)", got)
	}
	if got := g.Trust(1, 0); got != 0 {
		t.Errorf("reverse edge should be absent, got %v", got)
	}
	if g.TailLen() != 0 {
		t.Errorf("tail not folded: %d", g.TailLen())
	}
	if g.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1", g.NNZ())
	}
}

func TestLogGraphRejectsOutOfRange(t *testing.T) {
	g, _ := NewLogGraph(3)
	if err := g.SetTrust(-1, 0, 1); err == nil {
		t.Error("negative from should error")
	}
	if err := g.SetTrust(0, 3, 1); err == nil {
		t.Error("to out of range should error")
	}
	if err := g.AddTrust(5, 0, 1); err == nil {
		t.Error("AddTrust out of range should error")
	}
	if _, err := NewLogGraph(0); err == nil {
		t.Error("empty graph should error")
	}
}

func TestLogGraphSelfAndNegative(t *testing.T) {
	g, _ := NewLogGraph(3)
	if err := g.SetTrust(1, 1, 5); err != nil {
		t.Fatal(err)
	}
	if g.Trust(1, 1) != 0 {
		t.Error("self trust should be ignored")
	}
	g.SetTrust(0, 1, -4)
	if g.Trust(0, 1) != 0 {
		t.Error("negative trust should clamp to 0")
	}
	g.SetTrust(0, 1, 3)
	g.SetTrust(0, 1, 0)
	if g.OutDegree(0) != 0 {
		t.Error("zero trust should remove the edge (uncompacted view)")
	}
	g.Compact()
	if g.OutDegree(0) != 0 || g.NNZ() != 0 {
		t.Error("zero trust should remove the edge (compacted)")
	}
}

func TestLogGraphAddAccumulatesAcrossCompaction(t *testing.T) {
	g, _ := NewLogGraph(3)
	g.AddTrust(0, 1, 1)
	g.Compact()
	g.AddTrust(0, 1, 2)
	if got := g.Trust(0, 1); got != 3 {
		t.Errorf("accumulated trust = %v, want 3", got)
	}
	g.Compact()
	if got := g.Trust(0, 1); got != 3 {
		t.Errorf("compacted accumulated trust = %v, want 3", got)
	}
	g.AddTrust(0, 2, -1) // ignored
	if g.Trust(0, 2) != 0 {
		t.Error("negative AddTrust should be ignored")
	}
}

func TestLogGraphSetOverridesPendingAdds(t *testing.T) {
	g, _ := NewLogGraph(3)
	g.AddTrust(0, 1, 5)
	g.SetTrust(0, 1, 2)
	g.AddTrust(0, 1, 1)
	if got := g.Trust(0, 1); got != 3 {
		t.Errorf("set+add tail = %v, want 3", got)
	}
	g.Compact()
	if got := g.Trust(0, 1); got != 3 {
		t.Errorf("compacted set+add = %v, want 3", got)
	}
}

func TestLogGraphOutEdgesMergedAndCompacted(t *testing.T) {
	g, _ := NewLogGraph(5)
	g.SetTrust(2, 0, 1)
	g.SetTrust(2, 3, 2)
	g.Compact()
	g.SetTrust(2, 4, 3) // tail-only column
	g.SetTrust(2, 0, 0) // tail deletion of a compacted column
	sum, cnt := 0.0, 0
	g.OutEdges(2, func(to int, w float64) { sum += w; cnt++ })
	if cnt != 2 || sum != 5 {
		t.Errorf("merged row: %d edges, total %v (want 2, 5)", cnt, sum)
	}
	if g.OutDegree(2) != 2 {
		t.Errorf("merged OutDegree = %d", g.OutDegree(2))
	}
	g.Compact()
	sum, cnt = 0, 0
	g.OutEdges(2, func(to int, w float64) { sum += w; cnt++ })
	if cnt != 2 || sum != 5 {
		t.Errorf("compacted row: %d edges, total %v", cnt, sum)
	}
	g.OutEdges(99, func(int, float64) { t.Error("out of range should visit nothing") })
}

func TestLogGraphClearAndReuse(t *testing.T) {
	g, _ := NewLogGraph(4)
	g.SetTrust(0, 1, 2)
	g.Compact()
	g.SetTrust(1, 2, 3)
	g.Clear()
	if g.Len() != 4 || g.NNZ() != 0 || g.TailLen() != 0 {
		t.Fatalf("Clear left nnz=%d tail=%d", g.NNZ(), g.TailLen())
	}
	for i := 0; i < 4; i++ {
		if g.OutDegree(i) != 0 {
			t.Fatalf("peer %d still has edges after Clear", i)
		}
	}
	if err := g.SetTrust(2, 3, 5); err != nil {
		t.Fatal(err)
	}
	if g.Trust(2, 3) != 5 {
		t.Fatal("cleared graph rejected new trust")
	}
}

func TestLogGraphCloneIndependence(t *testing.T) {
	g, _ := NewLogGraph(3)
	g.SetTrust(0, 1, 1)
	g.Compact()
	g.AddTrust(0, 2, 4) // leave a tail in the clone source
	cp := g.Clone()
	cp.SetTrust(0, 1, 9)
	cp.Compact()
	if g.Trust(0, 1) != 1 || g.Trust(0, 2) != 4 {
		t.Error("Clone shares storage")
	}
	if cp.Trust(0, 1) != 9 || cp.Trust(0, 2) != 4 {
		t.Error("Clone missing data")
	}
}

func TestLogGraphAppendEdgesCanonical(t *testing.T) {
	g, _ := NewLogGraph(4)
	ref, _ := NewTrustGraph(4)
	for _, e := range []Edge{{2, 1, 3}, {0, 3, 1}, {0, 1, 2}, {2, 0, 5}} {
		g.AddTrust(e.From, e.To, e.W)
		ref.AddTrust(e.From, e.To, e.W)
	}
	got := g.AppendEdges(nil)
	want := ref.AppendEdges(nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AppendEdges = %v, want %v", got, want)
	}
	if g.TailLen() != 0 {
		t.Error("AppendEdges should compact")
	}
}

func TestLogGraphLoadEdgesRoundTrip(t *testing.T) {
	g, _ := NewLogGraph(5)
	rng := xrand.New(11)
	for k := 0; k < 40; k++ {
		g.AddTrust(rng.Intn(5), rng.Intn(5), rng.Float64()*3)
	}
	edges := g.AppendEdges(nil)
	g2, _ := NewLogGraph(5)
	if err := g2.LoadEdges(edges); err != nil {
		t.Fatal(err)
	}
	if got := g2.AppendEdges(nil); !reflect.DeepEqual(got, edges) {
		t.Errorf("LoadEdges round trip mismatch:\n got %v\nwant %v", got, edges)
	}
	if err := g2.LoadEdges([]Edge{{From: 9, To: 0, W: 1}}); err == nil {
		t.Error("out-of-range edge should error")
	}
}

func TestLogGraphWatermarkAutoCompacts(t *testing.T) {
	g, _ := NewLogGraph(8)
	g.SetWatermark(16)
	for k := 0; k < 200; k++ {
		g.AddTrust(k%8, (k+1)%8, 1)
	}
	if g.TailLen() >= 16 {
		t.Errorf("tail %d not bounded by watermark", g.TailLen())
	}
	// Values survive the automatic compactions.
	if got := g.Trust(0, 1); got != 25 {
		t.Errorf("Trust(0,1) = %v, want 25", got)
	}
	g.SetWatermark(0) // back to automatic
	if g.threshold() < defaultLogWatermark {
		t.Errorf("automatic threshold = %d", g.threshold())
	}
}

// TestLogGraphSteadyStateCycleAllocs pins the acceptance bar: once the
// sparsity pattern and all buffers are warm, the full
// AddTrust→Compact→Compute cycle performs zero allocations.
func TestLogGraphSteadyStateCycleAllocs(t *testing.T) {
	const n = 64
	g, _ := NewLogGraph(n)
	rng := xrand.New(7)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Bool(0.1) {
				g.AddTrust(i, j, rng.Float64()+0.1)
			}
		}
	}
	g.Compact()
	ws := NewEigenTrustWorkspace()
	cfg := DefaultEigenTrust()
	if _, err := ws.Compute(g, cfg); err != nil {
		t.Fatal(err)
	}
	// Warm the tail capacity and the compaction scratch on the stable
	// pattern (value-only accumulation on existing edges).
	edges := g.AppendEdges(nil)
	cycle := func() {
		for k := 0; k < 32; k++ {
			e := edges[k%len(edges)]
			if err := g.AddTrust(e.From, e.To, 0.01); err != nil {
				t.Fatal(err)
			}
		}
		g.Compact()
		if _, err := ws.Compute(g, cfg); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("steady-state AddTrust→Compact→Compute cycle allocates %v/op, want 0", allocs)
	}
}

// TestCSRRefreshLogValueOnly verifies the CSR's O(1) stability check: after
// a value-only change the refresh reports pattern stability, after a
// structural change it reports a rebuild — and both leave the CSR exactly
// matching the graph.
func TestCSRRefreshLogValueOnly(t *testing.T) {
	g, _ := NewLogGraph(6)
	g.AddTrust(0, 1, 1)
	g.AddTrust(1, 2, 2)
	g.AddTrust(2, 0, 3)
	c := NewCSR(g)
	g.AddTrust(0, 1, 5) // existing edge: value-only
	if !c.Refresh(g) {
		t.Error("value-only change should refresh in place")
	}
	ref, _ := NewTrustGraph(6)
	ref.AddTrust(0, 1, 6)
	ref.AddTrust(1, 2, 2)
	ref.AddTrust(2, 0, 3)
	if !reflect.DeepEqual(c.Dense(), expectedDense(ref)) {
		t.Error("refreshed CSR does not match the graph")
	}
	g.AddTrust(3, 4, 1) // new edge: structural
	if c.Refresh(g) {
		t.Error("structural change should rebuild")
	}
	ref.AddTrust(3, 4, 1)
	if !reflect.DeepEqual(c.Dense(), expectedDense(ref)) {
		t.Error("rebuilt CSR does not match the graph")
	}
}

// TestCompactScheduleInvariantFloat pins compaction schedule invariance on
// weights whose float additions do not associate: stores replaying the
// identical statement sequence must hold bit-identical compacted arrays no
// matter where their compaction (or epoch-publish) boundaries fell. The
// net-sum compaction collapse this replaced regrouped (base + Σadds) and
// diverged by ulps — invisible to the integer-weight suites, caught by the
// serving path's replay verification.
func TestCompactScheduleInvariantFloat(t *testing.T) {
	const n, ops = 16, 20000
	build := func(compactEvery int) *LogGraph {
		g, err := NewLogGraph(n)
		if err != nil {
			t.Fatal(err)
		}
		g.SetWatermark(1 << 30) // manual schedule only
		rng := xrand.New(99)
		for k := 1; k <= ops; k++ {
			from := rng.Intn(n)
			to := (from + 1 + rng.Intn(n-1)) % n
			if rng.Intn(16) == 0 {
				if err := g.SetTrust(from, to, rng.Float64()*10); err != nil {
					t.Fatal(err)
				}
			} else if err := g.AddTrust(from, to, 0.1+rng.Float64()*9); err != nil {
				t.Fatal(err)
			}
			if compactEvery > 0 && k%compactEvery == 0 {
				g.Compact()
			}
		}
		g.Compact()
		return g
	}
	ref := build(0) // one compaction at the end
	for _, every := range []int{1, 7, 64, 999} {
		g := build(every)
		if !reflect.DeepEqual(g.val, ref.val) ||
			!reflect.DeepEqual(g.colIdx, ref.colIdx) ||
			!reflect.DeepEqual(g.rowPtr, ref.rowPtr) {
			t.Fatalf("compaction every %d ops diverged from compact-once reference", every)
		}
	}

	// The same statements through the concurrent store (its epochs compact
	// at publish boundaries no serial replay sees) land bit-identically.
	cg, err := NewConcurrentGraph(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(99)
	for k := 1; k <= ops; k++ {
		from := rng.Intn(n)
		to := (from + 1 + rng.Intn(n-1)) % n
		if rng.Intn(16) == 0 {
			err = cg.SetTrust(from, to, rng.Float64()*10)
		} else {
			err = cg.AddTrust(from, to, 0.1+rng.Float64()*9)
		}
		if err != nil {
			t.Fatal(err)
		}
		if k%64 == 0 {
			cg.Flush()
		}
	}
	cg.Flush()
	got := cg.AppendEdges(nil)
	want := ref.AppendEdges(nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent store diverged from serial reference on float weights")
	}
}
