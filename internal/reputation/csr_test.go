package reputation

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"collabnet/internal/xrand"
)

// expectedDense computes the normalized matrix straight from the graph with
// ascending-column summation — the exact arithmetic order the CSR build
// promises — so comparisons can demand bit equality.
func expectedDense(g Graph) [][]float64 {
	n := g.Len()
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = make([]float64, n)
		sum := 0.0
		for j := 0; j < n; j++ {
			if w := g.Trust(i, j); w > 0 {
				m[i][j] = w
				sum += w
			}
		}
		if sum > 0 {
			for j := 0; j < n; j++ {
				if m[i][j] > 0 {
					m[i][j] = m[i][j] / sum
				}
			}
		}
	}
	return m
}

// checkCSRInvariants asserts structural sanity plus exact agreement with
// the graph: sorted ascending indices in both layouts, every forward entry
// found in the transpose by search, dangling = rows without outgoing trust.
func checkCSRInvariants(t *testing.T, c *CSR, g Graph) {
	t.Helper()
	n := g.Len()
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	if got, want := c.Dense(), expectedDense(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("CSR dense round-trip mismatch:\n got %v\nwant %v", got, want)
	}
	nnz := 0
	for i := 0; i < n; i++ {
		lo, hi := c.rowPtr[i], c.rowPtr[i+1]
		if lo > hi {
			t.Fatalf("rowPtr not monotone at %d", i)
		}
		nnz += hi - lo
		for k := lo + 1; k < hi; k++ {
			if c.colIdx[k-1] >= c.colIdx[k] {
				t.Fatalf("row %d columns not strictly ascending", i)
			}
		}
	}
	if nnz != c.NNZ() {
		t.Fatalf("NNZ = %d, rowPtr says %d", c.NNZ(), nnz)
	}
	for j := 0; j < n; j++ {
		for s := c.tRowPtr[j] + 1; s < c.tRowPtr[j+1]; s++ {
			if c.tColIdx[s-1] >= c.tColIdx[s] {
				t.Fatalf("transpose row %d sources not strictly ascending", j)
			}
		}
	}
	// Every forward entry must be found in the transpose by search, inside
	// its destination's row. Together with the equal entry counts and the
	// strict ordering above, the two patterns are then the same set.
	if len(c.tColIdx) != nnz || c.tRowPtr[n] != nnz {
		t.Fatalf("transpose holds %d entries (tRowPtr says %d), forward pattern %d", len(c.tColIdx), c.tRowPtr[n], nnz)
	}
	for i := 0; i < n; i++ {
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			j := c.colIdx[k]
			s := c.slot(int32(i), j)
			if s >= c.tRowPtr[j+1] || int(c.tColIdx[s]) != i {
				t.Fatalf("entry (%d,%d): not in the transpose", i, j)
			}
		}
	}
	wantDangling := []int{}
	for i := 0; i < n; i++ {
		if g.OutDegree(i) == 0 {
			wantDangling = append(wantDangling, i)
		}
	}
	if got := c.Dangling(); !reflect.DeepEqual(got, wantDangling) {
		t.Fatalf("dangling = %v, want %v", got, wantDangling)
	}
}

func TestCSRBuildMatchesGraph(t *testing.T) {
	for _, n := range []int{1, 2, 5, 37, 90} {
		for _, density := range []float64{0, 0.1, 0.5, 1} {
			g := randomGraph(t, n, density, uint64(n)*7+uint64(density*10))
			checkCSRInvariants(t, NewCSR(g), g)
		}
	}
}

// TestCSRRefreshValueFastPath pins the value path on the edge-log store
// (the map-backed reference has none: it is folded into a scratch log and
// built every time), with the map-backed twin as the oracle for the values.
func TestCSRRefreshValueFastPath(t *testing.T) {
	ref := randomGraph(t, 40, 0.2, 3)
	g := logGraphOf(ref)
	c := NewCSR(g)
	// Same graph: nothing dirty, nothing touched, bit-identical matrix.
	before := c.Dense()
	if !c.Refresh(g) {
		t.Fatal("unchanged graph should take the value-refresh fast path")
	}
	if st := c.LastRefresh(); !st.DirtyOnly || st.RowsTouched != 0 {
		t.Fatalf("refresh of unchanged graph reports %+v", st)
	}
	if !reflect.DeepEqual(before, c.Dense()) {
		t.Fatal("refresh of unchanged graph altered values")
	}
	// Value-only mutation of a few rows: the dirty-rows path, new values
	// correct.
	rng := xrand.New(11)
	for _, i := range []int{2, 3, 17, 39} {
		for j := 0; j < 40; j++ {
			if ref.Trust(i, j) > 0 && rng.Bool(0.7) {
				w := rng.Float64() * 3
				if err := errors.Join(ref.AddTrust(i, j, w), g.AddTrust(i, j, w)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !c.Refresh(g) {
		t.Fatal("value-only mutation should take the fast path")
	}
	if st := c.LastRefresh(); !st.DirtyOnly || st.RowsTouched != 4 {
		t.Fatalf("value-only mutation of 4 rows reports %+v", st)
	}
	checkCSRInvariants(t, c, ref)
	// Past n/deltaMaxFraction dirty rows the same mutation takes the build,
	// still reported pattern-stable and still in place.
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if ref.Trust(i, j) > 0 {
				if err := errors.Join(ref.AddTrust(i, j, 0.5), g.AddTrust(i, j, 0.5)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !c.Refresh(g) {
		t.Fatal("value-only mutation of every row should report a stable pattern")
	}
	if st := c.LastRefresh(); st.DirtyOnly || st.RowsTouched != 40 {
		t.Fatalf("value-only mutation of every row reports %+v", st)
	}
	checkCSRInvariants(t, c, ref)
}

func TestCSRRefreshStructuralFallback(t *testing.T) {
	g := randomGraph(t, 30, 0.15, 5)
	c := NewCSR(g)

	// New edge → full rebuild, still correct.
	var from, to int
	found := false
	for i := 0; i < 30 && !found; i++ {
		for j := 0; j < 30 && !found; j++ {
			if i != j && g.Trust(i, j) == 0 {
				from, to, found = i, j, true
			}
		}
	}
	if !found {
		t.Skip("graph unexpectedly complete")
	}
	if err := g.SetTrust(from, to, 2.5); err != nil {
		t.Fatal(err)
	}
	if c.Refresh(g) {
		t.Fatal("new edge must force a rebuild")
	}
	checkCSRInvariants(t, c, g)

	// Removed edge → rebuild again.
	if err := g.SetTrust(from, to, 0); err != nil {
		t.Fatal(err)
	}
	if c.Refresh(g) {
		t.Fatal("removed edge must force a rebuild")
	}
	checkCSRInvariants(t, c, g)

	// Different size → rebuild.
	g2 := randomGraph(t, 12, 0.3, 6)
	if c.Refresh(g2) {
		t.Fatal("resized graph must force a rebuild")
	}
	checkCSRInvariants(t, c, g2)
}

func TestCSRRebuildIsDeterministic(t *testing.T) {
	// Two CSRs built from independently-populated but equal graphs (whose
	// map iteration orders will differ) must be identical in every field.
	build := func(seed uint64) (*TrustGraph, *CSR) {
		g := randomGraph(t, 50, 0.2, 77)
		// Perturb map internals: rebuild the same edges through a clone.
		if seed%2 == 1 {
			g = g.Clone()
		}
		return g, NewCSR(g)
	}
	_, c1 := build(0)
	_, c2 := build(1)
	if !reflect.DeepEqual(c1.Dense(), c2.Dense()) {
		t.Fatal("CSR values depend on graph construction history")
	}
	if !reflect.DeepEqual(append([]int32(nil), c1.colIdx...), append([]int32(nil), c2.colIdx...)) {
		t.Fatal("CSR structure depends on graph construction history")
	}
}

func TestCSRRefreshSteadyStateZeroAlloc(t *testing.T) {
	g := randomLogGraph(t, 150, 0.1, 13)
	c := NewCSR(g)
	edges := g.AppendEdges(nil)
	bump := 0
	allocs := testing.AllocsPerRun(20, func() {
		for k := 0; k < 5; k++ { // value-only churn on a handful of rows
			e := edges[bump%len(edges)]
			bump += 97
			if err := g.AddTrust(e.From, e.To, 0.25); err != nil {
				t.Fatal(err)
			}
		}
		if !c.Refresh(g) || !c.LastRefresh().DirtyOnly {
			t.Fatal("expected fast path")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Refresh allocates %v objects/op, want 0", allocs)
	}
}

func TestCSRRowIteration(t *testing.T) {
	g, err := NewTrustGraph(4)
	if err != nil {
		t.Fatal(err)
	}
	g.SetTrust(0, 2, 3)
	g.SetTrust(0, 1, 1)
	c := NewCSR(g)
	var cols []int
	var vals []float64
	c.Row(0, func(j int, v float64) {
		cols = append(cols, j)
		vals = append(vals, v)
	})
	if !reflect.DeepEqual(cols, []int{1, 2}) {
		t.Fatalf("row 0 columns = %v", cols)
	}
	if vals[0] != 0.25 || vals[1] != 0.75 {
		t.Fatalf("row 0 values = %v", vals)
	}
	c.Row(-1, func(int, float64) { t.Fatal("out-of-range row iterated") })
	c.Row(4, func(int, float64) { t.Fatal("out-of-range row iterated") })
}

// sameAsFreshBuild asserts that c — refreshed from g by whatever path —
// holds exactly the arrays a fresh build of a clone of g holds.
func sameAsFreshBuild(t *testing.T, c *CSR, g *LogGraph) {
	t.Helper()
	fresh := NewCSR(g.Clone())
	if c.n != fresh.n || !slices.Equal(c.tRowPtr, fresh.tRowPtr) || !slices.Equal(c.tColIdx, fresh.tColIdx) ||
		!slices.Equal(c.tVal, fresh.tVal) || !slices.Equal(c.dangling, fresh.dangling) ||
		!slices.Equal(c.rowPtr, fresh.rowPtr) || !slices.Equal(c.colIdx, fresh.colIdx) {
		t.Fatalf("after %+v the CSR differs from a fresh build:\n got  %v %v %v dangling %v\n want %v %v %v dangling %v",
			c.LastRefresh(), c.tRowPtr, c.tColIdx, c.tVal, c.dangling,
			fresh.tRowPtr, fresh.tColIdx, fresh.tVal, fresh.dangling)
	}
}

// TestClearPeerInvalidatesFollowers pins that ClearPeer, which strips a
// column out of rows it does not mark dirty, makes a following CSR rebuild:
// a structural patch confined to the dirty rows would keep the stripped
// entries of every other row.
func TestClearPeerInvalidatesFollowers(t *testing.T) {
	const a, b, c3 = 1, 4, 7
	g, err := NewLogGraph(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Edge{{a, 2, 1}, {c3, b, 2}, {c3, 9, 1}, {b, 3, 1}, {12, 13, 1}} {
		if err := g.AddTrust(e.From, e.To, e.W); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCSR(g)
	if err := g.AddTrust(a, 5, 1); err != nil { // one dirty row, pattern moved
		t.Fatal(err)
	}
	if err := g.ClearPeer(b); err != nil { // row c3 loses column b, unmarked
		t.Fatal(err)
	}
	if c.Refresh(g) {
		t.Fatal("refresh after ClearPeer reported a stable pattern")
	}
	if st := c.LastRefresh(); st.RowsTouched != 20 {
		t.Fatalf("refresh after ClearPeer took a delta path: %+v", st)
	}
	sameAsFreshBuild(t, c, g)
	if want := NewCSR(g.Clone()).Dangling(); !reflect.DeepEqual(c.Dangling(), want) {
		t.Fatalf("dangling = %v, want %v", c.Dangling(), want)
	}
	// A clear that removes nothing invalidates nobody.
	if err := g.ClearPeer(15); err != nil {
		t.Fatal(err)
	}
	if !c.Refresh(g) || !c.LastRefresh().DirtyOnly {
		t.Fatalf("no-op ClearPeer forced %+v", c.LastRefresh())
	}
}

// churnSchedule is a canned cold_churn-shaped write schedule: every window
// deletes the edges the previous window created and creates as many fresh
// ones, so the edge count stands still while the pattern moves.
type churnSchedule struct {
	g       *LogGraph
	rng     *xrand.Source
	created []Edge
	perSide int
	rowSeen []bool
}

func newChurnSchedule(t *testing.T, n, edges, perSide int, seed uint64) *churnSchedule {
	t.Helper()
	g, err := NewLogGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	s := &churnSchedule{g: g, rng: xrand.New(seed), perSide: perSide, rowSeen: make([]bool, n),
		created: make([]Edge, 0, perSide)}
	for g.Compact(); g.NNZ() < edges; g.Compact() {
		for k := g.NNZ(); k < edges; k++ {
			if err := g.AddTrust(s.rng.Intn(n), s.rng.Intn(n), 1+9*s.rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// window applies one window of the schedule and returns the number of
// distinct source rows it wrote to. It allocates nothing.
func (s *churnSchedule) window(t *testing.T) int {
	rows := 0
	mark := func(from int) {
		if !s.rowSeen[from] {
			s.rowSeen[from] = true
			rows++
		}
	}
	for _, e := range s.created {
		if err := s.g.SetTrust(e.From, e.To, 0); err != nil {
			t.Fatal(err)
		}
		mark(e.From)
	}
	s.created = s.created[:0]
	for len(s.created) < s.perSide {
		e := Edge{From: s.rng.Intn(s.g.Len()), To: s.rng.Intn(s.g.Len()), W: 1 + 9*s.rng.Float64()}
		if e.From == e.To || s.g.Trust(e.From, e.To) != 0 {
			continue
		}
		if err := s.g.SetTrust(e.From, e.To, e.W); err != nil {
			t.Fatal(err)
		}
		mark(e.From)
		s.created = append(s.created, e)
	}
	clear(s.rowSeen)
	return rows
}

// TestStructuralChurnCostsWhatItTouches is the exact-count guard for the
// structural patch: on a cold_churn-shaped schedule every refresh touches
// exactly the rows the window wrote to, never reports a stable pattern, and
// — once the arrays have their head-room — allocates nothing; and the CSR's
// per-edge storage is its three arrays and no fourth.
func TestStructuralChurnCostsWhatItTouches(t *testing.T) {
	const n, edges, perSide, windows = 2000, 60000, 16, 50
	s := newChurnSchedule(t, n, edges, perSide, 26)
	ws := NewEigenTrustWorkspace()
	cfg := DefaultEigenTrust()
	if _, err := ws.Compute(s.g, cfg); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < windows; w++ {
		rows := s.window(t)
		if _, err := ws.Compute(s.g, cfg); err != nil {
			t.Fatal(err)
		}
		if got, want := ws.LastStats().Refresh, (RefreshStats{RowsTouched: rows}); got != want {
			t.Fatalf("window %d: refresh %+v, want %+v", w, got, want)
		}
	}
	sameAsFreshBuild(t, ws.CSR(), s.g)
	allocs := testing.AllocsPerRun(20, func() {
		s.window(t)
		if _, err := ws.Compute(s.g, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("structural-churn Compute allocates %v objects/op, want 0", allocs)
	}
	if st := ws.LastStats().Refresh; st.PatternStable || st.RowsTouched >= n/deltaMaxFraction {
		t.Fatalf("measured windows left the patch path: %+v", st)
	}

	// Per-edge storage: colIdx (4 B), tColIdx (4 B), tVal (8 B), each with at
	// most an eighth of head-room. Everything else the CSR holds is O(n) or
	// O(delta). Summed over every slice field, so a fourth per-edge array
	// cannot hide.
	c := ws.CSR()
	var held uintptr
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			held += uintptr(f.Cap()) * f.Type().Elem().Size()
		}
	}
	nnz := uintptr(c.NNZ())
	if budget := 16*(nnz+nnz/8) + 64*n; held > budget {
		t.Errorf("CSR holds %d B in slices for %d edges, budget %d B (16 B/edge + 1/8 head-room + O(n))", held, nnz, budget)
	}
	if cap(c.colIdx) < c.NNZ() || cap(c.tColIdx) < c.NNZ() || cap(c.tVal) < c.NNZ() {
		t.Error("per-edge arrays are not colIdx, tColIdx and tVal")
	}
}
