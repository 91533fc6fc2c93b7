package reputation

import (
	"math"
	"reflect"
	"testing"

	"collabnet/internal/xrand"
)

// randomLogGraph builds an edge-log graph with roughly density·n out-edges
// per row, weights in (0,5).
func randomLogGraph(t *testing.T, n int, density float64, seed uint64) *LogGraph {
	t.Helper()
	rng := xrand.New(seed)
	g, err := NewLogGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Bool(density) {
				if err := g.SetTrust(i, j, rng.Float64()*5); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g.Compact()
	return g
}

// warmBound is the documented warm-start error bound: the damped iteration
// map contracts in L1 with factor 1−Damping, so any two iterates stopped at
// delta < Epsilon each sit within Epsilon·(1−a)/a of the fixed point, hence
// within 2·Epsilon/Damping of each other (loosely; the factor 2 absorbs the
// final renormalization's few-ulp drift).
func warmBound(cfg EigenTrustConfig) float64 {
	return 2 * cfg.Epsilon / cfg.Damping
}

func l1Dist(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// TestWarmStartWithinBound drives one warm workspace through randomized
// churn schedules — value bumps, structural edge flips, occasional row
// clears — and checks after every solve that the warm result is within the
// analytic bound of the cold dense reference.
func TestWarmStartWithinBound(t *testing.T) {
	cfg := DefaultEigenTrust()
	bound := warmBound(cfg)
	for _, seed := range []uint64{3, 17, 99} {
		rng := xrand.New(seed)
		n := 20 + rng.Intn(40)
		g := randomLogGraph(t, n, 0.15, seed+1000)
		ws := NewEigenTrustWorkspace()
		for step := 0; step < 12; step++ {
			warm, err := ws.Compute(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := EigenTrustDense(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := l1Dist(warm, cold); d > bound {
				t.Fatalf("seed %d step %d: |warm-cold|_1 = %g exceeds bound %g", seed, step, d, bound)
			}
			if step > 0 && !ws.LastStats().Warm {
				t.Fatalf("seed %d step %d: expected a warm solve", seed, step)
			}
			if !ws.LastStats().Converged {
				t.Fatalf("seed %d step %d: solve did not converge", seed, step)
			}
			// Churn: mostly small value bumps, sometimes structure.
			for k := 0; k < 5; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j {
					continue
				}
				switch {
				case rng.Bool(0.7):
					if err := g.AddTrust(i, j, rng.Float64()); err != nil {
						t.Fatal(err)
					}
				case rng.Bool(0.5):
					if err := g.SetTrust(i, j, rng.Float64()*3); err != nil {
						t.Fatal(err)
					}
				default:
					if err := g.SetTrust(i, j, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			if step == 7 {
				if err := g.ClearPeer(rng.Intn(n)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestWarmStartDeterministicAcrossWorkers pins that warm-started solves are
// a pure function of the graph and the warm-start state: two workspaces
// driven in lockstep over twin graphs, and a third created mid-run and
// seeded (SeedWarm, the snapshot-restore path) with the first one's
// previous vector, return bit-identical warm vectors with equal iteration
// counts at every step. After ResetWarm the next solve runs cold and equals
// a fresh workspace's.
func TestWarmStartDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultEigenTrust()
	const n, seedAt = 50, 3
	var (
		graphs [3]*LogGraph
		rngs   [3]*xrand.Source
		wss    [3]*EigenTrustWorkspace
	)
	for a := range graphs {
		graphs[a] = randomLogGraph(t, n, 0.12, 42)
		rngs[a] = xrand.New(5)
	}
	wss[0], wss[1] = NewEigenTrustWorkspace(), NewEigenTrustWorkspace()
	churn := func(g *LogGraph, rng *xrand.Source) {
		for k := 0; k < 8; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				if err := g.AddTrust(i, j, rng.Float64()*0.1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var prev []float64 // the first workspace's previous vector
	for step := 0; step < 6; step++ {
		if step == seedAt {
			wss[2] = NewEigenTrustWorkspace()
			wss[2].SeedWarm(prev)
		}
		var want []float64
		for a, ws := range wss {
			if ws == nil {
				continue
			}
			got, err := ws.Compute(graphs[a], cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := ws.LastStats()
			if step > 0 && !st.Warm {
				t.Fatalf("step %d workspace %d: expected a warm solve", step, a)
			}
			if a == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: workspace %d's warm solve diverges from workspace 0's", step, a)
			}
			if st.Iterations != wss[0].LastStats().Iterations {
				t.Fatalf("step %d workspace %d: iteration counts diverge (%d vs %d)",
					step, a, st.Iterations, wss[0].LastStats().Iterations)
			}
		}
		prev = append(prev[:0], want...)
		for a := range graphs {
			churn(graphs[a], rngs[a])
		}
	}
	wss[2].ResetWarm()
	got, err := wss[2].Compute(graphs[2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wss[2].LastStats().Warm {
		t.Fatal("ResetWarm did not force a cold solve")
	}
	want, err := EigenTrust(graphs[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(append([]float64(nil), got...), want) {
		t.Fatal("solve after ResetWarm diverges from a fresh workspace")
	}
}

// TestColdStartBitIdenticalToFresh pins that the ColdStart knob makes a
// reused workspace bit-identical to a throwaway one — the pre-PR behavior —
// no matter what the workspace solved before.
func TestColdStartBitIdenticalToFresh(t *testing.T) {
	cfg := DefaultEigenTrust()
	cold := cfg
	cold.ColdStart = true
	g := randomLogGraph(t, 40, 0.2, 7)
	ws := NewEigenTrustWorkspace()
	if _, err := ws.Compute(g, cfg); err != nil { // pollute warm state
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		if err := g.AddTrust(i, (i+3)%40, 2.5); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ws.Compute(g, cold)
	if err != nil {
		t.Fatal(err)
	}
	if ws.LastStats().Warm {
		t.Fatal("ColdStart solve reported Warm")
	}
	want, err := EigenTrust(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(append([]float64(nil), got...), want) {
		t.Fatal("ColdStart solve diverges from a fresh workspace")
	}
}

// TestDirtyRowRefreshExact pins the dirty-row fast path: after a converged
// build, touching k rows must refresh exactly those k rows on the
// pattern-stable path, and the resulting CSR must be bit-identical to a
// full rebuild of the same graph.
func TestDirtyRowRefreshExact(t *testing.T) {
	g := randomLogGraph(t, 60, 0.15, 11)
	ws := NewEigenTrustWorkspace()
	cfg := DefaultEigenTrust()
	if _, err := ws.Compute(g, cfg); err != nil {
		t.Fatal(err)
	}

	// Touch exactly 3 rows with value-only accumulations.
	touched := map[int]bool{}
	for _, i := range []int{4, 17, 42} {
		var to int
		g.OutEdges(i, func(j int, w float64) { to = j }) // last existing edge
		if err := g.AddTrust(i, to, 0.25); err != nil {
			t.Fatal(err)
		}
		touched[i] = true
	}
	if g.DirtyRowCount() != len(touched) {
		t.Fatalf("dirty rows: got %d, want %d", g.DirtyRowCount(), len(touched))
	}
	if _, err := ws.Compute(g, cfg); err != nil {
		t.Fatal(err)
	}
	st := ws.LastStats()
	if !st.Refresh.PatternStable || !st.Refresh.DirtyOnly {
		t.Fatalf("expected dirty-only pattern-stable refresh, got %+v", st.Refresh)
	}
	if st.Refresh.RowsTouched != len(touched) {
		t.Fatalf("rows touched: got %d, want %d", st.Refresh.RowsTouched, len(touched))
	}
	if g.DirtyRowCount() != 0 {
		t.Fatalf("refresh did not consume the dirty set: %d rows left", g.DirtyRowCount())
	}

	// Bit-identity against a full rebuild.
	if !reflect.DeepEqual(ws.CSR().Dense(), NewCSR(g).Dense()) {
		t.Fatal("dirty-row refresh diverges from full rebuild")
	}
}

// TestDirtyRowMultiConsumerFallback pins the consumption protocol: when two
// CSRs refresh from one log, the one that missed a delta span must fall
// back to the full value copy and still come out bit-identical to a
// rebuild.
func TestDirtyRowMultiConsumerFallback(t *testing.T) {
	g := randomLogGraph(t, 30, 0.2, 13)
	a, b := NewCSR(g), NewCSR(g)
	bump := func() {
		if err := g.AddTrust(3, firstEdge(t, g, 3), 0.5); err != nil {
			t.Fatal(err)
		}
	}

	bump()
	a.Refresh(g) // consumes; bumps the generation past b's record
	if !a.lastRefresh.DirtyOnly {
		t.Fatalf("first consumer should take the dirty path, got %+v", a.lastRefresh)
	}
	bump()
	b.Refresh(g) // b missed the first span: must do the full value copy
	if b.lastRefresh.DirtyOnly {
		t.Fatal("second consumer took the dirty path despite a missed span")
	}
	if !b.lastRefresh.PatternStable {
		t.Fatalf("fallback should still be pattern-stable, got %+v", b.lastRefresh)
	}
	want := NewCSR(g.Clone()).Dense()
	if !reflect.DeepEqual(b.Dense(), want) {
		t.Fatal("fallback refresh diverges from rebuild")
	}
	// a missed b's consumption in turn; its next refresh must also fall
	// back yet stay exact.
	bump()
	a.Refresh(g)
	if a.lastRefresh.DirtyOnly {
		t.Fatal("consumer with a missed span took the dirty path")
	}
	if !reflect.DeepEqual(a.Dense(), NewCSR(g.Clone()).Dense()) {
		t.Fatal("second fallback refresh diverges from rebuild")
	}
}

func firstEdge(t *testing.T, g *LogGraph, row int) int {
	t.Helper()
	to := -1
	g.OutEdges(row, func(j int, w float64) {
		if to < 0 {
			to = j
		}
	})
	if to < 0 {
		t.Fatalf("row %d has no edges", row)
	}
	return to
}

// TestWarmStartFewerIterations pins the perf claim deterministically: on a
// service-steady-state schedule (small per-refresh weight deltas relative
// to accumulated row mass), the warm-started solve needs at most a third of
// the cold solve's iterations.
func TestWarmStartFewerIterations(t *testing.T) {
	n := 400
	g := randomLogGraph(t, n, 0.02, 21)
	ws := NewEigenTrustWorkspace()
	cfg := DefaultEigenTrust()
	if _, err := ws.Compute(g, cfg); err != nil {
		t.Fatal(err)
	}

	// Small churn: bump 4 existing edges (≈1% of rows) by a weight that is
	// tiny against the accumulated mass — the long-running service case.
	rng := xrand.New(77)
	for k := 0; k < 4; k++ {
		i := rng.Intn(n)
		to := -1
		g.OutEdges(i, func(j int, w float64) { to = j })
		if to < 0 {
			continue
		}
		if err := g.AddTrust(i, to, 1e-6); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ws.Compute(g, cfg); err != nil {
		t.Fatal(err)
	}
	warmIters := ws.LastStats().Iterations
	if !ws.LastStats().Warm {
		t.Fatal("expected warm solve")
	}

	coldWS := NewEigenTrustWorkspace()
	if _, err := coldWS.Compute(g, cfg); err != nil {
		t.Fatal(err)
	}
	coldIters := coldWS.LastStats().Iterations
	if warmIters*3 > coldIters {
		t.Fatalf("warm solve took %d iterations, cold %d: want warm <= cold/3", warmIters, coldIters)
	}
}

// TestSpreadTraceMatchesSpread pins that SpreadTrace consumes the RNG
// identically to Spread and that its curve is monotone, ends at the
// result's Informed count, and has one entry per round.
func TestSpreadTraceMatchesSpread(t *testing.T) {
	cfg := DefaultGossip()
	plain, err := Spread(500, 3, cfg, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	traced, trace, err := SpreadTrace(500, 3, cfg, xrand.New(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Fatalf("SpreadTrace result %+v diverges from Spread %+v", traced, plain)
	}
	if len(trace) != traced.Rounds {
		t.Fatalf("trace has %d entries for %d rounds", len(trace), traced.Rounds)
	}
	prev := 1
	for r, c := range trace {
		if c < prev {
			t.Fatalf("round %d: informed count fell from %d to %d", r+1, prev, c)
		}
		prev = c
	}
	if trace[len(trace)-1] != traced.Informed {
		t.Fatalf("trace ends at %d, result says %d informed", trace[len(trace)-1], traced.Informed)
	}
}
