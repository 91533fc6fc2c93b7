package reputation

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"collabnet/internal/xrand"
)

// randomGraph returns a map-backed graph with each off-diagonal edge present
// with probability density and a weight in [0,5).
func randomGraph(t *testing.T, n int, density float64, seed uint64) *TrustGraph {
	t.Helper()
	rng := xrand.New(seed)
	g, err := NewTrustGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Bool(density) {
				g.SetTrust(i, j, rng.Float64()*5)
			}
		}
	}
	return g
}

// dgCase is one randomized differential-test scenario.
type dgCase struct {
	n          int
	density    float64
	damping    float64
	preTrusted []int
	zeroRows   int // rows forcibly cleared to create dangling peers
	seed       uint64
}

// dgGraph materializes the scenario's graph: random edges at the given
// density, then zeroRows rows wiped to force dangling peers.
func (c dgCase) graph(t *testing.T) *TrustGraph {
	t.Helper()
	g := randomGraph(t, c.n, c.density, c.seed)
	rng := xrand.New(c.seed + 1)
	for r := 0; r < c.zeroRows; r++ {
		i := rng.Intn(c.n)
		for j := 0; j < c.n; j++ {
			if err := g.SetTrust(i, j, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func (c dgCase) config() EigenTrustConfig {
	cfg := DefaultEigenTrust()
	cfg.Damping = c.damping
	cfg.PreTrusted = c.preTrusted
	return cfg
}

// differentialCases sweeps n, density (including the empty and complete
// graphs), damping, pre-trusted sets, and forced dangling rows.
func differentialCases() []dgCase {
	var cases []dgCase
	seed := uint64(100)
	for _, n := range []int{1, 2, 3, 8, 17, 50, 120} {
		for _, density := range []float64{0, 0.05, 0.3, 1} {
			for _, damping := range []float64{0, 0.15, 0.6} {
				seed++
				c := dgCase{n: n, density: density, damping: damping, seed: seed}
				switch seed % 3 {
				case 1:
					c.preTrusted = []int{0}
				case 2:
					if n > 2 {
						c.preTrusted = []int{1, n - 1}
					}
				}
				if seed%2 == 0 && n > 3 {
					c.zeroRows = 1 + int(seed%3)
				}
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// TestEigenTrustCSRMatchesDenseBitIdentical pins the sparse path to the
// dense reference: identical inputs must give bit-identical outputs, not
// merely outputs within a tolerance.
func TestEigenTrustCSRMatchesDenseBitIdentical(t *testing.T) {
	for _, c := range differentialCases() {
		c := c
		t.Run(fmt.Sprintf("n=%d/d=%g/a=%g/seed=%d", c.n, c.density, c.damping, c.seed), func(t *testing.T) {
			g := c.graph(t)
			cfg := c.config()
			sparse, err := EigenTrust(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := EigenTrustDense(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sparse, dense) {
				for i := range sparse {
					if sparse[i] != dense[i] {
						t.Fatalf("component %d: csr=%v dense=%v (diff %g)",
							i, sparse[i], dense[i], sparse[i]-dense[i])
					}
				}
				t.Fatalf("vectors differ structurally: %v vs %v", sparse, dense)
			}
		})
	}
}

// TestEigenTrustSerialMatchesParallelDeepEqual pins the determinism
// guarantee across workspace reuse and graph stores over the full
// differential grid (damping 0, complete and empty graphs, pre-trusted
// sets, forced dangling rows): one cold workspace, carried from case to
// case through every n, solves each case's edge-log copy and returns
// exactly the vector a fresh solve of the map-backed graph returns.
func TestEigenTrustSerialMatchesParallelDeepEqual(t *testing.T) {
	ws := NewEigenTrustWorkspace()
	for _, c := range differentialCases() {
		c := c
		t.Run(fmt.Sprintf("n=%d/d=%g/a=%g/seed=%d", c.n, c.density, c.damping, c.seed), func(t *testing.T) {
			g := c.graph(t)
			cfg := c.config()
			cfg.ColdStart = true
			want, err := EigenTrust(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lg, err := NewLogGraph(c.n)
			if err != nil {
				t.Fatal(err)
			}
			if err := lg.LoadEdges(g.AppendEdges(nil)); err != nil {
				t.Fatal(err)
			}
			got, err := ws.Compute(lg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(append([]float64(nil), got...), want) {
				t.Fatalf("reused workspace on the log diverges from a fresh solve:\n want=%v\n got=%v", want, got)
			}
		})
	}
}

// TestEigenTrustWorkspaceReuseMatchesFresh drives one workspace through a
// sequence of graphs (growing the pattern, changing values in place,
// shrinking n) and checks every result against a throwaway computation.
// ColdStart pins the bit-exact reference path; the warm-started default is
// covered by the tolerance-bounded suite in incremental_test.go.
func TestEigenTrustWorkspaceReuseMatchesFresh(t *testing.T) {
	ws := NewEigenTrustWorkspace()
	cfg := DefaultEigenTrust()
	cfg.ColdStart = true
	rng := xrand.New(42)
	for step := 0; step < 30; step++ {
		n := 2 + rng.Intn(40)
		g := randomGraph(t, n, 0.2, uint64(step)+500)
		for round := 0; round < 3; round++ {
			got, err := ws.Compute(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EigenTrustDense(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(append([]float64(nil), got...), want) {
				t.Fatalf("step %d round %d: reused workspace diverges", step, round)
			}
			// Mutate values only (fast refresh path), then loop to verify.
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if g.Trust(i, j) > 0 && rng.Bool(0.5) {
						if err := g.AddTrust(i, j, rng.Float64()); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// TestEigenTrustDenseAgreesWithLegacyBehavior keeps the dense reference
// anchored to the textbook fixed point: one hand-rolled damped iteration at
// the solution must reproduce it within convergence tolerance.
func TestEigenTrustDenseAgreesWithLegacyBehavior(t *testing.T) {
	g := randomGraph(t, 20, 0.3, 77)
	cfg := DefaultEigenTrust()
	tv, err := EigenTrustDense(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Len()
	p := make([]float64, n)
	cfg.fillPreTrust(p)
	next := make([]float64, n)
	dangling := 0.0
	for i := 0; i < n; i++ {
		row := g.NormalizedRow(i)
		if row == nil {
			dangling += tv[i]
			continue
		}
		for j, c := range row {
			next[j] += tv[i] * c
		}
	}
	for j := 0; j < n; j++ {
		next[j] = (1-cfg.Damping)*(next[j]+dangling*p[j]) + cfg.Damping*p[j]
		if math.Abs(next[j]-tv[j]) > 1e-6 {
			t.Fatalf("not a fixed point at %d: %v vs %v", j, next[j], tv[j])
		}
	}
}
