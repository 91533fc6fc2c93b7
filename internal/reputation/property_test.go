package reputation

import (
	"math"
	"testing"

	"collabnet/internal/xrand"
)

// propertyGraph builds a randomized graph with occasional dangling rows.
func propertyGraph(t *testing.T, rng *xrand.Source) (*TrustGraph, int) {
	t.Helper()
	n := 2 + rng.Intn(60)
	g, err := NewTrustGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	density := rng.Float64() * 0.5
	for i := 0; i < n; i++ {
		if rng.Bool(0.15) {
			continue // dangling row
		}
		for j := 0; j < n; j++ {
			if i != j && rng.Bool(density) {
				if err := g.SetTrust(i, j, rng.Float64()*10); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, n
}

func propertyConfig(rng *xrand.Source, n int) EigenTrustConfig {
	cfg := DefaultEigenTrust()
	cfg.Damping = 0.05 + rng.Float64()*0.8
	if rng.Bool(0.5) {
		k := 1 + rng.Intn(3)
		for len(cfg.PreTrusted) < k {
			id := rng.Intn(n)
			dup := false
			for _, p := range cfg.PreTrusted {
				if p == id {
					dup = true
				}
			}
			if !dup {
				cfg.PreTrusted = append(cfg.PreTrusted, id)
			}
		}
	}
	return cfg
}

// TestEigenTrustVectorIsDistribution: every component non-negative and the
// vector sums to 1 within 1e-12, across randomized graphs and configs.
func TestEigenTrustVectorIsDistribution(t *testing.T) {
	rng := xrand.New(2026)
	for trial := 0; trial < 120; trial++ {
		g, n := propertyGraph(t, rng)
		cfg := propertyConfig(rng, n)
		tv, err := EigenTrust(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i, x := range tv {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("trial %d: component %d invalid: %v", trial, i, x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("trial %d (n=%d): sum = %.17g, |sum-1| = %g > 1e-12",
				trial, n, sum, math.Abs(sum-1))
		}
	}
}

// TestEigenTrustPreTrustedKeepTeleportedMass: a pre-trusted peer receives at
// least the mass teleported straight to it, Damping/|PreTrusted| (up to the
// final renormalization, which is a few ulp).
func TestEigenTrustPreTrustedKeepTeleportedMass(t *testing.T) {
	rng := xrand.New(4099)
	for trial := 0; trial < 80; trial++ {
		g, n := propertyGraph(t, rng)
		cfg := propertyConfig(rng, n)
		if len(cfg.PreTrusted) == 0 {
			cfg.PreTrusted = []int{rng.Intn(n)}
		}
		tv, err := EigenTrust(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		floor := cfg.Damping / float64(len(cfg.PreTrusted))
		for _, id := range cfg.PreTrusted {
			if tv[id] < floor*(1-1e-9) {
				t.Fatalf("trial %d: pre-trusted %d got %v < teleported floor %v",
					trial, id, tv[id], floor)
			}
		}
	}
}

// TestEigenTrustPermutationEquivariance: relabeling the peers permutes the
// trust vector and changes nothing else.
func TestEigenTrustPermutationEquivariance(t *testing.T) {
	rng := xrand.New(7331)
	for trial := 0; trial < 40; trial++ {
		g, n := propertyGraph(t, rng)
		cfg := propertyConfig(rng, n)
		// Tight convergence so both labelings reach the same fixed point
		// even though their floating-point orders differ.
		cfg.Epsilon = 1e-14
		cfg.MaxIter = 5000

		// Random permutation pi.
		pi := make([]int, n)
		for i := range pi {
			pi[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			pi[i], pi[j] = pi[j], pi[i]
		}
		gp, err := NewTrustGraph(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if w := g.Trust(i, j); w > 0 {
					if err := gp.SetTrust(pi[i], pi[j], w); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		cfgP := cfg
		cfgP.PreTrusted = nil
		for _, id := range cfg.PreTrusted {
			cfgP.PreTrusted = append(cfgP.PreTrusted, pi[id])
		}

		tv, err := EigenTrust(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tvp, err := EigenTrust(gp, cfgP)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(tv[i]-tvp[pi[i]]) > 1e-10 {
				t.Fatalf("trial %d: peer %d (relabeled %d): %v vs %v",
					trial, i, pi[i], tv[i], tvp[pi[i]])
			}
		}
	}
}

// TestEigenTrustWorkspaceComputeZeroAlloc pins the workspace-reuse
// contract: steady-state serial recomputation over the edge-log store
// allocates nothing. (The map-backed reference is folded into a scratch log
// on every call and makes no such promise.)
func TestEigenTrustWorkspaceComputeZeroAlloc(t *testing.T) {
	g := randomLogGraph(t, 200, 0.08, 9)
	cfg := DefaultEigenTrust()
	cfg.PreTrusted = []int{0, 7}
	ws := NewEigenTrustWorkspace()
	if _, err := ws.Compute(g, cfg); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.Compute(g, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Compute allocates %v objects/op, want 0", allocs)
	}
}
