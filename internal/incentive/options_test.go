package incentive

import "testing"

// TestNewSchemeDefaults pins the zero-value contract: Options{} builds the
// None baseline with default params, and each kind builds under the single
// constructor.
func TestNewSchemeDefaults(t *testing.T) {
	s, err := NewScheme(8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "none" {
		t.Fatalf("Options{} built %q, want none", s.Name())
	}
	for k := KindNone; k <= KindMaxFlow; k++ {
		s, err := NewScheme(8, Options{Kind: k})
		if err != nil {
			t.Fatalf("NewScheme(%s): %v", k, err)
		}
		if s.Name() != k.String() {
			t.Fatalf("NewScheme(%s) built %q", k, s.Name())
		}
	}
}

// TestNewSchemeValidation pins the cross-field coherence errors.
func TestNewSchemeValidation(t *testing.T) {
	cases := []Options{
		{Kind: Kind(99)},
		{Kind: KindEigenTrust, RefreshEvery: -1},
		{Kind: KindEigenTrust, Floor: -0.1},
		{Kind: KindKarma, Concurrent: true},
		{Kind: KindEigenTrust, Shards: 4}, // Shards without Concurrent
	}
	for _, opt := range cases {
		if _, err := NewScheme(8, opt); err == nil {
			t.Fatalf("NewScheme(%+v) should have errored", opt)
		}
	}
}

// TestNewSchemeOverrides pins that the common knobs actually reach the
// per-kind configurations.
func TestNewSchemeOverrides(t *testing.T) {
	s, err := NewScheme(8, Options{
		Kind: KindEigenTrust, RefreshEvery: 3, Floor: 0.25,
		Concurrent: true, Shards: 2, PreTrusted: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := s.(*GlobalTrust)
	if g.cfg.RefreshEvery != 3 || g.cfg.Floor != 0.25 || !g.cfg.Concurrent ||
		g.cfg.Shards != 2 || len(g.cfg.Trust.PreTrusted) != 2 {
		t.Fatalf("options did not thread through: %+v", g.cfg)
	}
	if g.ConcurrentStore() == nil {
		t.Fatal("Concurrent option did not select the concurrent store")
	}
}

// TestRefreshIfStale pins the serving-cadence hook: an idle scheme skips the
// solve, writes (direct store writes included) trigger exactly one, and the
// vector matches a forced refresh.
func TestRefreshIfStale(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		s, err := NewScheme(6, Options{Kind: KindEigenTrust, Concurrent: concurrent})
		if err != nil {
			t.Fatal(err)
		}
		g := s.(*GlobalTrust)
		if ran, err := g.RefreshIfStale(); err != nil || ran {
			t.Fatalf("concurrent=%v: idle refresh ran=%v err=%v, want no-op", concurrent, ran, err)
		}
		if concurrent {
			// Serving plane: writes land directly on the concurrent store,
			// bypassing the scheme's own dirty flag.
			if err := g.ConcurrentStore().AddTrust(0, 1, 2); err != nil {
				t.Fatal(err)
			}
		} else {
			g.RecordTransfer(0, 1, 2)
		}
		if !g.Stale() {
			t.Fatalf("concurrent=%v: scheme should be stale after a write", concurrent)
		}
		if ran, err := g.RefreshIfStale(); err != nil || !ran {
			t.Fatalf("concurrent=%v: stale refresh ran=%v err=%v, want solve", concurrent, ran, err)
		}
		if g.Trust(1) <= g.Trust(2) {
			t.Fatalf("concurrent=%v: solve did not fold the write in: t1=%v t2=%v",
				concurrent, g.Trust(1), g.Trust(2))
		}
		if ran, _ := g.RefreshIfStale(); ran {
			t.Fatalf("concurrent=%v: second refresh should be a no-op", concurrent)
		}
		if err := g.RefreshNow(); err != nil {
			t.Fatalf("concurrent=%v: RefreshNow: %v", concurrent, err)
		}
	}
}
