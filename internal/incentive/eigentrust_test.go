package incentive

import (
	"math"
	"reflect"
	"testing"

	"collabnet/internal/xrand"
)

// drive advances the scheme s steps so the refresh cadence elapses.
func drive(g *GlobalTrust, steps int) {
	for i := 0; i < steps; i++ {
		g.EndStep()
	}
}

func TestGlobalTrustStartsUniform(t *testing.T) {
	g, err := NewGlobalTrust(6, DefaultGlobalTrustConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if math.Abs(g.Trust(i)-1.0/6) > 1e-12 {
			t.Errorf("peer %d initial trust %v, want uniform", i, g.Trust(i))
		}
		if math.Abs(g.SharingScore(i)-0.5) > 1e-12 {
			t.Errorf("peer %d initial score %v, want 0.5", i, g.SharingScore(i))
		}
	}
	shares := make([]float64, 2)
	g.Allocate(0, []int{1, 2}, shares)
	if math.Abs(shares[0]-0.5) > 1e-12 || math.Abs(shares[1]-0.5) > 1e-12 {
		t.Errorf("uniform trust should split evenly, got %v", shares)
	}
}

func TestGlobalTrustRewardsUploaders(t *testing.T) {
	cfg := DefaultGlobalTrustConfig()
	cfg.RefreshEvery = 1
	g, err := NewGlobalTrust(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Everyone downloads from peer 4; peer 3 serves nobody.
	for d := 0; d < 4; d++ {
		g.RecordTransfer(d, 4, 10)
	}
	drive(g, 1)
	if g.Trust(4) <= g.Trust(3) {
		t.Errorf("sole uploader should outrank idle peer: %v vs %v", g.Trust(4), g.Trust(3))
	}
	if g.SharingScore(4) <= g.SharingScore(3) {
		t.Errorf("score should follow trust: %v vs %v", g.SharingScore(4), g.SharingScore(3))
	}
	shares := make([]float64, 2)
	g.Allocate(0, []int{3, 4}, shares)
	if shares[1] <= shares[0] {
		t.Errorf("allocation should favor the trusted uploader, got %v", shares)
	}
	if math.Abs(shares[0]+shares[1]-1) > 1e-12 {
		t.Errorf("shares must normalize, got %v", shares)
	}
}

func TestGlobalTrustRefreshCadence(t *testing.T) {
	cfg := DefaultGlobalTrustConfig()
	cfg.RefreshEvery = 5
	g, err := NewGlobalTrust(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.RecordTransfer(0, 1, 8)
	before := g.Trust(1)
	drive(g, 4) // cadence not yet elapsed
	if g.Trust(1) != before {
		t.Error("trust recomputed before the refresh cadence elapsed")
	}
	drive(g, 1)
	if g.Trust(1) <= before {
		t.Errorf("trust should rise after refresh: %v vs %v", g.Trust(1), before)
	}
	// No further graph changes: later steps must not re-solve (dirty flag).
	after := g.Trust(1)
	drive(g, 10)
	if g.Trust(1) != after {
		t.Error("clean graph should not trigger recomputation")
	}
}

func TestGlobalTrustResetRestoresUniform(t *testing.T) {
	cfg := DefaultGlobalTrustConfig()
	cfg.RefreshEvery = 1
	g, err := NewGlobalTrust(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.RecordTransfer(0, 1, 3)
	g.RecordTransfer(2, 1, 5)
	drive(g, 1)
	if math.Abs(g.Trust(1)-0.25) < 1e-9 {
		t.Fatal("setup failed: trust should have moved off uniform")
	}
	g.Reset()
	for i := 0; i < 4; i++ {
		if math.Abs(g.Trust(i)-0.25) > 1e-12 {
			t.Errorf("post-reset trust %d = %v, want 0.25", i, g.Trust(i))
		}
	}
}

func TestGlobalTrustPropagatesThroughIndirection(t *testing.T) {
	// 0 downloads from 1, 1 downloads from 2. Peer 0 has no direct
	// experience with 2, yet 2 must earn global trust through 1 — the
	// transitivity tit-for-tat lacks.
	cfg := DefaultGlobalTrustConfig()
	cfg.RefreshEvery = 1
	g, err := NewGlobalTrust(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.RecordTransfer(0, 1, 10)
	g.RecordTransfer(1, 2, 10)
	drive(g, 1)
	if g.Trust(2) <= g.Trust(3) {
		t.Errorf("indirect uploader should outrank idle peer: %v vs %v",
			g.Trust(2), g.Trust(3))
	}
}

func TestGlobalTrustConfigValidation(t *testing.T) {
	if _, err := NewGlobalTrust(0, DefaultGlobalTrustConfig()); err == nil {
		t.Error("n = 0 should fail")
	}
	bad := DefaultGlobalTrustConfig()
	bad.RefreshEvery = 0
	if _, err := NewGlobalTrust(3, bad); err == nil {
		t.Error("RefreshEvery = 0 should fail")
	}
	bad = DefaultGlobalTrustConfig()
	bad.Floor = -1
	if _, err := NewGlobalTrust(3, bad); err == nil {
		t.Error("negative floor should fail")
	}
	bad = DefaultGlobalTrustConfig()
	bad.Trust.Damping = 1.5
	if _, err := NewGlobalTrust(3, bad); err == nil {
		t.Error("invalid EigenTrust config should surface at construction")
	}
}

func TestGlobalTrustIgnoresInvalidRecords(t *testing.T) {
	g, err := NewGlobalTrust(3, DefaultGlobalTrustConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.RecordTransfer(0, 0, 5)   // self-transfer
	g.RecordTransfer(-1, 2, 5)  // out of range
	g.RecordTransfer(0, 7, 5)   // out of range
	g.RecordTransfer(0, 1, 0)   // zero amount
	g.RecordTransfer(0, 1, -2)  // negative amount
	g.RecordSharing(-1, 0.5, 1) // out of range
	drive(g, DefaultGlobalTrustConfig().RefreshEvery+1)
	for i := 0; i < 3; i++ {
		if math.Abs(g.Trust(i)-1.0/3) > 1e-12 {
			t.Errorf("invalid records must not move trust: peer %d = %v", i, g.Trust(i))
		}
	}
	if g.Trust(-1) != 0 || g.Trust(5) != 0 {
		t.Error("out-of-range Trust should be 0")
	}
	if g.SharingScore(-1) != 0 || g.EditingScore(9) != 0 {
		t.Error("out-of-range scores should be 0")
	}
}

// TestGlobalTrustConcurrentBitIdentical is the scheme-level half of the
// serial-reference guarantee: the same workload — transfers, fake-report
// injections, identity churn, cadence steps, forced refreshes — driven
// through a serial-LogGraph scheme and a ConcurrentGraph-backed scheme must
// produce bit-identical trust vectors, scores, and snapshots at every
// observation point. The concurrent store changes who may read, never what
// the scheme computes.
func TestGlobalTrustConcurrentBitIdentical(t *testing.T) {
	const n = 40
	cfg := DefaultGlobalTrustConfig()
	cfg.RefreshEvery = 3
	ccfg := cfg
	ccfg.Concurrent = true
	ccfg.Shards = 4
	serial, err := NewGlobalTrust(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := NewGlobalTrust(n, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.ConcurrentStore() != nil {
		t.Fatal("serial scheme must not expose a concurrent store")
	}
	cs := conc.ConcurrentStore()
	if cs == nil {
		t.Fatal("concurrent scheme must expose its store")
	}

	compare := func(step int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if serial.Trust(i) != conc.Trust(i) {
				t.Fatalf("step %d: trust[%d] diverged: %v vs %v", step, i, serial.Trust(i), conc.Trust(i))
			}
			if serial.SharingScore(i) != conc.SharingScore(i) {
				t.Fatalf("step %d: score[%d] diverged", step, i)
			}
		}
	}

	rng := xrand.New(17)
	for step := 0; step < 120; step++ {
		for k := 0; k < 25; k++ {
			d, s := rng.Intn(n), rng.Intn(n)
			amt := float64(1 + rng.Intn(6))
			serial.RecordTransfer(d, s, amt)
			conc.RecordTransfer(d, s, amt)
		}
		switch step % 10 {
		case 4:
			f, to := rng.Intn(n), rng.Intn(n)
			serial.InjectTrust(f, to, 5)
			conc.InjectTrust(f, to, 5)
		case 7:
			p := rng.Intn(n)
			serial.ResetPeer(p)
			conc.ResetPeer(p)
			compare(step)
		}
		serial.EndStep()
		conc.EndStep()
		compare(step)
	}
	serial.Refresh()
	conc.Refresh()
	compare(-1)

	// The concurrent scheme published its refresh as an immutable snapshot
	// matching the vector, stamped with the current epoch.
	snap := cs.TrustSnapshot()
	if snap == nil {
		t.Fatal("refresh did not publish a trust snapshot")
	}
	for i := 0; i < n; i++ {
		if snap.Vector[i] != conc.Trust(i) {
			t.Fatalf("snapshot[%d] diverged from scheme trust", i)
		}
	}
	if snap.Seq != cs.Stats().Epoch {
		t.Errorf("snapshot stamped with epoch %d, store at %d", snap.Seq, cs.Stats().Epoch)
	}

	// Both stores hold the same canonical edge list, and checkpoint state
	// round-trips across backends.
	if !reflect.DeepEqual(serial.Graph().AppendEdges(nil), conc.Graph().AppendEdges(nil)) {
		t.Fatal("canonical edge lists diverged")
	}
	var st State
	serial.SaveState(&st)
	reloaded, err := NewGlobalTrust(n, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reloaded.LoadState(&st); err != nil {
		t.Fatal(err)
	}
	reloaded.Refresh()
	conc.Refresh()
	for i := 0; i < n; i++ {
		if reloaded.Trust(i) != conc.Trust(i) {
			t.Fatalf("state loaded into concurrent backend diverged at %d", i)
		}
	}

	// Reset drops both back to uniform, bit-identically.
	serial.Reset()
	conc.Reset()
	compare(-2)
}
