package reputation

import (
	"reflect"
	"testing"

	"collabnet/internal/xrand"
)

func TestGossipSpreadInformsEveryone(t *testing.T) {
	rng := xrand.New(3)
	res, err := Spread(200, 0, DefaultGossip(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 200 {
		t.Fatalf("informed %d of 200 peers", res.Informed)
	}
	if !res.Converged {
		t.Error("full dissemination must report Converged")
	}
	if res.Rounds <= 0 || res.Rounds >= DefaultGossip().MaxRound {
		t.Errorf("suspicious round count %d", res.Rounds)
	}
	if res.Messages < 199 {
		t.Errorf("cannot inform 199 peers with %d messages", res.Messages)
	}
}

func TestGossipSpreadSinglePeer(t *testing.T) {
	rng := xrand.New(1)
	res, err := Spread(1, 0, DefaultGossip(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 1 || res.Rounds != 0 || res.Messages != 0 || !res.Converged {
		t.Errorf("single peer result = %+v", res)
	}
}

func TestGossipSpreadErrors(t *testing.T) {
	rng := xrand.New(1)
	if _, err := Spread(0, 0, DefaultGossip(), rng); err == nil {
		t.Error("n = 0 should error")
	}
	if _, err := Spread(5, 9, DefaultGossip(), rng); err == nil {
		t.Error("origin out of range should error")
	}
	if _, err := Spread(5, 0, GossipConfig{Fanout: 0, MaxRound: 10}, rng); err == nil {
		t.Error("fanout 0 should error")
	}
	if _, err := Spread(5, 0, GossipConfig{Fanout: 2, MaxRound: 0}, rng); err == nil {
		t.Error("MaxRound 0 should error")
	}
}

func TestGossipSpreadRespectsMaxRound(t *testing.T) {
	rng := xrand.New(9)
	cfg := GossipConfig{Fanout: 1, MaxRound: 1}
	res, err := Spread(1000, 0, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
	if res.Informed > 2 {
		t.Errorf("one fanout-1 round informed %d peers", res.Informed)
	}
	if res.Converged {
		t.Error("a MaxRound-truncated run must not report Converged")
	}
}

// TestGossipSpreadDeterministic pins the dissemination to the RNG stream:
// equal seeds give identical results — the property that keeps experiments
// built on gossip reproducible regardless of which graph store feeds the
// reputation values being disseminated.
func TestGossipSpreadDeterministic(t *testing.T) {
	run := func() GossipResult {
		rng := xrand.New(42)
		res, err := Spread(500, 7, GossipConfig{Fanout: 3, MaxRound: 50}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
}

// TestGossipSpreadNeverPushesToSelf pins the self-exclusion fix: with two
// peers the sender has exactly one legal target, so fanout-1 dissemination
// must complete in exactly one round with exactly one message for every
// seed. Before the fix a sender could sample itself, wasting the round's
// only push and leaving convergence to luck.
func TestGossipSpreadNeverPushesToSelf(t *testing.T) {
	for seed := uint64(1); seed <= 32; seed++ {
		rng := xrand.New(seed)
		res, err := Spread(2, 0, GossipConfig{Fanout: 1, MaxRound: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 1 || res.Messages != 1 || res.Informed != 2 || !res.Converged {
			t.Fatalf("seed %d: n=2 fanout=1 should converge in one round with one message, got %+v", seed, res)
		}
	}
}

func TestAntiEntropyRoundsShape(t *testing.T) {
	if r := AntiEntropyRounds(1, 2); r != 0 {
		t.Errorf("n=1 rounds = %d", r)
	}
	if r := AntiEntropyRounds(0, 2); r != 0 {
		t.Errorf("n=0 rounds = %d", r)
	}
	// Monotone in n, decreasing in fanout, O(log n) growth.
	r1k := AntiEntropyRounds(1000, 2)
	r1m := AntiEntropyRounds(1000000, 2)
	if r1m <= r1k {
		t.Errorf("rounds not monotone: n=1k %d, n=1M %d", r1k, r1m)
	}
	if r1m > 4*r1k {
		t.Errorf("rounds not logarithmic-ish: n=1k %d, n=1M %d", r1k, r1m)
	}
	if hi, lo := AntiEntropyRounds(10000, 1), AntiEntropyRounds(10000, 8); hi <= lo {
		t.Errorf("higher fanout should need fewer rounds: f=1 %d, f=8 %d", hi, lo)
	}
	// Clamped fanout: f < 1 behaves like f = 1.
	if AntiEntropyRounds(100, 0) != AntiEntropyRounds(100, 1) {
		t.Error("fanout < 1 should clamp to 1")
	}
}

// TestGossipCostMatchesAnalyticEstimate cross-checks the simulated rounds
// against the analytic companion on a mid-size network: both should land in
// the same O(log n) ballpark.
func TestGossipCostMatchesAnalyticEstimate(t *testing.T) {
	rng := xrand.New(5)
	const n = 2000
	cfg := DefaultGossip()
	res, err := Spread(n, 0, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	est := AntiEntropyRounds(n, cfg.Fanout)
	if res.Rounds > 4*est || est > 4*res.Rounds {
		t.Errorf("simulated %d rounds vs analytic %d: out of ballpark", res.Rounds, est)
	}
}

// TestSpreadAllocationBounded pins the sender-buffer hoist: one Spread run
// allocates exactly its two fixed buffers (the informed set and the sender
// list), independent of how many rounds the dissemination takes — the
// per-round sender rebuild reuses one slice instead of reallocating.
func TestSpreadAllocationBounded(t *testing.T) {
	rng := xrand.New(7)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Spread(500, 3, DefaultGossip(), rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Spread allocates %v times per run, want <= 2 (informed + senders)", allocs)
	}
}

func TestGossipSpreadReachesEveryone(t *testing.T) {
	rng := xrand.New(1)
	res, err := Spread(100, 0, DefaultGossip(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 100 {
		t.Errorf("informed = %d/100", res.Informed)
	}
	if !res.Converged {
		t.Error("full dissemination must report Converged")
	}
	// Push gossip with fanout 2 should finish in O(log n) rounds.
	if res.Rounds > 25 {
		t.Errorf("took %d rounds, expected O(log n)", res.Rounds)
	}
	if res.Messages <= 0 {
		t.Error("no messages counted")
	}
}

func TestGossipSingletonNetwork(t *testing.T) {
	rng := xrand.New(2)
	res, err := Spread(1, 0, DefaultGossip(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 1 || res.Rounds != 0 {
		t.Errorf("singleton result = %+v", res)
	}
}

func TestGossipValidation(t *testing.T) {
	rng := xrand.New(3)
	if _, err := Spread(0, 0, DefaultGossip(), rng); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := Spread(10, 10, DefaultGossip(), rng); err == nil {
		t.Error("origin out of range should fail")
	}
	if _, err := Spread(10, 0, GossipConfig{Fanout: 0, MaxRound: 10}, rng); err == nil {
		t.Error("fanout 0 should fail")
	}
	if _, err := Spread(10, 0, GossipConfig{Fanout: 1, MaxRound: 0}, rng); err == nil {
		t.Error("MaxRound 0 should fail")
	}
}

func TestGossipRoundBoundRespected(t *testing.T) {
	rng := xrand.New(4)
	res, err := Spread(10000, 0, GossipConfig{Fanout: 1, MaxRound: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 3 {
		t.Errorf("rounds = %d, bound was 3", res.Rounds)
	}
	if res.Informed >= 10000 {
		t.Error("cannot fully inform 10000 peers in 3 rounds at fanout 1")
	}
	if res.Converged {
		t.Error("a truncated run must not report Converged")
	}
}

func TestAntiEntropyRoundsMonotone(t *testing.T) {
	if AntiEntropyRounds(1, 2) != 0 {
		t.Error("single peer needs 0 rounds")
	}
	small := AntiEntropyRounds(100, 2)
	large := AntiEntropyRounds(10000, 2)
	if small <= 0 || large <= small {
		t.Errorf("rounds should grow with n: %d vs %d", small, large)
	}
	fastFanout := AntiEntropyRounds(10000, 8)
	if fastFanout >= large {
		t.Errorf("higher fanout should need fewer rounds: %d vs %d", fastFanout, large)
	}
	// The estimate should be in the same ballpark as simulation.
	rng := xrand.New(9)
	res, _ := Spread(1000, 0, GossipConfig{Fanout: 2, MaxRound: 1000}, rng)
	est := AntiEntropyRounds(1000, 2)
	if est < res.Rounds/3 || est > res.Rounds*3 {
		t.Errorf("estimate %d far from simulated %d", est, res.Rounds)
	}
}
