package incentive

import "testing"

// TestVotePathDoesNotAllocate guards the per-ballot scheme surface the
// engine's edit-session arena calls for every proposal: eligibility, weight,
// majority, and outcome booking must be allocation-free under every scheme,
// or the arena's zero-alloc hot path silently regresses from inside the
// scheme.
func TestVotePathDoesNotAllocate(t *testing.T) {
	const n = 32
	for _, kind := range []Kind{KindNone, KindReputation, KindTitForTat, KindKarma, KindEigenTrust} {
		s, err := NewScheme(n, Options{Kind: kind, WeightedVoting: true})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		// Warm any lazily grown internal state.
		votePathOnce(s, n)
		allocs := testing.AllocsPerRun(100, func() { votePathOnce(s, n) })
		if allocs != 0 {
			t.Errorf("%v: vote path allocates %v times per session, want 0", kind, allocs)
		}
	}
}

// votePathOnce exercises one proposal's worth of scheme calls for every
// peer, mirroring the order the engine uses in runEditSession.
func votePathOnce(s Scheme, n int) {
	for v := 0; v < n; v++ {
		if !s.CanVote(v) {
			continue
		}
		_ = s.VoteWeight(v)
	}
	_ = s.RequiredMajority(0)
	for v := 1; v < n; v++ {
		s.RecordVoteOutcome(v, v%2 == 0)
	}
	s.RecordEditOutcome(0, true)
}
