package incentive

import (
	"math"
	"testing"
	"testing/quick"

	"collabnet/internal/core"
)

// allocate adapts the buffer-writing Allocate contract for tests that want
// a fresh share slice.
func allocate(s Scheme, source int, downloaders []int) []float64 {
	shares := make([]float64, len(downloaders))
	s.Allocate(source, downloaders, shares)
	return shares
}

func sumsToOne(t *testing.T, shares []float64) {
	t.Helper()
	sum := 0.0
	for _, s := range shares {
		if s < 0 {
			t.Fatalf("negative share in %v", shares)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
}

func TestReputationSchemeLifecycle(t *testing.T) {
	r, err := NewReputation(4, core.Default(), true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "reputation" {
		t.Error("name wrong")
	}
	// Fresh peers: equal allocation (all at RMin).
	shares := allocate(r, 0, []int{1, 2, 3})
	sumsToOne(t, shares)
	for _, s := range shares {
		if math.Abs(s-1.0/3) > 1e-9 {
			t.Errorf("fresh shares should be equal: %v", shares)
		}
	}
	// Peer 1 shares fully for a while: its allocation share must grow.
	for i := 0; i < 200; i++ {
		r.RecordSharing(1, 1, 1)
		r.EndStep()
	}
	shares = allocate(r, 0, []int{1, 2, 3})
	sumsToOne(t, shares)
	if shares[0] <= shares[1] {
		t.Errorf("sharer should outrank free-riders: %v", shares)
	}
	if r.SharingScore(1) <= r.SharingScore(2) {
		t.Error("sharing score should reflect contributions")
	}
}

func TestReputationSchemeEditRights(t *testing.T) {
	r, _ := NewReputation(3, core.Default(), true)
	if r.CanEdit(0) {
		t.Error("newcomer should not hold edit right (θ > RMin)")
	}
	for i := 0; i < 100; i++ {
		r.RecordSharing(0, 1, 1)
		r.EndStep()
	}
	if !r.CanEdit(0) {
		t.Error("contributor should gain edit right")
	}
	if r.CanEdit(1) {
		t.Error("idle peer should still lack edit right")
	}
}

func TestReputationSchemeVotePathway(t *testing.T) {
	p := core.Default()
	p.MaxVoteFails = 2
	r, _ := NewReputation(3, p, true)
	if !r.CanVote(0) {
		t.Fatal("fresh peer should vote")
	}
	r.RecordVoteOutcome(0, false)
	r.RecordVoteOutcome(0, false)
	if r.CanVote(0) {
		t.Error("two failed votes should ban at threshold 2")
	}
	// Successful votes raise RE via EndStep.
	before := r.EditingScore(1)
	r.RecordVoteOutcome(1, true)
	r.EndStep()
	if r.EditingScore(1) <= before {
		t.Error("successful vote should raise RE")
	}
}

func TestReputationRequiredMajorityDropsWithRE(t *testing.T) {
	r, _ := NewReputation(2, core.Default(), true)
	fresh := r.RequiredMajority(0)
	for i := 0; i < 50; i++ {
		r.RecordEditOutcome(1, true)
		r.EndStep()
	}
	trusted := r.RequiredMajority(1)
	if trusted >= fresh {
		t.Errorf("trusted editor should need less consent: %v vs %v", trusted, fresh)
	}
}

func TestReputationWeightedVotingToggle(t *testing.T) {
	r, _ := NewReputation(2, core.Default(), true)
	for i := 0; i < 50; i++ {
		r.RecordVoteOutcome(0, true)
		r.EndStep()
	}
	if r.VoteWeight(0) <= r.VoteWeight(1) {
		t.Error("weighted voting should favor reputed voter")
	}
	u, _ := NewReputation(2, core.Default(), false)
	if u.VoteWeight(0) != 1 || u.VoteWeight(1) != 1 {
		t.Error("unweighted voting should give weight 1")
	}
}

func TestReputationReset(t *testing.T) {
	r, _ := NewReputation(2, core.Default(), true)
	for i := 0; i < 100; i++ {
		r.RecordSharing(0, 1, 1)
		r.EndStep()
	}
	if r.SharingScore(0) <= 0.5 {
		t.Fatal("setup failed")
	}
	r.Reset()
	if math.Abs(r.SharingScore(0)-core.Default().RMin()) > 1e-9 {
		t.Error("Reset should return scores to RMin")
	}
}

func TestNoneSchemeFlatService(t *testing.T) {
	n, err := NewNone(3, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "none" {
		t.Error("name wrong")
	}
	// Build up reputation-relevant history; allocation must stay equal.
	for i := 0; i < 100; i++ {
		n.RecordSharing(0, 1, 1)
		n.EndStep()
	}
	shares := allocate(n, 9, []int{0, 1, 2})
	sumsToOne(t, shares)
	for _, s := range shares {
		if math.Abs(s-1.0/3) > 1e-12 {
			t.Errorf("baseline must split equally: %v", shares)
		}
	}
	if !n.CanEdit(1) || !n.CanVote(1) {
		t.Error("baseline must not restrict rights")
	}
	if n.VoteWeight(0) != 1 || n.RequiredMajority(0) != 0.5 {
		t.Error("baseline voting must be flat")
	}
	// Scores still track behavior (the observable state).
	if n.SharingScore(0) <= n.SharingScore(1) {
		t.Error("baseline should still track scores")
	}
}

func TestNoneSchemeNeverPunishes(t *testing.T) {
	n, _ := NewNone(2, core.Default())
	for i := 0; i < 100; i++ {
		n.RecordVoteOutcome(0, false)
		n.RecordEditOutcome(0, false)
	}
	if !n.CanVote(0) || !n.CanEdit(0) {
		t.Error("baseline must not punish")
	}
}

func TestTitForTatReciprocity(t *testing.T) {
	tft, err := NewTitForTat(4)
	if err != nil {
		t.Fatal(err)
	}
	// Peer 1 uploaded a lot to peer 0 in the past.
	tft.RecordTransfer(0, 1, 5) // source 1 delivered to downloader 0... wait
	// RecordTransfer(downloader, source, amount): source uploaded to
	// downloader, so this books 1 → 0. Now when peer 1 downloads from peer
	// 0... no reciprocity was recorded for 0 → 1 yet; peer 0 owes peer 1.
	// Book the debt direction we want to test: peer 2 uploaded to source 0.
	tft.RecordTransfer(3, 2, 8) // source 2 delivered 8 to downloader 3
	// Now downloader 2 competes at source 3: weight floor + given[2][3] = 0.1.
	// And at source... the reciprocal credit is given[2][3]? No: given[2][3]
	// is what 2 gave to 3 — zero. given[2] got credit toward 3? The transfer
	// booked given[2][3] += 8 (source 2 gave 8 to peer 3).
	shares := allocate(tft, 3, []int{1, 2})
	sumsToOne(t, shares)
	if shares[1] <= shares[0] {
		t.Errorf("peer 2 (prior uploader to 3) should outrank peer 1: %v", shares)
	}
}

func TestTitForTatNonDirectRelationFailure(t *testing.T) {
	// The paper's core argument: reciprocity earned at one source does not
	// transfer to another source.
	tft, _ := NewTitForTat(4)
	tft.RecordTransfer(1, 0, 100) // peer 0 uploaded hugely — to peer 1
	// At source 2 (no direct relation), peer 0 gets no credit.
	shares := allocate(tft, 2, []int{0, 3})
	if math.Abs(shares[0]-shares[1]) > 1e-12 {
		t.Errorf("credit must not transfer to non-direct relation: %v", shares)
	}
}

func TestTitForTatValidation(t *testing.T) {
	if _, err := NewTitForTat(0); err == nil {
		t.Error("n=0 should fail")
	}
	tft, _ := NewTitForTat(2)
	tft.RecordTransfer(-1, 0, 5) // must not panic
	tft.RecordTransfer(0, 1, -5) // ignored
	if tft.SharingScore(0) != 0 {
		t.Error("no uploads yet")
	}
	tft.RecordTransfer(1, 0, 10)
	if tft.SharingScore(0) <= 0 || tft.SharingScore(0) >= 1 {
		t.Errorf("score out of range: %v", tft.SharingScore(0))
	}
	tft.Reset()
	if tft.SharingScore(0) != 0 {
		t.Error("Reset should clear uploads")
	}
}

func TestKarmaConservation(t *testing.T) {
	k, err := NewKarma(5, DefaultKarmaConfig())
	if err != nil {
		t.Fatal(err)
	}
	initial := k.TotalSupply()
	if math.Abs(initial-50) > 1e-9 {
		t.Fatalf("initial supply = %v, want 50", initial)
	}
	prop := func(transfers []struct {
		D, S   uint8
		Amount float64
	}) bool {
		for _, tr := range transfers {
			k.RecordTransfer(int(tr.D)%5, int(tr.S)%5, math.Abs(math.Mod(tr.Amount, 10)))
		}
		return math.Abs(k.TotalSupply()-initial) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// No balance may go negative.
	for i := 0; i < 5; i++ {
		if k.Balance(i) < 0 {
			t.Errorf("peer %d balance negative: %v", i, k.Balance(i))
		}
	}
}

func TestKarmaAllocationFavorsEarners(t *testing.T) {
	k, _ := NewKarma(3, DefaultKarmaConfig())
	// Peer 1 earns by uploading to peer 2.
	k.RecordTransfer(2, 1, 8)
	shares := allocate(k, 0, []int{1, 2})
	sumsToOne(t, shares)
	if shares[0] <= shares[1] {
		t.Errorf("earner should outrank spender: %v", shares)
	}
}

func TestKarmaNoDebt(t *testing.T) {
	k, _ := NewKarma(2, KarmaConfig{InitialGrant: 1, Price: 1, Floor: 0.05})
	k.RecordTransfer(0, 1, 100) // costs 100 but balance is 1
	if k.Balance(0) != 0 {
		t.Errorf("balance should floor at 0, got %v", k.Balance(0))
	}
	if math.Abs(k.Balance(1)-2) > 1e-12 {
		t.Errorf("source should receive only what was paid: %v", k.Balance(1))
	}
}

func TestKarmaValidationAndReset(t *testing.T) {
	if _, err := NewKarma(0, DefaultKarmaConfig()); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewKarma(2, KarmaConfig{InitialGrant: -1, Price: 1}); err == nil {
		t.Error("negative grant should fail")
	}
	if _, err := NewKarma(2, KarmaConfig{InitialGrant: 1, Price: 0}); err == nil {
		t.Error("zero price should fail")
	}
	k, _ := NewKarma(2, DefaultKarmaConfig())
	k.RecordTransfer(0, 1, 5)
	k.Reset()
	if k.Balance(0) != 10 || k.Balance(1) != 10 {
		t.Error("Reset should restore initial grants")
	}
}

func TestNewFactory(t *testing.T) {
	for _, kind := range []Kind{KindNone, KindReputation, KindTitForTat, KindKarma, KindEigenTrust} {
		s, err := NewScheme(5, Options{Kind: kind, WeightedVoting: true})
		if err != nil {
			t.Fatalf("NewScheme(%v): %v", kind, err)
		}
		if s.Name() != kind.String() {
			t.Errorf("NewScheme(%v).Name() = %q", kind, s.Name())
		}
		shares := allocate(s, 0, []int{1, 2})
		sumsToOne(t, shares)
	}
	if _, err := NewScheme(5, Options{Kind: Kind(99)}); err == nil {
		t.Error("unknown kind should fail")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should format")
	}
}

func TestSchemesHandleEmptyDownloaderSet(t *testing.T) {
	for _, kind := range []Kind{KindNone, KindReputation, KindTitForTat, KindKarma, KindEigenTrust} {
		s, _ := NewScheme(3, Options{Kind: kind, WeightedVoting: true})
		s.Allocate(0, nil, nil) // must be a safe no-op
	}
}

func TestSchemesAllocateIntoReusedBuffer(t *testing.T) {
	// The transfer manager hands every scheme the same scratch buffer each
	// step; stale contents from a previous (larger) call must never leak.
	for _, kind := range []Kind{KindNone, KindReputation, KindTitForTat, KindKarma, KindEigenTrust} {
		s, _ := NewScheme(5, Options{Kind: kind, WeightedVoting: true})
		buf := make([]float64, 5)
		s.Allocate(0, []int{1, 2, 3, 4}, buf[:4])
		first := append([]float64(nil), buf[:4]...)
		s.Allocate(0, []int{1, 2}, buf[:2])
		sumsToOne(t, buf[:2])
		s.Allocate(0, []int{1, 2, 3, 4}, buf[:4])
		for i := range first {
			if math.Abs(buf[i]-first[i]) > 1e-12 {
				t.Errorf("%v: buffer reuse changed shares: %v vs %v", kind, buf[:4], first)
			}
		}
	}
}
