package incentive

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

const statePeers = 12

// driveScheme feeds a scheme a deterministic mix of every event type.
func driveScheme(s Scheme, rounds int) {
	for r := 0; r < rounds; r++ {
		for p := 0; p < statePeers; p++ {
			s.RecordSharing(p, float64(p%3)/2, float64((p+r)%3)/2)
		}
		s.RecordTransfer(r%statePeers, (r+3)%statePeers, 0.5+float64(r%4))
		s.RecordVoteOutcome(r%statePeers, r%3 != 0)
		s.RecordEditOutcome((r+5)%statePeers, r%4 != 0)
		s.EndStep()
	}
}

// observables fingerprints a scheme's externally visible behavior.
func observables(t *testing.T, s Scheme) []float64 {
	t.Helper()
	var out []float64
	downs := []int{1, 3, 5, 7}
	shares := make([]float64, len(downs))
	s.Allocate(2, downs, shares)
	out = append(out, shares...)
	for p := 0; p < statePeers; p++ {
		out = append(out, s.SharingScore(p), s.EditingScore(p), s.VoteWeight(p),
			s.RequiredMajority(p), b2f(s.CanEdit(p)), b2f(s.CanVote(p)))
	}
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func newScheme(t *testing.T, kind Kind) Scheme {
	t.Helper()
	s, err := NewScheme(statePeers, Options{Kind: kind, WeightedVoting: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSchemeStateRoundTrip drives each scheme, saves its state, loads it
// into a fresh instance, and requires identical observables now and after
// further identical driving.
func TestSchemeStateRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindNone, KindReputation, KindTitForTat, KindKarma, KindEigenTrust} {
		t.Run(kind.String(), func(t *testing.T) {
			src := newScheme(t, kind)
			driveScheme(src, 137)
			var st State
			src.(Snapshotter).SaveState(&st)
			if st.Kind != kind {
				t.Fatalf("state tagged %s, want %s", st.Kind, kind)
			}

			dst := newScheme(t, kind)
			driveScheme(dst, 11) // divergent history to be overwritten
			if err := dst.(Snapshotter).LoadState(&st); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(observables(t, src), observables(t, dst)) {
				t.Fatal("observables differ right after load")
			}
			driveScheme(src, 60)
			driveScheme(dst, 60)
			a, b := observables(t, src), observables(t, dst)
			for i := range a {
				if math.Abs(a[i]-b[i]) != 0 {
					t.Fatalf("observable %d diverges after further driving: %v vs %v", i, a[i], b[i])
				}
			}
		})
	}
}

// TestSchemeStateKindMismatch pins the sentinel the engine keys its
// cross-scheme tolerance on.
func TestSchemeStateKindMismatch(t *testing.T) {
	var st State
	karma := newScheme(t, KindKarma)
	karma.(Snapshotter).SaveState(&st)
	rep := newScheme(t, KindReputation)
	err := rep.(Snapshotter).LoadState(&st)
	if !errors.Is(err, ErrStateKind) {
		t.Errorf("want ErrStateKind, got %v", err)
	}
	if err := rep.(Snapshotter).LoadState(nil); err == nil {
		t.Error("nil state should fail")
	}
}

// TestSchemeStateSizeMismatch pins that a state saved for another peer
// count is refused.
func TestSchemeStateSizeMismatch(t *testing.T) {
	for _, kind := range []Kind{KindNone, KindReputation, KindTitForTat, KindKarma, KindEigenTrust} {
		var st State
		small, err := NewScheme(statePeers-2, Options{Kind: kind, WeightedVoting: true})
		if err != nil {
			t.Fatal(err)
		}
		small.(Snapshotter).SaveState(&st)
		big := newScheme(t, kind)
		if err := big.(Snapshotter).LoadState(&st); err == nil {
			t.Errorf("%s: peer-count mismatch should fail", kind)
		}
	}
}

// TestSchemeStateDeterministicSave pins that two saves of equal schemes are
// DeepEqual (edge lists in canonical order despite map-backed internals).
func TestSchemeStateDeterministicSave(t *testing.T) {
	for _, kind := range []Kind{KindTitForTat, KindEigenTrust} {
		a, b := newScheme(t, kind), newScheme(t, kind)
		driveScheme(a, 200)
		driveScheme(b, 200)
		var sa, sb State
		a.(Snapshotter).SaveState(&sa)
		b.(Snapshotter).SaveState(&sb)
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: saves of identical schemes differ", kind)
		}
	}
}

// TestSchemeStateWarmLoadAllocationFree pins that reloading a state the
// scheme has already seen reuses retained buckets and buffers.
func TestSchemeStateWarmLoadAllocationFree(t *testing.T) {
	for _, kind := range []Kind{KindReputation, KindKarma} {
		s := newScheme(t, kind)
		driveScheme(s, 100)
		var st State
		s.(Snapshotter).SaveState(&st)
		if err := s.(Snapshotter).LoadState(&st); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := s.(Snapshotter).LoadState(&st); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm LoadState allocates %v times, want 0", kind, allocs)
		}
	}
}
