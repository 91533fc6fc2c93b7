package reputation

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"collabnet/internal/xrand"
)

// TestMaxIterExhaustedIdenticalAcrossExecutors pins the branch of the shared
// loop that stops on the iteration budget rather than on Epsilon: with
// MaxIter=3 the serial workspace and sharded workspaces of several shard
// counts all run exactly 3 rounds, report Converged == false, and return
// bit-identical vectors — cold and warm — and every shard goroutine is gone
// once the solves return.
func TestMaxIterExhaustedIdenticalAcrossExecutors(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, cold := range []bool{true, false} {
		cfg := DefaultEigenTrust()
		cfg.MaxIter = 3
		cfg.ColdStart = cold
		g := randomLogGraph(t, 80, 0.1, 61)
		ws := NewEigenTrustWorkspace()
		shardCounts := []int{1, 2, 5}
		sws := make([]*ShardedWorkspace, len(shardCounts))
		for i, k := range shardCounts {
			var err error
			if sws[i], err = NewShardedWorkspace(k); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 3; step++ {
			want, err := ws.Compute(g.Clone(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := ws.LastStats()
			if st.Iterations != 3 || st.Converged || st.Warm != (!cold && step > 0) {
				t.Fatalf("cold=%v step %d: serial stats %+v, want 3 unconverged rounds", cold, step, st)
			}
			for i, sw := range sws {
				got, err := sw.Compute(g.Clone(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cold=%v step %d k=%d: budget-stopped vector diverges from serial", cold, step, shardCounts[i])
				}
				if sw.LastStats() != st {
					t.Fatalf("cold=%v step %d k=%d: stats %+v vs serial %+v", cold, step, shardCounts[i], sw.LastStats(), st)
				}
				if ss := sw.ShardStats(); ss.Rounds != 3 || ss.Converged {
					t.Fatalf("cold=%v step %d k=%d: shard stats %+v", cold, step, shardCounts[i], ss)
				}
			}
			// Heavy value churn so a warm start is still far from the new
			// fixed point and cannot converge inside the budget.
			for i := 0; i < 40; i++ {
				if err := g.AddTrust(i, firstEdge(t, g, i), 25); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// A shard's last act is its report, which Compute receives before it
	// returns; the goroutine's exit follows within a scheduling quantum.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the sharded solves, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameShardSlice compares two slices by content (nil and empty arrays are
// the same slice of the matrix).
func sameShardSlice(a, b *ShardSlice) bool {
	return a.Lo == b.Lo && a.Hi == b.Hi && a.N == b.N &&
		slices.Equal(a.TRowPtr, b.TRowPtr) &&
		slices.Equal(a.TColIdx, b.TColIdx) &&
		slices.Equal(a.TVal, b.TVal) &&
		slices.Equal(a.Dangling, b.Dangling)
}

// TestShardPlanViewsTrackCSRUnderChurn is the randomized property test for
// the "a slice is a window of the one CSR" layout: under value bumps, new
// and removed edges, row clears, a second consumer draining the dirty set,
// and growth past the arrays' current capacity (edge count and peer count),
// after every Refresh the plan's slices equal a fresh plan's, and every
// non-empty slice's TVal still aliases the plan's CSR — no second copy, no
// view left pointing at a reallocated array.
func TestShardPlanViewsTrackCSRUnderChurn(t *testing.T) {
	for _, seed := range []uint64{3, 17, 88} {
		rng := xrand.New(seed)
		n := 12 + rng.Intn(30)
		k := 1 + rng.Intn(6)
		g := randomLogGraph(t, n, 0.05, seed*5)
		p, err := NewShardPlan(g, k)
		if err != nil {
			t.Fatal(err)
		}
		other := NewCSR(g) // a second consumer of the same log
		density := 0.02
		for step := 0; step < 40; step++ {
			if step == 25 {
				// Switch to a larger population: every array outgrows its
				// capacity and the rebuild reallocates.
				n *= 3
				g = randomLogGraph(t, n, 0.1, seed*5+1)
			}
			if step%10 == 9 {
				density *= 3 // edge growth past the current nnz capacity
			}
			valueOnly := rng.Bool(0.5) // bumps on live edges keep the pattern
			for c := 0; c < 1+rng.Intn(8); c++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j {
					continue
				}
				var err error
				switch {
				case valueOnly:
					if g.OutDegree(i) > 0 {
						err = g.AddTrust(i, firstEdge(t, g, i), rng.Float64())
					}
				case rng.Bool(0.4):
					err = g.AddTrust(i, j, rng.Float64())
				case rng.Bool(0.4):
					err = g.SetTrust(i, j, 0)
				case rng.Bool(0.5):
					err = g.ClearPeer(i)
				default:
					for jj := 0; jj < n && err == nil; jj++ {
						if jj != i && rng.Bool(density) {
							err = g.SetTrust(i, jj, rng.Float64()*3)
						}
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if rng.Bool(0.25) {
				other.Refresh(g) // drains the dirty set before the plan sees it
			}
			p.Refresh(g)

			fresh, err := NewShardPlan(g.Clone(), k)
			if err != nil {
				t.Fatal(err)
			}
			c := &p.csr
			for s := 0; s < k; s++ {
				sl := p.Slice(s)
				if !sameShardSlice(sl, fresh.Slice(s)) {
					t.Fatalf("seed %d step %d (n=%d k=%d): slice %d diverges from a fresh plan after %+v",
						seed, step, n, k, s, p.LastRefresh())
				}
				if sl.NNZ() > 0 && &sl.TVal[0] != &c.tVal[c.tRowPtr[sl.Lo]] {
					t.Fatalf("seed %d step %d: slice %d TVal is not a window of the plan's CSR", seed, step, s)
				}
			}
		}
	}
}
