package main

import (
	"fmt"

	"collabnet/internal/reputation"
)

// shardStats measures destination-range shard balance on the deterministic
// collusion-plus-churn workload: for K ∈ {2,4,8} it cuts the per-shard
// transposed slices, reports each shard's rows, nnz, and per-round outbound
// exchange bytes, and flags any split whose heaviest shard carries more
// than 2× the mean nnz — the imbalance measurement the ROADMAP's sharding
// item asks for. (Max-vs-mean rather than max-vs-min: churned graphs can
// leave a shard nearly empty, and a zero minimum would flag every split.)
//
// Each K then runs the sharded solve and checks it bit-identical against
// the serial cold workspace solve — the MATCH line `make shard-smoke`
// gates CI on. A divergence is an error, not just a printout.
func shardStats(peers, cliqueSize, steps, rejoinEvery int, boost float64) error {
	if peers < 4 || cliqueSize < 2 || cliqueSize >= peers-2 {
		return fmt.Errorf("need peers >= 4 and 2 <= clique < peers-2, got peers=%d clique=%d",
			peers, cliqueSize)
	}
	if steps <= 0 {
		return fmt.Errorf("need steps > 0, got %d", steps)
	}
	g, err := reputation.NewLogGraph(peers)
	if err != nil {
		return err
	}
	honest := peers - cliqueSize
	if err := driveWorkload(g, nil, honest, cliqueSize, steps, rejoinEvery, boost); err != nil {
		return err
	}
	g.Compact()

	cfg := reputation.DefaultEigenTrust()
	ws := reputation.NewEigenTrustWorkspace()
	serial, err := ws.Compute(g, cfg)
	if err != nil {
		return err
	}
	serialStats := ws.LastStats()
	want := append([]float64(nil), serial...)

	fmt.Printf("shard balance after %d steps: %d peers (%d honest, %d-clique), boost=%g, rejoin every %d\n",
		steps, peers, honest, cliqueSize, boost, rejoinEvery)
	fmt.Printf("graph: nnz=%d  serial solve: %d iterations, converged=%v\n",
		g.NNZ(), serialStats.Iterations, serialStats.Converged)

	diverged := false
	for _, k := range []int{2, 4, 8} {
		plan, err := reputation.NewShardPlan(g, k)
		if err != nil {
			return err
		}
		fmt.Printf("\nK=%d shards (destination ranges):\n", k)
		fmt.Printf("  %5s %12s %8s %8s %14s\n", "shard", "range", "rows", "nnz", "xchg B/round")
		maxNNZ := 0
		for s := 0; s < k; s++ {
			sl := plan.Slice(s)
			// Per round a shard ships its output slice to K−1 peers and the
			// combiner: rows × 8 bytes × K outbound.
			xchg := sl.Rows() * 8 * k
			fmt.Printf("  %5d %12s %8d %8d %14d\n",
				s, fmt.Sprintf("[%d,%d)", sl.Lo, sl.Hi), sl.Rows(), sl.NNZ(), xchg)
			if sl.NNZ() > maxNNZ {
				maxNNZ = sl.NNZ()
			}
		}
		mean := float64(plan.NNZ()) / float64(k)
		balance := "balanced"
		if mean > 0 && float64(maxNNZ) > 2*mean {
			balance = fmt.Sprintf("IMBALANCED >2x (max %d vs mean %.1f)", maxNNZ, mean)
		}
		fmt.Printf("  nnz balance: max/mean = %.2f — %s\n", float64(maxNNZ)/mean, balance)

		sw, err := reputation.NewShardedWorkspace(k)
		if err != nil {
			return err
		}
		got, err := sw.Compute(g, cfg)
		if err != nil {
			return err
		}
		st := sw.ShardStats()
		match := "MATCH"
		if len(got) != len(want) {
			match = "DIVERGED"
		} else {
			for i := range got {
				if got[i] != want[i] {
					match = "DIVERGED"
					break
				}
			}
		}
		if st.Rounds != serialStats.Iterations {
			match = "DIVERGED"
		}
		if match == "DIVERGED" {
			diverged = true
		}
		fmt.Printf("  sharded solve: %d rounds, %d bytes exchanged — serial-reference check: %s\n",
			st.Rounds, st.BytesExchanged, match)
	}
	if diverged {
		return fmt.Errorf("sharded solve diverged from the serial reference")
	}
	return nil
}
