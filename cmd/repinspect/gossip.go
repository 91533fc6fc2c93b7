package main

import (
	"fmt"
	"math"

	"collabnet/internal/reputation"
	"collabnet/internal/xrand"
)

// gossipStats measures the ROADMAP's accuracy-vs-rounds tradeoff for
// approximate trust dissemination on one churned graph: the exact solver
// produces a fresh eigenvector after a churn burst, push gossip spreads it
// from the solver's node, and each round's accuracy is the trust error a
// randomly chosen peer still carries — uninformed peers keep acting on the
// pre-churn vector, so the expected per-peer L1 error after round r is
// (1 − informed(r)/n) · ‖t_new − t_old‖₁. The exact solve is the reference;
// the table quantifies how many rounds of O(n·fanout) messages buy how much
// of its accuracy.
func gossipStats(peers, cliqueSize, steps, rejoinEvery int, boost float64, fanout int) error {
	if peers < 4 || cliqueSize < 2 || cliqueSize >= peers-2 {
		return fmt.Errorf("need peers >= 4 and 2 <= clique < peers-2, got peers=%d clique=%d",
			peers, cliqueSize)
	}
	if steps <= 0 {
		return fmt.Errorf("need steps > 0, got %d", steps)
	}
	if fanout <= 0 {
		return fmt.Errorf("need fanout > 0, got %d", fanout)
	}
	g, err := reputation.NewLogGraph(peers)
	if err != nil {
		return err
	}
	honest := peers - cliqueSize

	// Baseline graph and vector: the state the network has fully gossiped.
	if err := driveWorkload(g, nil, honest, cliqueSize, steps, rejoinEvery, boost); err != nil {
		return err
	}
	ws := reputation.NewEigenTrustWorkspace()
	cfg := reputation.DefaultEigenTrust()
	v, err := ws.Compute(g, cfg)
	if err != nil {
		return err
	}
	tOld := append([]float64(nil), v...)
	oldStats := ws.LastStats()

	// One churn burst (a tenth of the original schedule), then the exact
	// warm-started re-solve gossip must now disseminate.
	burst := steps / 10
	if burst == 0 {
		burst = 1
	}
	if err := driveWorkload(g, nil, honest, cliqueSize, burst, rejoinEvery, boost); err != nil {
		return err
	}
	tNew, err := ws.Compute(g, cfg)
	if err != nil {
		return err
	}
	newStats := ws.LastStats()
	l1 := 0.0
	for i := range tNew {
		l1 += math.Abs(tNew[i] - tOld[i])
	}

	fmt.Printf("gossip accuracy-vs-rounds: %d peers, fanout %d, churn burst of %d steps\n\n",
		peers, fanout, burst)
	fmt.Printf("exact solver: baseline %d iterations (warm=%v), re-solve %d iterations (warm=%v, dirty rows=%d)\n",
		oldStats.Iterations, oldStats.Warm, newStats.Iterations, newStats.Warm,
		newStats.Refresh.RowsTouched)
	fmt.Printf("vector delta to disseminate: L1=%.3e\n\n", l1)

	gcfg := reputation.GossipConfig{Fanout: fanout, MaxRound: 100}
	res, trace, err := reputation.SpreadTrace(peers, 0, gcfg, xrand.New(1), nil)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %10s %10s %14s\n", "round", "informed", "coverage", "E[peer L1 err]")
	fmt.Printf("%6d %10d %9.1f%% %14.3e\n", 0, 1, 100/float64(peers), l1*(1-1/float64(peers)))
	for r, informed := range trace {
		stale := 1 - float64(informed)/float64(peers)
		fmt.Printf("%6d %10d %9.1f%% %14.3e\n",
			r+1, informed, 100*float64(informed)/float64(peers), l1*stale)
	}
	fmt.Printf("\n%d rounds, %d messages (%.1f per peer), converged=%v; analytic estimate %d rounds\n",
		res.Rounds, res.Messages, float64(res.Messages)/float64(peers), res.Converged,
		reputation.AntiEntropyRounds(peers, fanout))
	return nil
}
