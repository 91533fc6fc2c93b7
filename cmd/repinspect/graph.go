package main

import (
	"fmt"
	"runtime"

	"collabnet/internal/reputation"
)

// graphStats simulates a collusion-plus-churn workload on the edge-log trust
// graph and reports the attack-relevant statistics: where the fabricated
// in-clique trust mass sits, what identity churn does to the log (row
// clears, tail length, compactions), which rows go dangling (and so defer
// to the teleport distribution), and how the three trust metrics — uniform
// EigenTrust, pre-trusted EigenTrust, and max-flow — each rank the clique.
//
// The workload is fully deterministic: honest peers push delivered-bandwidth
// trust around a rotating ring, a thin honest edge reaches the clique every
// 50 steps, the clique injects a fabricated trust ring every step, and one
// clique member whitewashes (sheds its row) on the -rejoin cadence.
func graphStats(peers, cliqueSize, steps, rejoinEvery int, boost float64) error {
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

	edges := g.AppendEdges(nil)
	inClique := func(p int) bool { return p >= honest }
	var total, cliqueMass float64
	for _, e := range edges {
		total += e.W
		if inClique(e.From) && inClique(e.To) {
			cliqueMass += e.W
		}
	}
	dangling := reputation.NewCSR(g).Dangling()

	fmt.Printf("trust graph after %d steps: %d peers (%d honest, %d-clique), boost=%g, rejoin every %d\n\n",
		steps, peers, honest, cliqueSize, boost, rejoinEvery)
	fmt.Printf("edge log:   nnz=%d  tail=%d  row-clears=%d  compactions=%d\n",
		g.NNZ(), g.TailLen(), g.RowClears(), g.Compactions())
	fmt.Printf("trust mass: total=%.1f  in-clique=%.1f (%.1f%% from %.0f%% of peers)\n",
		total, cliqueMass, 100*cliqueMass/total, 100*float64(cliqueSize)/float64(peers))
	fmt.Printf("dangling rows (defer to teleport): %d %v\n\n", len(dangling), dangling)

	share := func(t []float64) float64 {
		var tot, cl float64
		for p, v := range t {
			tot += v
			if inClique(p) {
				cl += v
			}
		}
		if tot == 0 {
			return 0
		}
		return cl / tot
	}
	// Fresh workspaces keep each solve cold (the bit-exact reference path)
	// and expose the solver stats EigenTrust's plain-function form hides.
	uniWS := reputation.NewEigenTrustWorkspace()
	uniform, err := uniWS.Compute(g, reputation.DefaultEigenTrust())
	if err != nil {
		return err
	}
	uniStats := uniWS.LastStats()
	preCfg := reputation.DefaultEigenTrust()
	preCfg.PreTrusted = []int{0, 1, 2}
	preWS := reputation.NewEigenTrustWorkspace()
	pre, err := preWS.Compute(g, preCfg)
	if err != nil {
		return err
	}
	preStats := preWS.LastStats()
	flow, err := reputation.MaxFlowTrust(g, 0)
	if err != nil {
		return err
	}
	fmt.Printf("clique trust share by metric (population share %.3f):\n",
		float64(cliqueSize)/float64(peers))
	fmt.Printf("  eigentrust (uniform teleport):     %.3f  (%d iterations, converged=%v)\n",
		share(uniform), uniStats.Iterations, uniStats.Converged)
	fmt.Printf("  eigentrust (pre-trusted {0,1,2}):  %.3f  (%d iterations, converged=%v)\n",
		share(pre), preStats.Iterations, preStats.Converged)
	fmt.Printf("  maxflow (evaluator 0):             %.3f\n", share(flow))

	g.Compact()
	fmt.Printf("\nafter forced compaction: nnz=%d  tail=%d  compactions=%d\n",
		g.NNZ(), g.TailLen(), g.Compactions())

	// Replay the identical workload through the concurrent store: a flush
	// every 256 statements plus the ClearPeer points produce a stream of
	// immutable epochs, and a reader pinned across each churn event forces
	// the retirement protocol to actually wait. The final arrays must be
	// bit-identical to the serial log above — the serial-reference
	// guarantee, checked here on real output rather than in tests only.
	cg, err := reputation.NewConcurrentGraph(peers, 0)
	if err != nil {
		return err
	}
	if err := driveWorkload(cg, cg.Flush, honest, cliqueSize, steps, rejoinEvery, boost); err != nil {
		return err
	}
	cg.Flush()

	// Deterministically exercise the retirement protocol so the counter
	// below reflects a real wait: pin the current epoch, publish once so the
	// pinned buffer becomes the spare, then let a second publish park on it
	// until we release. The republished statement is weight-preserving
	// (SetTrust to the existing value), keeping the arrays bit-identical.
	if len(edges) > 0 {
		idem := func() error { return cg.SetTrust(edges[0].From, edges[0].To, edges[0].W) }
		pin := cg.Acquire()
		if err := idem(); err != nil {
			return err
		}
		cg.Flush() // the pinned epoch is now the spare
		if err := idem(); err != nil {
			return err
		}
		done := make(chan struct{})
		go func() { cg.Flush(); close(done) }() // parks: spare still pinned
		for cg.Stats().RetireWaits == 0 {
			runtime.Gosched()
		}
		pin.Release()
		<-done
	}
	st := cg.Stats()
	match := "MATCH"
	if !edgesEqual(cg.AppendEdges(nil), edges) {
		match = "DIVERGED"
	}
	fmt.Printf("\nconcurrent store (same workload, flushed every 256 statements):\n")
	fmt.Printf("  epoch=%d  swaps=%d  retire-waits=%d  ingest-drains=%d\n",
		st.Epoch, st.Swaps, st.RetireWaits, st.Flushes)
	fmt.Printf("  pending=%d  pinned-readers=%d\n", st.Pending, st.Readers)
	fmt.Printf("  serial-reference check: %s (%d edges)\n", match, len(edges))

	// Read the trust ranking back through the TrustReader interface — the
	// same read plane collabserve queries go through — from both
	// implementations: the serial solver over the edge log and the
	// concurrent store's published snapshot. The two top-k lists must agree
	// exactly, since both solve the identical compacted graph.
	solver, err := reputation.NewTrustSolver(g, reputation.DefaultEigenTrust())
	if err != nil {
		return err
	}
	if err := solver.Solve(); err != nil {
		return err
	}
	var vec []float64
	var solveErr error
	seq := cg.Exclusive(func(lg *reputation.LogGraph) {
		vec, solveErr = reputation.EigenTrust(lg, reputation.DefaultEigenTrust())
	})
	if solveErr != nil {
		return solveErr
	}
	cg.PublishTrustAt(seq, vec)
	readers := []struct {
		name string
		r    reputation.TrustReader
	}{{"serial solver", solver}, {"concurrent store", cg}}
	var topSerial, top []reputation.PeerTrust
	for i, rd := range readers {
		top = rd.r.TopK(5, top[:0])
		fmt.Printf("\ntop-5 global trust via TrustReader (%s, snapshot seq %d):\n",
			rd.name, rd.r.TrustSnapshot().Seq)
		for _, pt := range top {
			marker := ""
			if inClique(pt.Peer) {
				marker = "  <- clique"
			}
			fmt.Printf("  peer %-4d trust %.4f%s\n", pt.Peer, pt.Trust, marker)
		}
		if i == 0 {
			topSerial = append(topSerial[:0], top...)
		} else if !topKEqual(topSerial, top) {
			fmt.Printf("  WARNING: readers disagree with serial solver\n")
		}
	}
	return nil
}

// topKEqual reports whether two TrustReader rankings are identical.
func topKEqual(a, b []reputation.PeerTrust) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// driveWorkload replays the deterministic collusion-plus-churn schedule on
// any trust store; both the serial log and the concurrent store run the very
// same statement sequence. A non-nil flush runs after every 256 statements.
func driveWorkload(g reputation.Graph, flush func(), honest, cliqueSize, steps, rejoinEvery int, boost float64) error {
	stmts := 0
	add := func(from, to int, w float64) error {
		err := g.AddTrust(from, to, w)
		if stmts++; flush != nil && stmts%256 == 0 {
			flush()
		}
		return err
	}
	for s := 1; s <= steps; s++ {
		from := s % honest
		to := (from + 1 + s%(honest-1)) % honest
		if to != from {
			if err := add(from, to, 1); err != nil {
				return err
			}
		}
		if s%50 == 0 {
			if err := add(s%honest, honest+(s/50)%cliqueSize, 0.2); err != nil {
				return err
			}
		}
		for k := 0; k < cliqueSize; k++ {
			if err := add(honest+k, honest+(k+1)%cliqueSize, boost); err != nil {
				return err
			}
		}
		if rejoinEvery > 0 && s%rejoinEvery == 0 {
			if err := g.ClearPeer(honest + (s/rejoinEvery)%cliqueSize); err != nil {
				return err
			}
		}
	}
	return nil
}

// edgesEqual reports whether two canonical edge lists are identical.
func edgesEqual(a, b []reputation.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
