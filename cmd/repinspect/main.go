// Repinspect answers reputation what-if questions from the command line:
// given a sustained sharing behavior, where does a peer's reputation settle,
// how long does it take to earn the edit right, and what majority do its
// edits need?
//
// With -graph it instead inspects the trust graph under attack: a
// deterministic collusion-plus-churn workload on the edge-log graph, with
// the attack-relevant statistics (in-clique trust mass, dangling rows,
// row-clear/compaction counters) and the clique's trust share under each
// trust metric. The same workload then replays through the concurrent
// epoch-swapped store, reporting its publish/retirement counters (epochs,
// swaps, retire-waits, ingest drains) and checking the final arrays against
// the serial log bit-identically.
//
// Usage:
//
//	repinspect -articles 0.5 -bandwidth 1.0 -steps 200
//	repinspect -beta 0.1 -articles 1 -bandwidth 1
//	repinspect -graph -peers 40 -clique 4 -boost 0.5 -rejoin 100 -steps 400
package main

import (
	"flag"
	"fmt"
	"os"

	"collabnet/internal/core"
)

func main() {
	var (
		articles  = flag.Float64("articles", 0.5, "sustained article sharing level in [0,1]")
		bandwidth = flag.Float64("bandwidth", 0.5, "sustained bandwidth sharing level in [0,1]")
		steps     = flag.Int("steps", 200, "time steps to simulate")
		beta      = flag.Float64("beta", 0, "override logistic beta (0 keeps the default)")
		graph     = flag.Bool("graph", false, "inspect the trust graph under a collusion+churn workload instead")
		gossip    = flag.Bool("gossip", false, "measure gossip dissemination accuracy vs rounds against the exact solver")
		peers     = flag.Int("peers", 40, "graph/gossip mode: total peers")
		cliqueN   = flag.Int("clique", 4, "graph/gossip mode: colluding clique size")
		boost     = flag.Float64("boost", 0.5, "graph/gossip mode: fabricated per-step in-clique trust weight")
		rejoin    = flag.Int("rejoin", 100, "graph/gossip mode: whitewash cadence in steps (0 = no churn)")
		fanout    = flag.Int("fanout", 2, "gossip mode: push fanout per informed peer per round")
	)
	flag.Parse()

	if *graph {
		if err := graphStats(*peers, *cliqueN, *steps, *rejoin, *boost); err != nil {
			fmt.Fprintln(os.Stderr, "repinspect:", err)
			os.Exit(1)
		}
		return
	}
	if *gossip {
		if err := gossipStats(*peers, *cliqueN, *steps, *rejoin, *boost, *fanout); err != nil {
			fmt.Fprintln(os.Stderr, "repinspect:", err)
			os.Exit(1)
		}
		return
	}

	p := core.Default()
	if *beta > 0 {
		p.Beta = *beta
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "repinspect:", err)
		os.Exit(1)
	}
	ledger, err := core.NewLedger(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repinspect:", err)
		os.Exit(1)
	}
	fn, _ := p.Reputation()

	fmt.Printf("scheme: g=%g beta=%g  Rmin=%.3f  inflection C*=%.1f  edit threshold θ=%.2f\n\n",
		p.G, p.Beta, p.RMin(), fn.Inflection(), p.EditTheta)
	fmt.Printf("sustained sharing: articles=%.0f%%, bandwidth=%.0f%%\n\n", *articles*100, *bandwidth*100)
	fmt.Printf("%6s %10s %8s %10s %10s\n", "step", "CS", "RS", "canEdit", "majority")

	editAt := -1
	stride := *steps / 10
	if stride == 0 {
		stride = 1
	}
	for s := 1; s <= *steps; s++ {
		ledger.StepSharing(*articles, *bandwidth)
		if editAt < 0 && ledger.CanEdit() {
			editAt = s
		}
		if s%stride == 0 || s == 1 {
			fmt.Printf("%6d %10.2f %8.3f %10v %10.3f\n",
				s, ledger.CS(), ledger.RS(), ledger.CanEdit(),
				core.RequiredMajority(p, ledger.RE()))
		}
	}
	fmt.Println()
	if editAt >= 0 {
		fmt.Printf("edit right earned after %d steps\n", editAt)
	} else {
		fmt.Printf("edit right NOT earned within %d steps (RS=%.3f < θ=%.2f)\n",
			*steps, ledger.RS(), p.EditTheta)
	}
	// Steady state under proportional decay.
	inflow := p.AlphaS**articles + p.BetaS**bandwidth
	if p.DecayMode == core.DecayProportional && p.DS > 0 {
		cs := inflow / p.DS
		if cs > p.CCap {
			cs = p.CCap
		}
		fmt.Printf("steady state: CS*=%.1f  RS*=%.3f\n", cs, fn.Eval(cs))
	}
}
