// Collabsim regenerates the paper's figures and the reproduction's
// ablations from the command line.
//
// Usage:
//
//	collabsim -fig 1            # analytic Figure 1 (reputation function)
//	collabsim -fig 3 -scale quick
//	collabsim -fig 7 -csv out/  # also dump the series as CSV
//	collabsim -fig 4 -workers 8 # shard sweep points across 8 workers
//	collabsim -fig 4 -warm      # warm-start chains (snapshot + burn-in)
//	collabsim -fig 4 -warm -cold # run both paths, report the speedup
//	collabsim -fig 4 -scale paper -warm -checkpoint ckpt/  # resumable sweep
//	collabsim -ablation shape
//	collabsim -ablation attack -warm            # scheme-robustness sweep
//	collabsim -scenario collusion               # one adversarial scenario
//	collabsim -scenario all                     # every built-in scenario
//	collabsim -scenario specs/custom.json       # JSON spec file
//	collabsim -list
//
// Figures are rendered as ASCII charts; -csv writes the raw series next to
// them for external plotting. -warm runs the sweep figures and ablations as
// warm-start chains (each sweep point restored from its predecessor's
// trained snapshot, re-trained for -burnin steps only); -cold is the
// default full-retraining reference, and giving both runs the two paths
// back to back and prints the wall-clock comparison. -checkpoint DIR
// persists every sweep chain's progress (completed point results + carry
// snapshot, binary codec) under DIR after each point and resumes
// interrupted chains from it on the next invocation — an interrupted
// `-scale paper -warm` sweep continues where it stopped with bit-identical
// results; clear DIR when changing the experiment or scale. The repo's
// benchmark (`go run ./benchmark`) drives this binary as its sweep journey.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"collabnet/internal/asciiplot"
	"collabnet/internal/experiments"
	"collabnet/internal/trace"
)

func main() {
	var (
		figNum     = flag.Int("fig", 0, "paper figure to regenerate (1-7)")
		ablation   = flag.String("ablation", "", "ablation to run: shape|temperature|voting|punishment|scheme|histogram|attack")
		scen       = flag.String("scenario", "", "adversarial scenario to run: built-in name, JSON spec file, or 'all'")
		scale      = flag.String("scale", "quick", "experiment scale: quick|paper")
		csvDir     = flag.String("csv", "", "directory to write CSV series into")
		seed       = flag.Uint64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "worker goroutines for sweeps (0 = GOMAXPROCS)")
		warm       = flag.Bool("warm", false, "run sweeps as warm-start chains (snapshot + burn-in per point)")
		cold       = flag.Bool("cold", false, "run sweeps cold (full retraining per point; with -warm, run both and compare timing)")
		burnIn     = flag.Int("burnin", 0, "warm-start burn-in steps per sweep point (0 = TrainSteps/20)")
		checkpoint = flag.String("checkpoint", "", "persist sweep-chain progress under this directory and resume interrupted chains from it")
		list       = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()

	if *list {
		fmt.Println("figures:    -fig 1 … -fig 7  (Figures 1-7 of the paper)")
		fmt.Println("ablations:  -ablation shape | temperature | voting | punishment | scheme | histogram | attack")
		fmt.Println("scenarios:  -scenario " + scenarioNames() + " | all | <file.json>")
		fmt.Println("scales:     -scale quick (reduced) | -scale paper (full 100 peers, 10k training steps)")
		fmt.Println("tooling:    -workers N | -warm [-cold] | -checkpoint DIR")
		return
	}

	if *scen != "" {
		if err := runScenarios(*scen, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "collabsim:", err)
			os.Exit(1)
		}
		return
	}

	sc := experiments.QuickScale()
	if *scale == "paper" {
		sc = experiments.PaperScale()
	}
	sc.Seed = *seed
	sc.Workers = *workers
	sc.BurnInSteps = *burnIn
	sc.CheckpointDir = *checkpoint

	runTimed := func(warmStart bool) ([]experiments.Figure, time.Duration, error) {
		s := sc
		s.WarmStart = warmStart
		t0 := time.Now()
		figs, err := run(*figNum, *ablation, s)
		return figs, time.Since(t0), err
	}

	var (
		figs []experiments.Figure
		err  error
	)
	if *warm && *cold {
		// Warm-vs-cold comparison: run the executable reference first, then
		// the warm-start chains, and report the wall-clock side by side.
		var coldElapsed, warmElapsed time.Duration
		if _, coldElapsed, err = runTimed(false); err == nil {
			figs, warmElapsed, err = runTimed(true)
		}
		if err == nil && len(figs) > 0 {
			speedup := float64(coldElapsed) / float64(warmElapsed)
			fmt.Printf("warm-vs-cold: cold=%v warm=%v speedup=%.2fx\n",
				coldElapsed.Round(time.Millisecond), warmElapsed.Round(time.Millisecond), speedup)
		}
	} else {
		figs, _, err = runTimed(*warm)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "collabsim:", err)
		os.Exit(1)
	}
	if len(figs) == 0 {
		fmt.Fprintln(os.Stderr, "collabsim: nothing to do; try -list")
		os.Exit(2)
	}
	for i, fig := range figs {
		if err := render(fig); err != nil {
			fmt.Fprintln(os.Stderr, "collabsim:", err)
			os.Exit(1)
		}
		if *csvDir != "" {
			name := fmt.Sprintf("%s-%d.csv", fig.ID, i)
			if err := writeCSV(filepath.Join(*csvDir, name), fig); err != nil {
				fmt.Fprintln(os.Stderr, "collabsim:", err)
				os.Exit(1)
			}
		}
	}
}

func run(figNum int, ablation string, sc experiments.Scale) ([]experiments.Figure, error) {
	switch {
	case figNum == 1:
		fig, err := experiments.Fig1()
		return []experiments.Figure{fig}, err
	case figNum == 2:
		return []experiments.Figure{experiments.Fig2()}, nil
	case figNum == 3:
		res, err := experiments.Fig3(sc)
		if err != nil {
			return nil, err
		}
		fmt.Println("Figure 3 —", res.String())
		return []experiments.Figure{experiments.Fig3Figure(res)}, nil
	case figNum == 4:
		a, b, err := experiments.Fig4(sc)
		return []experiments.Figure{a, b}, err
	case figNum == 5:
		a, b, err := experiments.Fig5(sc)
		return []experiments.Figure{a, b}, err
	case figNum == 6:
		fig, err := experiments.Fig6(sc)
		return []experiments.Figure{fig}, err
	case figNum == 7:
		a, b, err := experiments.Fig7(sc)
		return []experiments.Figure{a, b}, err
	case figNum != 0:
		return nil, fmt.Errorf("unknown figure %d (the paper has Figures 1-7)", figNum)
	}
	switch ablation {
	case "shape":
		fig, err := experiments.AblationReputationShape(sc)
		return []experiments.Figure{fig}, err
	case "temperature":
		fig, err := experiments.AblationTemperature(sc)
		return []experiments.Figure{fig}, err
	case "voting":
		fig, err := experiments.AblationWeightedVoting(sc)
		return []experiments.Figure{fig}, err
	case "punishment":
		fig, err := experiments.AblationPunishment(sc)
		return []experiments.Figure{fig}, err
	case "scheme":
		fig, err := experiments.AblationScheme(sc)
		return []experiments.Figure{fig}, err
	case "histogram":
		fig, err := experiments.ReputationHistogram(sc)
		return []experiments.Figure{fig}, err
	case "attack":
		fig, err := experiments.AblationAttack(sc)
		return []experiments.Figure{fig}, err
	case "":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown ablation %q", ablation)
	}
}

func render(fig experiments.Figure) error {
	series := make([]asciiplot.Series, len(fig.Series))
	for i, s := range fig.Series {
		xs := make([]float64, len(s.Points))
		ys := make([]float64, len(s.Points))
		for j, p := range s.Points {
			xs[j] = p.X
			ys[j] = p.Y
		}
		series[i] = asciiplot.Series{Name: s.Name, X: xs, Y: ys}
	}
	out, err := asciiplot.Line(series, asciiplot.Options{
		Title:  fmt.Sprintf("[%s] %s", fig.ID, fig.Title),
		XLabel: fig.XLabel,
		YLabel: fig.YLabel,
		Width:  72,
		Height: 18,
	})
	if err != nil {
		return err
	}
	fmt.Println(out)
	return nil
}

func writeCSV(path string, fig experiments.Figure) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	header := []string{"x"}
	for _, s := range fig.Series {
		header = append(header, s.Name)
	}
	tab := trace.NewTable(header...)
	// Assume aligned x across series (true for all our figures).
	if len(fig.Series) > 0 {
		for i, p := range fig.Series[0].Points {
			row := []float64{p.X}
			for _, s := range fig.Series {
				if i < len(s.Points) {
					row = append(row, s.Points[i].Y)
				} else {
					row = append(row, 0)
				}
			}
			if err := tab.Append(row...); err != nil {
				return err
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tab.WriteCSV(f); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
