package main

import (
	"encoding/csv"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"collabnet/internal/reputation"
	"collabnet/internal/serve"
)

// Output checks: the numbers mean nothing if the programs computed the
// wrong thing.

// apply sends one event into any of the trust stores.
func apply(g reputation.Graph, e serve.Event) error {
	if e.Set {
		return g.SetTrust(e.From, e.To, e.W)
	}
	return g.AddTrust(e.From, e.To, e.W)
}

func applyAll(g reputation.Graph, evs []serve.Event) error {
	for _, e := range evs {
		if err := apply(g, e); err != nil {
			return err
		}
	}
	return nil
}

// replay builds the serial reference: the preload graph and then exactly
// the acknowledged writes, in send order, into one LogGraph.
func replay(in *instance, accepted []bool) (*reputation.LogGraph, error) {
	ref, err := reputation.NewLogGraph(in.Peers)
	if err != nil {
		return nil, err
	}
	for _, e := range in.Preload {
		if err := ref.AddTrust(e.F, e.T, e.W); err != nil {
			return nil, err
		}
	}
	for i := range in.Writes {
		if !accepted[i] {
			continue
		}
		evs, err := in.Writes[i].events()
		if err != nil {
			return nil, err
		}
		if err := applyAll(ref, evs); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// compareEdges requires the served dump to equal the reference bit for bit.
func compareEdges(got, want []reputation.Edge) error {
	if len(got) != len(want) {
		return fmt.Errorf("edge count: served %d, serial replay %d", len(got), len(want))
	}
	for i, e := range got {
		if e != want[i] {
			return fmt.Errorf("edge %d: served %+v, serial replay %+v", i, e, want[i])
		}
	}
	return nil
}

// checkServing quiesces the server and requires (a) its edge dump to equal
// a serial LogGraph replay of exactly the accepted events and (b) its
// served vector to lie within 2·Epsilon/Damping in L1 of a cold serial
// solve of that replay — the bound warm-started solves are held to.
// corrupt nudges one expected weight by one ulp to show the check bites.
func checkServing(c *conn, in *instance, accepted []bool, corrupt bool) error {
	if err := must(http.StatusOK)(c.post("/v1/flush", nil)); err != nil {
		return fmt.Errorf("check: flush: %w", err)
	}
	if err := must(http.StatusOK)(c.post("/v1/refresh", nil)); err != nil {
		return fmt.Errorf("check: refresh: %w", err)
	}
	var dump struct {
		Edges []reputation.Edge `json:"edges"` // from/to/w match the fields case-insensitively
	}
	if err := must(http.StatusOK)(c.get("/v1/edges", &dump)); err != nil {
		return fmt.Errorf("check: edge dump: %w", err)
	}
	ref, err := replay(in, accepted)
	if err != nil {
		return fmt.Errorf("check: replay: %w", err)
	}
	want := ref.AppendEdges(nil)
	if corrupt {
		want[len(want)/2].W = math.Nextafter(want[len(want)/2].W, math.Inf(1))
	}
	if err := compareEdges(dump.Edges, want); err != nil {
		return fmt.Errorf("check: replay equivalence: %w", err)
	}

	var top struct {
		Top []reputation.PeerTrust `json:"top"`
	}
	if err := must(http.StatusOK)(c.get("/v1/top?k="+strconv.Itoa(in.Peers), &top)); err != nil {
		return fmt.Errorf("check: vector: %w", err)
	}
	if len(top.Top) != in.Peers {
		return fmt.Errorf("check: vector: served %d components, want %d", len(top.Top), in.Peers)
	}
	cfg := reputation.DefaultEigenTrust()
	cold, err := reputation.EigenTrust(ref, cfg)
	if err != nil {
		return fmt.Errorf("check: cold solve: %w", err)
	}
	l1 := 0.0
	for _, pt := range top.Top {
		l1 += math.Abs(pt.Trust - cold[pt.Peer])
	}
	if bound := 2 * cfg.Epsilon / cfg.Damping; l1 > bound {
		return fmt.Errorf("check: served vector is %.3g from the cold serial solve in L1, bound %.3g", l1, bound)
	}
	return nil
}

// checkSweep requires the figure CSVs the workload's sweep must write: the
// right number of files, series and rows, every value a share in [0, 1],
// and for Fig 4 the altruistic series rising and the irrational one falling.
func checkSweep(w workload, dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	if len(files) != w.SweepCSVs {
		return fmt.Errorf("check: sweep wrote %d CSVs, want %d", len(files), w.SweepCSVs)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			return fmt.Errorf("check: %s: %w", path, err)
		}
		if err := checkTable(w, rows); err != nil {
			return fmt.Errorf("check: %s: %w", filepath.Base(path), err)
		}
	}
	return nil
}

func checkTable(w workload, rows [][]string) error {
	if len(rows) != 1+w.SweepRows {
		return fmt.Errorf("%d points per series, want %d", len(rows)-1, w.SweepRows)
	}
	header := rows[0]
	if len(header) != 1+w.SweepSeries {
		return fmt.Errorf("%d series, want %d", len(header)-1, w.SweepSeries)
	}
	for col := 1; col < len(header); col++ {
		prev := math.NaN()
		for _, row := range rows[1:] {
			if len(row) != len(header) {
				return fmt.Errorf("ragged row %v", row)
			}
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil || v < 0 || v > 1 {
				return fmt.Errorf("series %s: value %q is not a share in [0,1]", header[col], row[col])
			}
			if w.Fig4 && header[col] == "altruistic" && v <= prev {
				return fmt.Errorf("altruistic series does not rise: %v after %v", v, prev)
			}
			if w.Fig4 && header[col] == "irrational" && v >= prev {
				return fmt.Errorf("irrational series does not fall: %v after %v", v, prev)
			}
			prev = v
		}
	}
	if w.Fig4 && (header[1] != "altruistic" || header[2] != "irrational") {
		return fmt.Errorf("series %v, want altruistic and irrational", header[1:])
	}
	return nil
}
