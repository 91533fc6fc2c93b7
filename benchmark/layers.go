package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"collabnet/internal/agent"
	"collabnet/internal/articles"
	"collabnet/internal/core"
	"collabnet/internal/incentive"
	"collabnet/internal/network"
	"collabnet/internal/reputation"
	"collabnet/internal/serve"
	"collabnet/internal/sim"
	"collabnet/internal/xrand"
)

// The traced run. Part 1 is the session itself with a span around every
// call the benchmark makes into the program (recorded by run.go). Part 2,
// here, replays one round of the same instance in-process through each
// layer's public functions, one refresh window at a time, so that every
// layer has its own numbers. Nothing from this file reaches the timed run.

// window is the traffic of one refresh interval of the replayed round.
type window struct {
	Bodies     [][]byte
	Events     []serve.Event
	Structural bool
}

// layerReplay carries what the per-layer replays share.
type layerReplay struct {
	in      *instance
	w       workload
	tr      *tracer
	root    int
	base    []serve.Event // preload plus the warm-up's writes: the state the round starts from
	windows []window
	m       map[string]metric
}

func (l *layerReplay) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// timed runs fn under a span and returns how long it took.
func (l *layerReplay) timed(parent int, name, req string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	l.tr.add(parent, name, req, start, end)
	return end.Sub(start)
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// p50 is the median of a layer's per-window samples; a layer that saw no
// window of a kind reports 0 for it.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func newLayerReplay(s *session) (*layerReplay, error) {
	l := &layerReplay{in: s.in, w: s.w, tr: s.tr, m: map[string]metric{}}
	l.root = l.tr.add(0, "replay", "", time.Now(), time.Now())
	for _, e := range s.in.Preload {
		l.base = append(l.base, serve.Event{Type: serve.EventTrust, From: e.F, To: e.T, W: e.W})
	}
	round := roundLen(s.in.Seconds)
	l.windows = make([]window, round/refreshEvery)
	for i := range s.in.Writes {
		wr := &s.in.Writes[i]
		at := time.Duration(wr.AtUS) * time.Microsecond
		if at >= warmup+round {
			break
		}
		evs, err := wr.events()
		if err != nil {
			return nil, err
		}
		if at < warmup {
			l.base = append(l.base, evs...)
			continue
		}
		win := &l.windows[(at-warmup)/refreshEvery]
		win.Bodies = append(win.Bodies, wr.Body)
		win.Events = append(win.Events, evs...)
		win.Structural = win.Structural || wr.Structural
	}
	return l, nil
}

// otherKind synthesizes windows of the kind the workload's own round does
// not have — value-only adds on live edges for a churn workload, edge
// creates and deletes for a steady one — so the store and matrix layers
// report both of their paths on every workload.
func (l *layerReplay) otherKind(lg *reputation.LogGraph, n int) []window {
	rng := rand.New(rand.NewSource(int64(l.in.Seed) + 1))
	perWindow := max(1, int(l.w.BatchRate*float64(l.w.BatchSize)*refreshEvery.Seconds()))
	live := lg.AppendEdges(nil)
	var created []serve.Event
	out := make([]window, n)
	for i := range out {
		win := &out[i]
		win.Structural = !l.w.Churn
		if l.w.Churn {
			for len(win.Events) < perWindow {
				e := live[rng.Intn(len(live))]
				win.Events = append(win.Events, serve.Event{Type: serve.EventContrib, From: e.From, To: e.To, W: 0.5 + rng.Float64()})
			}
			continue
		}
		// Delete what the previous synthetic window created, create as many.
		for _, e := range created {
			win.Events = append(win.Events, serve.Event{Type: serve.EventTrust, From: e.From, To: e.To, Set: true})
		}
		created = created[:0]
		for len(created) < perWindow/2 {
			f, t := rng.Intn(l.in.Peers-1), rng.Intn(l.in.Peers)
			if f != t && lg.Trust(f, t) == 0 {
				e := serve.Event{Type: serve.EventTrust, From: f, To: t, W: 1 + 9*rng.Float64()}
				created = append(created, e)
				win.Events = append(win.Events, e)
			}
		}
	}
	return out
}

// storeLayers replays the round through LogGraph and a standalone CSR.
func (l *layerReplay) storeLayers() error {
	lg, err := reputation.NewLogGraph(l.in.Peers)
	if err != nil {
		return err
	}
	if err := applyAll(lg, l.base); err != nil {
		return err
	}
	l.set("reputation.loggraph.bulk_compact_ms", msOf(l.timed(l.root, "loggraph.bulk_compact", "", lg.Compact)), "ms")
	csr := reputation.NewCSR(lg)

	var appendNS, events float64
	var compact, refresh [2][]float64 // [0] pattern-stable windows, [1] structural
	var rows []float64
	replay := func(wins []window, own bool) error {
		for i, win := range wins {
			req := "w" + strconv.Itoa(i)
			var aerr error
			d := l.timed(l.root, "loggraph.append", req, func() { aerr = applyAll(lg, win.Events) })
			if aerr != nil {
				return aerr
			}
			kind := 0
			if win.Structural {
				kind = 1
			}
			compact[kind] = append(compact[kind], msOf(l.timed(l.root, "loggraph.compact", req, lg.Compact)))
			dr := l.timed(l.root, "csr.refresh", req, func() { csr.Refresh(lg) })
			st := csr.LastRefresh()
			switch {
			case st.DirtyOnly:
				refresh[0] = append(refresh[0], msOf(dr))
			case !st.PatternStable:
				refresh[1] = append(refresh[1], msOf(dr))
			}
			if own {
				appendNS += float64(d.Nanoseconds())
				events += float64(len(win.Events))
				rows = append(rows, float64(st.RowsTouched))
			}
		}
		return nil
	}
	if err := replay(l.windows, true); err != nil {
		return err
	}
	if err := replay(l.otherKind(lg, 20), false); err != nil {
		return err
	}
	l.set("reputation.loggraph.append_ns_per_event", appendNS/events, "ns")
	l.set("reputation.loggraph.compact_stable_p50_ms", p50(compact[0]), "ms")
	l.set("reputation.loggraph.compact_struct_p50_ms", p50(compact[1]), "ms")
	l.set("reputation.csr.refresh_dirty_p50_ms", p50(refresh[0]), "ms")
	l.set("reputation.csr.refresh_rebuild_p50_ms", p50(refresh[1]), "ms")
	l.set("reputation.csr.rows_touched_p50", p50(rows), "count")
	return nil
}

// solveLayers replays the round through one EigenTrustWorkspace and through
// incentive.GlobalTrust over the concurrent store — the object
// collabserve's solve plane owns — window by window side by side, so that
// the share of a refresh that is the solve compares like with like.
func (l *layerReplay) solveLayers() error {
	lg, err := reputation.NewLogGraph(l.in.Peers)
	if err != nil {
		return err
	}
	scheme, err := incentive.NewScheme(l.in.Peers, incentive.Options{
		Kind: incentive.KindEigenTrust, Concurrent: true, Shards: serve.DefaultShards,
	})
	if err != nil {
		return err
	}
	gt := scheme.(*incentive.GlobalTrust)
	cg := gt.ConcurrentStore()
	if err := applyAll(lg, l.base); err != nil {
		return err
	}
	if err := applyAll(cg, l.base); err != nil {
		return err
	}
	ws := reputation.NewEigenTrustWorkspace()
	cfg := reputation.DefaultEigenTrust()
	var serr error
	solve := func(c reputation.EigenTrustConfig) func() {
		return func() {
			if _, e := ws.Compute(lg, c); e != nil {
				serr = e
			}
		}
	}
	refresh := func() {
		if e := gt.RefreshNow(); e != nil {
			serr = e
		}
	}
	l.set("reputation.eigentrust.solve_cold_ms", msOf(l.timed(l.root, "eigentrust.solve_cold", "", solve(cfg))), "ms")
	l.set("reputation.eigentrust.iters_cold", float64(ws.LastStats().Iterations), "count")
	refresh()
	var warm, iters, refreshes []float64
	for i, win := range l.windows {
		req := "w" + strconv.Itoa(i)
		if err := applyAll(lg, win.Events); err != nil {
			return err
		}
		if err := applyAll(cg, win.Events); err != nil {
			return err
		}
		warm = append(warm, msOf(l.timed(l.root, "eigentrust.solve_warm", req, solve(cfg))))
		iters = append(iters, float64(ws.LastStats().Iterations))
		refreshes = append(refreshes, msOf(l.timed(l.root, "globaltrust.refresh", req, refresh)))
	}
	// The iteration alone: a cold start on the unchanged graph refreshes
	// nothing and runs the full iteration count.
	cold := cfg
	cold.ColdStart = true
	d := l.timed(l.root, "eigentrust.iterate", "", solve(cold))
	l.set("reputation.eigentrust.solve_warm_p50_ms", p50(warm), "ms")
	l.set("reputation.eigentrust.iters_warm_p50", p50(iters), "count")
	l.set("reputation.eigentrust.ns_per_nnz_iter",
		float64(d.Nanoseconds())/float64(lg.NNZ()*ws.LastStats().Iterations), "ns")
	l.set("incentive.globaltrust.refresh_p50_ms", p50(refreshes), "ms")
	l.set("incentive.globaltrust.solve_share", p50(warm)/p50(refreshes), "ratio")
	return serr
}

// concurrentLayer replays the round through a ConcurrentGraph.
func (l *layerReplay) concurrentLayer() error {
	cg, err := reputation.NewConcurrentGraph(l.in.Peers, serve.DefaultShards)
	if err != nil {
		return err
	}
	if err := applyAll(cg, l.base); err != nil {
		return err
	}
	cg.Flush()
	var applyNS, events float64
	var publish []float64
	for i, win := range l.windows {
		req := "w" + strconv.Itoa(i)
		var aerr error
		applyNS += float64(l.timed(l.root, "concurrent.apply", req, func() { aerr = applyAll(cg, win.Events) }).Nanoseconds())
		if aerr != nil {
			return aerr
		}
		events += float64(len(win.Events))
		publish = append(publish, msOf(l.timed(l.root, "concurrent.publish", req, cg.Flush)))
	}
	const reads = 200_000
	rng := rand.New(rand.NewSource(int64(l.in.Seed) + 2))
	sink := 0.0
	d := l.timed(l.root, "concurrent.pinned_reads", "", func() {
		for i := 0; i < reads; i++ {
			e := l.in.Preload[rng.Intn(len(l.in.Preload))]
			ep := cg.Acquire()
			sink += ep.Trust(e.F, e.T)
			ep.Release()
		}
	})
	if sink == 0 {
		return fmt.Errorf("concurrent layer: pinned reads saw no preloaded edge")
	}
	l.set("reputation.concurrent.apply_ns_per_event", applyNS/events, "ns")
	l.set("reputation.concurrent.publish_p50_ms", p50(publish), "ms")
	l.set("reputation.concurrent.pinned_read_ns", float64(d.Nanoseconds())/reads, "ns")
	return nil
}

// mallocs reports the heap allocations and bytes fn makes.
func mallocs(fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// serveLayer replays the round through serve.Server's handlers on an
// httptest recorder — no socket — and times a snapshot save and load.
func (l *layerReplay) serveLayer(outDir string) (err error) {
	snap := filepath.Join(outDir, "replay.snap")
	_ = os.Remove(snap) // a leftover would be loaded as the starting state
	// An hour between ticks: the replay forces every solve itself.
	cfg := serve.Config{Peers: l.in.Peers, Refresh: time.Hour, SnapshotPath: snap}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	srv.Start()
	defer srv.Stop()
	// call serves one request under a span and returns how long the handler took.
	call := func(h http.Handler, parent int, name, req, method, path string, body []byte, want int) time.Duration {
		r := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		d := l.timed(parent, name, req, func() { h.ServeHTTP(rec, r) })
		if err == nil && rec.Code != want {
			err = fmt.Errorf("serve layer: %s %s returned %d", method, path, rec.Code)
		}
		return d
	}
	h := srv.Handler()
	for lo := 0; lo < len(l.base); lo += bulkBatch {
		body, merr := json.Marshal(ingestBody{l.base[lo:min(lo+bulkBatch, len(l.base))]})
		if merr != nil {
			return merr
		}
		call(h, l.root, "serve.bulk_load", "", "POST", "/v1/events", body, http.StatusAccepted)
	}
	call(h, l.root, "serve.refresh", "", "POST", "/v1/refresh", nil, http.StatusOK)

	// What the harness itself allocates per request, measured against a
	// handler that does nothing and taken out of the ingest handler's count.
	const calib = 500
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	harnessAllocs, harnessBytes := mallocs(func() {
		for i := 0; i < calib; i++ {
			call(noop, l.root, "serve.harness", "", "POST", "/v1/events", nil, http.StatusOK)
		}
	})

	var ingest, flush, refresh []float64
	var batches, allocs, bytesAlloc float64
	for i, win := range l.windows {
		req := "w" + strconv.Itoa(i)
		parent := l.tr.reserve(l.root, "serve.window", req, time.Now())
		a, b := mallocs(func() {
			for _, body := range win.Bodies {
				ingest = append(ingest, msOf(call(h, parent, "serve.ingest", req, "POST", "/v1/events", body, http.StatusAccepted)))
			}
		})
		batches, allocs, bytesAlloc = batches+float64(len(win.Bodies)), allocs+a, bytesAlloc+b
		flush = append(flush, msOf(call(h, parent, "serve.flush", req, "POST", "/v1/flush", nil, http.StatusOK)))
		refresh = append(refresh, msOf(call(h, parent, "serve.refresh", req, "POST", "/v1/refresh", nil, http.StatusOK)))
		l.tr.finish(parent, time.Now())
	}
	l.set("serve.ingest_handler_p50_ms", p50(ingest), "ms")
	l.set("serve.ingest_allocs_per_batch", allocs/batches-harnessAllocs/calib, "count")
	l.set("serve.ingest_bytes_per_batch", bytesAlloc/batches-harnessBytes/calib, "B")
	l.set("serve.flush_p50_ms", p50(flush), "ms")
	l.set("serve.refresh_p50_ms", p50(refresh), "ms")

	rng := rand.New(rand.NewSource(int64(l.in.Seed) + 3))
	for _, k := range readKinds {
		var lat []float64
		for i := 0; i < 400; i++ {
			lat = append(lat, usOf(call(h, l.root, "serve.read."+k.Kind, "", "GET", readPath(rng, l.in.Peers, k.Kind), nil, http.StatusOK)))
		}
		l.set("serve.read_"+k.Kind+"_handler_p50_us", p50(lat), "us")
	}
	if err != nil {
		return err
	}

	srv.Stop()
	l.set("serve.snapshot_save_ms", msOf(l.timed(l.root, "serve.snapshot_save", "", func() { err = srv.SaveSnapshot() })), "ms")
	if err != nil {
		return err
	}
	fi, err := os.Stat(snap)
	if err != nil {
		return err
	}
	l.set("serve.snapshot_bytes", float64(fi.Size()), "B")
	l.set("serve.snapshot_load_ms", msOf(l.timed(l.root, "serve.snapshot_load", "", func() { _, err = serve.New(cfg) })), "ms")
	return err
}

// chainConfigs are the first points of one of the sweep's chains, built the
// way internal/experiments builds them.
func (l *layerReplay) chainConfigs() []sim.Config {
	var cfgs []sim.Config
	if l.w.Fig4 {
		for _, pct := range []int{10, 20, 30, 40} {
			f := float64(pct) / 100
			cfg := sim.Default()
			cfg.Mix = sim.Mixture{Altruistic: f, Rational: (1 - f) / 2, Irrational: (1 - f) / 2}
			cfg.Seed = l.in.Seed + uint64(pct)*1000
			cfgs = append(cfgs, cfg)
		}
		return cfgs
	}
	for _, kind := range []incentive.Kind{incentive.KindNone, incentive.KindReputation, incentive.KindTitForTat, incentive.KindEigenTrust} {
		cfg := sim.Default()
		cfg.Scheme = kind
		cfg.Seed = l.in.Seed
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// simLayer rebuilds one chain of the sweep point by point: construct,
// restore (warm chains), train or burn in, snapshot, measure.
func (l *layerReplay) simLayer() error {
	var construct, restore, snapshot, allocs, bytesAlloc []float64
	var trainNS, trainSteps, measureNS, measureSteps, totalNS float64
	var snap *sim.EngineSnapshot
	for i, cfg := range l.chainConfigs() {
		req := "p" + strconv.Itoa(i)
		parent := l.tr.reserve(l.root, "sim.point", req, time.Now())
		var perr error
		a, b := mallocs(func() {
			var eng *sim.Engine
			d := l.timed(parent, "sim.construct", req, func() { eng, perr = sim.New(cfg) })
			if perr != nil {
				return
			}
			construct = append(construct, msOf(d))
			totalNS += float64(d.Nanoseconds())
			steps := cfg.TrainSteps
			if l.w.WarmChains && i > 0 {
				steps = cfg.TrainSteps / sim.DefaultBurnInDivisor
				d := l.timed(parent, "sim.restore", req, func() { perr = eng.RestoreLearnersFrom(snap) })
				if perr != nil {
					return
				}
				restore = append(restore, usOf(d))
				totalNS += float64(d.Nanoseconds())
			}
			d = l.timed(parent, "sim.train", req, func() { eng.TrainN(steps) })
			trainNS, trainSteps, totalNS = trainNS+float64(d.Nanoseconds()), trainSteps+float64(steps), totalNS+float64(d.Nanoseconds())
			d = l.timed(parent, "sim.snapshot", req, func() { snap = eng.SnapshotLearners(snap) })
			snapshot = append(snapshot, usOf(d))
			totalNS += float64(d.Nanoseconds())
			d = l.timed(parent, "sim.measure", req, func() { _, perr = eng.Measure() })
			measureNS, measureSteps, totalNS = measureNS+float64(d.Nanoseconds()), measureSteps+float64(cfg.MeasureSteps), totalNS+float64(d.Nanoseconds())
		})
		l.tr.finish(parent, time.Now())
		if perr != nil {
			return perr
		}
		allocs, bytesAlloc = append(allocs, a), append(bytesAlloc, b)
	}
	l.set("sim.chain.construct_p50_ms", p50(construct), "ms")
	l.set("sim.chain.restore_p50_us", p50(restore), "us")
	l.set("sim.chain.snapshot_p50_us", p50(snapshot), "us")
	l.set("sim.engine.train_ns_per_step", trainNS/trainSteps, "ns")
	l.set("sim.engine.measure_ns_per_step", measureNS/measureSteps, "ns")
	l.set("sim.engine.train_share", trainNS/totalNS, "ratio")
	l.set("sim.engine.allocs_per_point", p50(allocs), "count")
	l.set("sim.engine.alloc_bytes_per_point", p50(bytesAlloc), "B")

	for _, k := range []struct {
		name string
		kind incentive.Kind
	}{{"none", incentive.KindNone}, {"reputation", incentive.KindReputation}, {"tft", incentive.KindTitForTat},
		{"karma", incentive.KindKarma}, {"eigentrust", incentive.KindEigenTrust}} {
		cfg := sim.Default()
		cfg.Scheme = k.kind
		cfg.Seed = l.in.Seed
		eng, err := sim.New(cfg)
		if err != nil {
			return err
		}
		for i := 0; i < 300; i++ { // fill the transfer pipeline first
			eng.StepOnce(1, true)
		}
		const steps = 3000
		d := l.timed(l.root, "incentive.steps."+k.name, "", func() {
			for i := 0; i < steps; i++ {
				eng.StepOnce(1, true)
			}
		})
		l.set("incentive.step_ns."+k.name, float64(d.Nanoseconds())/steps, "ns")
	}
	return nil
}

// kernelLayers times the leaf packages' hot calls the way the root
// micro-benchmarks drive them.
func (l *layerReplay) kernelLayers() error {
	per := func(name string, n int, fn func(i int)) {
		d := l.timed(l.root, name, "", func() {
			for i := 0; i < n; i++ {
				fn(i)
			}
		})
		l.set(name, float64(d.Nanoseconds())/float64(n), "ns")
	}
	q, err := agent.NewQLearner(10, 9, 0.25, 0.9)
	if err != nil {
		return err
	}
	rng := xrand.New(l.in.Seed)
	sink := 0
	per("agent.qselect_ns", 500_000, func(i int) { sink += q.Select(i%10, 1, rng) })
	per("agent.qupdate_ns", 500_000, func(i int) { q.Update(i%10, i%9, float64(i%7), (i+1)%10) })

	const voters = 24
	arena, err := articles.NewSessionArena(voters)
	if err != nil {
		return err
	}
	prop := articles.Proposal{Article: 1, Editor: 0, Quality: articles.Good, Step: 1}
	eligible := func(int) bool { return true }
	var out articles.Outcome
	var verr error
	per("articles.vote_session_ns", 50_000, func(int) {
		arena.Begin(prop, eligible)
		for v := 1; v < voters; v++ {
			if err := arena.Cast(articles.Ballot{Voter: v, Approve: v%3 != 0, Weight: 0.5 + float64(v)/voters}); err != nil {
				verr = err
			}
		}
		if err := arena.Resolve(0.5, false, &out); err != nil {
			verr = err
		}
	})
	if verr != nil {
		return verr
	}

	tm, err := network.NewTransferManager(1e12) // transfers never finish
	if err != nil {
		return err
	}
	for d := 0; d < 50; d++ {
		if _, err := tm.Start(d, 100+d%10); err != nil {
			return err
		}
	}
	up := func(int) float64 { return 1 }
	var res network.StepResult
	per("network.transfer_step_ns", 50_000, func(int) { tm.Step(up, network.EqualAllocator, &res) })

	reps := make([]float64, 8)
	for i := range reps {
		reps[i] = 0.05 + float64(i)*0.1
	}
	per("core.allocate_ns", 500_000, func(int) { sink += len(core.AllocateBandwidth(reps)) })
	if sink == 0 {
		return fmt.Errorf("kernel layers: results were optimized away")
	}
	return nil
}

// tracedReport turns the traced session and the in-process replay into the
// per-layer metrics, writes trace.json, and prints the tracing overhead
// against the last untraced run of the same workload.
func tracedReport(s *session, raw *rawRun, a *analysis, session map[string]metric, lastPath string) (map[string]metric, error) {
	l, err := newLayerReplay(s)
	if err != nil {
		return nil, err
	}
	if err := l.serveLayer(s.outDir); err != nil {
		return nil, err
	}
	if err := l.concurrentLayer(); err != nil {
		return nil, err
	}
	if err := l.storeLayers(); err != nil {
		return nil, err
	}
	if err := l.solveLayers(); err != nil {
		return nil, err
	}
	if err := l.simLayer(); err != nil {
		return nil, err
	}
	if err := l.kernelLayers(); err != nil {
		return nil, err
	}

	// Numbers only the real processes can give.
	for n, m := range a.Process {
		l.m[n] = m
	}
	l.set("collabserve.boot_ms", raw.BootMS, "ms")
	l.set("collabsim.peak_rss_mb", raw.Sweep.PeakMB, "MB")
	got := func(name string) float64 { return l.m[name].Value }
	l.set("collabserve.http_share_write", 1-got("serve.ingest_handler_p50_ms")/socketP50(raw.Writes, ""), "ratio")
	l.set("collabserve.http_share_read", 1-got("serve.read_reputation_handler_p50_us")/1e3/got("collabserve.read_p50_ms"), "ratio")
	// The bare round carries the same scheduled traffic as a measured round
	// and no marker, so what it saves is what the prober costs the server.
	l.set("benchmark.prober_cpu_share", 1-raw.BareCPUS/median(raw.RoundCPUS), "ratio")
	l.set("serve.bulk_load_s", raw.BulkLoadS, "s")
	l.set("serve.tick_wait_p50_ms", a.Metrics["visible_p50_ms"].Value-socketP50(raw.MarkerAcks, "")-got("serve.flush_p50_ms")-got("serve.refresh_p50_ms"), "ms")
	d0, d1 := raw.Stats[0], raw.Stats[1]
	l.set("serve.rejected_ratio", float64(d1.Rejected-d0.Rejected)/float64(max(1, d1.Accepted+d1.Rejected-d0.Accepted-d0.Rejected)), "ratio")
	l.set("serve.refreshes", float64(d1.Refreshes-d0.Refreshes), "count")
	l.set("serve.skipped_solves", float64(d1.SkippedSolves-d0.SkippedSolves), "count")
	l.set("reputation.concurrent.epochs", float64(d1.Epoch-d0.Epoch), "count")
	l.set("reputation.concurrent.retire_waits", float64(d1.RetireWaits-d0.RetireWaits), "count")
	l.set("experiments.points", float64(s.w.SweepPoints), "count")
	l.set("experiments.worker_idle_share", 1-raw.Sweep.CPUS/(simWorkers*raw.Sweep.WallS), "ratio")
	var startup []float64
	for i := 0; i < 5; i++ {
		cmd := exec.Command(filepath.Join(s.binDir, "collabsim"), "-list")
		var cerr error
		startup = append(startup, msOf(l.timed(l.root, "collabsim.startup", "", func() { cerr = cmd.Run() })))
		if cerr != nil {
			return nil, fmt.Errorf("collabsim -list: %w", cerr)
		}
	}
	l.set("collabsim.startup_ms", p50(startup), "ms")
	l.tr.finish(l.root, time.Now())

	if err := s.tr.write(filepath.Join(s.outDir, "trace.json")); err != nil {
		return nil, err
	}
	byName, outside := selfTimes(s.tr.spans)
	fmt.Printf("trace %d spans written to %s\n", len(s.tr.spans), filepath.Join(s.outDir, "trace.json"))
	fmt.Println("span count total_s self_s")
	for _, lt := range byName {
		fmt.Printf("span %s %d %.4f %.4f\n", lt.Name, lt.Count, lt.TotalS, lt.SelfS)
	}
	if outside > 0 {
		a.Failed++
		a.problem("trace: %d spans stick out of their parent's interval", outside)
	}
	// The solve plane's share of the server's CPU: the contrast warm_steady
	// and cold_churn were built for.
	solved := got("serve.refreshes") - got("serve.skipped_solves")
	fmt.Printf("solve_plane_cpu_share %.4f (%.0f solves x incentive.globaltrust.refresh_p50_ms / collabserve.serve_cpu_s)\n",
		solved*got("incentive.globaltrust.refresh_p50_ms")/1e3/got("collabserve.serve_cpu_s"), solved)
	fmt.Printf("bare_round_cpu_s %.4f\n", raw.BareCPUS)
	printOverhead(s.in, session, lastPath)
	return l.m, nil
}

// printOverhead reports each end-to-end metric of the traced session
// against the last untraced run of the workload in this checkout.
func printOverhead(in *instance, traced map[string]metric, lastPath string) {
	data, err := os.ReadFile(lastPath)
	var last untraced
	if err == nil {
		err = json.Unmarshal(data, &last)
	}
	if err != nil || last.Seconds != in.Seconds {
		fmt.Printf("tracing_overhead unavailable: run the workload with -seconds %d and without -trace first\n", in.Seconds)
		return
	}
	fmt.Printf("tracing_overhead metric traced(seed %d) untraced(seed %d) difference\n", in.Seed, last.Seed)
	for _, n := range sortedNames(traced) {
		if u, ok := last.Metrics[n]; ok && u.Value != 0 {
			fmt.Printf("tracing_overhead %s %.6g %.6g %+.2f%%\n", n, traced[n].Value, u.Value, 100*(traced[n].Value-u.Value)/u.Value)
		}
	}
}
