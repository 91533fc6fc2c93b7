package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"collabnet/internal/incentive"
	"collabnet/internal/reputation"
	"collabnet/internal/wire"
)

// postBatch sends one batch: admitted reports a 202, a 429
// is a legitimate refusal (admitted=false), anything else is an error. It
// never touches testing.T so writer goroutines can call it safely.
func postBatch(client *http.Client, url string, ev []Event) (admitted bool, err error) {
	body, err := json.Marshal(ingestRequest{Events: ev})
	if err != nil {
		return false, err
	}
	resp, err := client.Post(url+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		return true, nil
	case http.StatusTooManyRequests:
		return false, nil
	default:
		return false, fmt.Errorf("ingest status %d", resp.StatusCode)
	}
}

// TestE2EReplayEquivalence is the serving-path version of the store's
// serial-reference guarantee, run under -race in CI: concurrent HTTP
// writers (disjoint source ranges, multi-shard batches), concurrent readers,
// forced solves and flushes all interleave; afterwards the server's
// canonical edge dump must equal a serial LogGraph replay of exactly the
// accepted events, and its final published vector must equal a serial solve
// over that replay.
func TestE2EReplayEquivalence(t *testing.T) {
	const (
		peers   = 64
		writers = 4
		readers = 3
		batches = 60
		batchSz = 8
	)
	s, err := New(Config{Peers: peers, Shards: 4, Watermark: 50})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Start()
	defer s.Stop()

	accepted := make([][]Event, writers)
	var writeWg, readWg sync.WaitGroup
	stopReads := make(chan struct{})

	for w := 0; w < writers; w++ {
		writeWg.Add(1)
		go func(w int) {
			defer writeWg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 42))
			client := &http.Client{}
			for b := 0; b < batches; b++ {
				// Sources partition by writer id, so each source's statements
				// come from one goroutine in order; within a batch they span
				// shards, which leans on admission being all or nothing.
				ev := make([]Event, 0, batchSz)
				for len(ev) < batchSz {
					src := w + writers*rng.Intn(peers/writers)
					to := rng.Intn(peers)
					if to == src {
						continue
					}
					// Fractional weights: float additions don't associate, so
					// this also pins compaction-schedule invariance end to end.
					e := Event{Type: EventContrib, From: src, To: to, W: 0.1 + rng.Float64()*9}
					if rng.Intn(4) == 0 {
						e.Type = EventTrust
						e.Set = rng.Intn(2) == 0
					}
					ev = append(ev, e)
				}
				for {
					// Backpressure: retrying the identical batch preserves
					// per-source order (nothing of it was applied).
					admitted, err := postBatch(client, ts.URL, ev)
					if err != nil {
						t.Error(err)
						return
					}
					if admitted {
						break
					}
				}
				accepted[w] = append(accepted[w], ev...)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readWg.Add(1)
		go func(r int) {
			defer readWg.Done()
			client := &http.Client{}
			paths := []string{"/v1/reputation/5", "/v1/top?k=8", "/v1/trust?from=1&to=2",
				"/v1/alloc?source=0&d=1,2,3", "/v1/stats"}
			for i := 0; ; i++ {
				select {
				case <-stopReads:
					return
				default:
				}
				resp, err := client.Get(ts.URL + paths[(r+i)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if i%25 == 0 {
					// Forced solves, and flushes racing admission.
					path := "/v1/refresh"
					if i%50 == 0 {
						path = "/v1/flush"
					}
					resp, err := client.Post(ts.URL+path, "application/json", nil)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
			}
		}(r)
	}
	// Writers finish first; then the readers are told to stop.
	writeWg.Wait()
	close(stopReads)
	readWg.Wait()

	// Quiesce and dump.
	resp, err := http.Post(ts.URL+"/v1/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/v1/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/edges")
	if err != nil {
		t.Fatal(err)
	}
	dump := decodeBody[edgesResponse](t, resp)

	// Serial reference: replay per-source streams in any interleaving that
	// preserves each source's order — concatenating the per-writer logs
	// does, because sources never span writers.
	ref, err := reputation.NewLogGraph(peers)
	if err != nil {
		t.Fatal(err)
	}
	for _, evs := range accepted {
		for _, e := range evs {
			if e.Type == EventTrust && e.Set {
				err = ref.SetTrust(e.From, e.To, e.W)
			} else {
				err = ref.AddTrust(e.From, e.To, e.W)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	want := ref.AppendEdges(nil)
	if len(want) != len(dump.Edges) {
		t.Fatalf("edge count: served %d, serial %d", len(dump.Edges), len(want))
	}
	for i, e := range dump.Edges {
		if e.From != want[i].From || e.To != want[i].To || e.W != want[i].W {
			t.Fatalf("edge %d: served (%d,%d,%v), serial (%d,%d,%v)",
				i, e.From, e.To, e.W, want[i].From, want[i].To, want[i].W)
		}
	}

	// The served vector came out of a chain of warm-started solves; the
	// serial reference solves once, cold. Both stop at the same Epsilon,
	// and the iteration map contracts in L1 with factor 1−Damping, so any
	// two stopped results differ by at most 2·Epsilon/Damping in L1 — the
	// documented warm-start bound. (The raw edge weights above still match
	// bit-for-bit; only the solve is path-dependent within the band.)
	tcfg := incentive.DefaultGlobalTrustConfig().Trust
	solver, err := reputation.NewTrustSolver(ref, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Solve(); err != nil {
		t.Fatal(err)
	}
	got := s.Store().TrustSnapshot()
	wantVec := solver.TrustSnapshot().Vector
	bound := 2 * tcfg.Epsilon / tcfg.Damping
	l1 := 0.0
	for i := range wantVec {
		l1 += math.Abs(got.Vector[i] - wantVec[i])
	}
	if l1 > bound {
		t.Fatalf("trust L1 distance %v exceeds warm-start bound %v (trust[0]: served %v, serial %v)",
			l1, bound, got.Vector[0], wantVec[0])
	}
}

// TestConcurrentRequestsReplaySerially pins per-request atomicity, which
// per-source order alone does not give: in every round four goroutines
// each send one request that sets the same eight edges (sources 0–7, one
// per ingest shard, all into peer 9) to a weight unique to the request,
// each listing the sources in a different rotation. A serial replay of the
// acknowledged requests leaves all eight edges at one request's weight,
// so after a flush /v1/edges must show exactly that.
func TestConcurrentRequestsReplaySerially(t *testing.T) {
	const (
		writers = 4
		rounds  = 100
	)
	s, err := New(Config{Peers: 10, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	h := s.Handler()
	bodies := make([][]string, rounds)
	for r := range bodies {
		bodies[r] = make([]string, writers)
		for w := range bodies[r] {
			ev := make([]Event, 8)
			for k := range ev {
				ev[k] = Event{Type: EventTrust, From: (w + k) % 8, To: 9, W: float64(r*writers + w + 1), Set: true}
			}
			body, err := json.Marshal(ingestRequest{Events: ev})
			if err != nil {
				t.Fatal(err)
			}
			bodies[r][w] = string(body)
		}
	}
	for r := 0; r < rounds; r++ {
		accepted := map[float64]bool{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				if rec := call(h, "POST", "/v1/events", bodies[r][w]); rec.Code == http.StatusAccepted {
					mu.Lock()
					accepted[float64(r*writers+w+1)] = true
					mu.Unlock()
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if rec := call(h, "POST", "/v1/flush", ""); rec.Code != http.StatusOK {
			t.Fatalf("round %d: flush status %d", r, rec.Code)
		}
		var dump edgesResponse
		if err := json.Unmarshal(call(h, "GET", "/v1/edges", "").Body.Bytes(), &dump); err != nil {
			t.Fatal(err)
		}
		if len(dump.Edges) != 8 {
			t.Fatalf("round %d: %d edges, want 8", r, len(dump.Edges))
		}
		for _, e := range dump.Edges {
			if e.W != dump.Edges[0].W || !accepted[e.W] {
				t.Fatalf("round %d: edges %+v are not one accepted request's weight (accepted %v)", r, dump.Edges, accepted)
			}
		}
	}
}

// TestWarmRestartBitIdentity kills a loaded server and restarts it from
// its snapshot: the restored edge dump must equal the serial replay, the
// restored vector must equal the dead process's final publish bit-for-bit,
// and re-snapshotting the restored state must reproduce the file
// byte-for-byte.
func TestWarmRestartBitIdentity(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.snap")
	cfg := Config{Peers: 32, SnapshotPath: snap}

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	a.Start()
	client := &http.Client{}
	rng := rand.New(rand.NewSource(7))
	var log []Event
	for b := 0; b < 40; b++ {
		src := rng.Intn(32)
		ev := make([]Event, 0, 4)
		for len(ev) < 4 {
			to := rng.Intn(32)
			if to == src {
				continue
			}
			ev = append(ev, Event{Type: EventContrib, From: src, To: to, W: 0.1 + rng.Float64()*5})
		}
		if admitted, err := postBatch(client, tsA.URL, ev); err != nil {
			t.Fatal(err)
		} else if !admitted {
			t.Fatal("batch refused under the default pending bound")
		}
		log = append(log, ev...)
	}
	resp, err := http.Post(tsA.URL+"/v1/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// SIGTERM path: stop admission, fold and solve, persist.
	tsA.Close()
	a.Stop()
	if err := a.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	fileA, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	finalVec := append([]float64(nil), a.Store().TrustSnapshot().Vector...)

	// Warm restart.
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	resp, err = http.Get(tsB.URL + "/v1/edges")
	if err != nil {
		t.Fatal(err)
	}
	dump := decodeBody[edgesResponse](t, resp)
	ref, err := reputation.NewLogGraph(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range log {
		if err := ref.AddTrust(e.From, e.To, e.W); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.AppendEdges(nil)
	if len(want) != len(dump.Edges) {
		t.Fatalf("restored edge count %d, serial replay %d", len(dump.Edges), len(want))
	}
	for i, e := range dump.Edges {
		if e.From != want[i].From || e.To != want[i].To || e.W != want[i].W {
			t.Fatalf("restored edge %d mismatch: (%d,%d,%v) vs (%d,%d,%v)",
				i, e.From, e.To, e.W, want[i].From, want[i].To, want[i].W)
		}
	}

	restored := b.Store().TrustSnapshot()
	if restored == nil {
		t.Fatal("warm restart must republish the trust snapshot")
	}
	for i := range finalVec {
		if restored.Vector[i] != finalVec[i] {
			t.Fatalf("trust[%d]: restored %v, pre-kill %v", i, restored.Vector[i], finalVec[i])
		}
	}

	// A restored, untouched server snapshots back to the identical bytes.
	if err := b.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	fileB, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileA, fileB) {
		t.Fatalf("snapshot not bit-identical across restart: %d vs %d bytes", len(fileA), len(fileB))
	}

	// An idle restored server must not consider itself stale: the refresh
	// loop would otherwise burn a solve on its first wake after every
	// restart.
	if b.gt.Stale() {
		t.Fatal("restored server is stale with no new writes")
	}
}

// TestSnapshotCodecErrors pins the failure modes of the restart path.
func TestSnapshotCodecErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Peers: 8, SnapshotPath: bad}); err == nil {
		t.Fatal("corrupt snapshot must fail construction")
	}

	// Valid snapshot, wrong peer count.
	snap := filepath.Join(dir, "good.snap")
	a, err := New(Config{Peers: 8, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store().AddTrust(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	a.Store().Flush()
	if err := a.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Peers: 9, SnapshotPath: snap}); err == nil {
		t.Fatal("peer-count mismatch must fail construction")
	}

	// Truncated file.
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.snap")
	if err := os.WriteFile(trunc, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Peers: 8, SnapshotPath: trunc}); err == nil {
		t.Fatal("truncated snapshot must fail construction")
	}

	// Missing file is a cold start, not an error.
	if _, err := New(Config{Peers: 8, SnapshotPath: filepath.Join(dir, "absent.snap")}); err != nil {
		t.Fatalf("absent snapshot should cold-start: %v", err)
	}
}

// TestSnapshotVersion1Refused pins that a snapshot in the version-1
// layout (a header of peer and edge counts, then bare words) fails
// construction with an error that names its version.
func TestSnapshotVersion1Refused(t *testing.T) {
	b := []byte(snapshotMagic)
	// version 1, 2 peers, no edges, trust, score, dirty, sinceRefresh
	for _, w := range []uint64{1, 2, 0, math.Float64bits(0.5), math.Float64bits(0.5), 0, 0, 0, 0} {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	path := filepath.Join(t.TempDir(), "v1.snap")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Peers: 2, SnapshotPath: path})
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("a version-1 snapshot must be refused naming its version, got %v", err)
	}
}

// TestSnapshotIntoMissingDirectory pins that a snapshot path whose directory
// does not exist yet still saves the session at shutdown, and that a warm
// restart from it serves the same edges.
func TestSnapshotIntoMissingDirectory(t *testing.T) {
	cfg := Config{Peers: 8, SnapshotPath: filepath.Join(t.TempDir(), "new", "dir", "state.snap")}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	if rec := call(a.Handler(), "POST", "/v1/events",
		`{"events":[{"type":"contrib","from":0,"to":1,"w":2},{"type":"trust","from":3,"to":2,"w":0.5}]}`); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	a.Stop()
	if err := a.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := call(a.Handler(), "GET", "/v1/edges", "").Body.String(), call(b.Handler(), "GET", "/v1/edges", "").Body.String()
	if want != got || !strings.Contains(got, `"w":2`) {
		t.Fatalf("warm restart serves %s, the saved session served %s", got, want)
	}
}

// headerOnlySnapshot is a 31-byte snapshot file: magic, version, the
// EigenTrust kind word, an edge list claiming 2³² edges, and nothing after.
func headerOnlySnapshot() []byte {
	b := []byte(snapshotMagic)
	for _, w := range []uint64{snapshotVersion, uint64(incentive.KindEigenTrust), 1 << 32} {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// readSnapshotAllocPerByte is the constant c of FuzzReadSnapshot: reading a
// file may allocate at most c·len(file) + 1 MiB. A file that decodes costs
// its own size (24 bytes an edge and 16 a peer, on disk and in memory) plus
// the 64 KiB read block: measured, len(file) + 65 to 75 KiB from 79 bytes to
// 24 MB, so c = 1 would hold and 2 leaves room for size-class rounding. A
// list whose length word the rest of the file cannot hold is refused before
// it is allocated, so no file costs more than one that decodes.
const readSnapshotAllocPerByte = 2

// FuzzReadSnapshot writes arbitrary bytes to a file and decodes it as a
// snapshot: the reader returns an error or a state, never panics, and
// allocates at most readSnapshotAllocPerByte bytes per file byte plus 1 MiB.
func FuzzReadSnapshot(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "fuzz.snap")
	if err := wire.WriteFile(path, snapshotFile(&incentive.State{
		Kind: incentive.KindEigenTrust,
		GlobalTrust: incentive.GlobalTrustState{
			Edges:        []reputation.Edge{{From: 0, To: 1, W: 2.5}, {From: 2, To: 0, W: 1}},
			Trust:        []float64{0.5, 0.3, 0.2},
			Score:        []float64{0.6, 0.47, 0.375},
			Dirty:        true,
			SinceRefresh: 3,
		},
	})); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(headerOnlySnapshot())
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var st incentive.State
		_ = wire.ReadFile(path, snapshotFile(&st))
		runtime.ReadMemStats(&after)
		grew := after.TotalAlloc - before.TotalAlloc
		if limit := readSnapshotAllocPerByte*uint64(len(data)) + 1<<20; grew > limit {
			t.Fatalf("reading a %d-byte file allocated %d, limit %d", len(data), grew, limit)
		}
	})
}

// TestSnapshotRefusedNotAllocated feeds the restart path two files whose
// edge-list length word promises more than the file holds — the 31-byte
// header-only file, and a 2 MB snapshot cut one byte short of the edges its
// length word claims — and requires construction to fail having allocated
// next to nothing: a length is checked against the bytes that remain before
// anything is sized from it.
func TestSnapshotRefusedNotAllocated(t *testing.T) {
	const peers, degree = 512, 180
	dir := t.TempDir()
	snap := filepath.Join(dir, "big.snap")
	a, err := New(Config{Peers: peers, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < peers; from++ {
		for d := 1; d <= degree; d++ {
			if err := a.Store().AddTrust(from, (from+d)%peers, float64(d)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2<<20 {
		t.Fatalf("snapshot of %d bytes is too small to show up in the heap", len(data))
	}
	// Magic, version, kind and edge-list length words, then 24 bytes an edge.
	edgesEnd := len(snapshotMagic) + 3*8 + 24*peers*degree
	for name, file := range map[string][]byte{"31 bytes": headerOnlySnapshot(), "one byte short": data[:edgesEnd-1]} {
		path := filepath.Join(dir, "bad.snap")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := New(Config{Peers: peers, SnapshotPath: path})
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a snapshot shorter than its edge list claims must fail construction", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: refused after allocating %d bytes", name, grew)
		}
	}
}

// TestStopLeavesMatchingVector pins that a snapshot taken after Stop holds
// the vector of the edges beside it. The first batch wakes the solve plane,
// and the SolveLog hook holds that solve open for stall after it folded the
// batch; the other 39 batches land meanwhile. The pacing rule then keeps
// the next solve at least 3·stall away, the ceiling is an hour and nothing
// forces a solve, so only Stop's own last refresh can fold them into the
// vector the restarted server serves: it must carry the restored epoch and
// sit within the warm-start bound of a cold solve over the served edges.
func TestStopLeavesMatchingVector(t *testing.T) {
	const (
		peers = 32
		stall = 100 * time.Millisecond
	)
	var first sync.Once
	solving := make(chan struct{})
	cfg := Config{Peers: peers, Refresh: time.Hour, SnapshotPath: filepath.Join(t.TempDir(), "state.snap"),
		SolveLog: func(incentive.SolveInfo) {
			first.Do(func() {
				close(solving)
				time.Sleep(stall)
			})
		}}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	rng := rand.New(rand.NewSource(11))
	for b := 0; b < 40; b++ {
		ev := make([]Event, 4)
		for i := range ev {
			from := rng.Intn(peers / 4) // a skewed graph: far from the uniform founding vector
			ev[i] = Event{Type: EventContrib, From: from, To: (from + 1 + rng.Intn(peers-1)) % peers, W: 0.1 + rng.Float64()*5}
		}
		body, err := json.Marshal(ingestRequest{Events: ev})
		if err != nil {
			t.Fatal(err)
		}
		if rec := call(a.Handler(), "POST", "/v1/events", string(body)); rec.Code != http.StatusAccepted {
			t.Fatalf("ingest status %d", rec.Code)
		}
		if b == 0 {
			select {
			case <-solving:
			case <-time.After(2 * time.Second):
				t.Fatal("the first admission never woke the solve plane")
			}
		}
	}
	a.Stop()
	if err := a.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string, v any) {
		t.Helper()
		rec := call(b.Handler(), "GET", path, "")
		if err := json.Unmarshal(rec.Body.Bytes(), v); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d, %v", path, rec.Code, err)
		}
	}
	var st statsResponse
	read("/v1/stats", &st)
	if st.TrustEpoch != st.Epoch {
		t.Fatalf("restored vector is stamped epoch %d, the graph is at %d", st.TrustEpoch, st.Epoch)
	}
	var dump edgesResponse
	read("/v1/edges", &dump)
	ref, err := reputation.NewLogGraph(peers)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range dump.Edges {
		if err := ref.SetTrust(e.From, e.To, e.W); err != nil {
			t.Fatal(err)
		}
	}
	tcfg := reputation.DefaultEigenTrust()
	cold, err := reputation.EigenTrust(ref, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	var top topResponse
	read(fmt.Sprintf("/v1/top?k=%d", peers), &top)
	if len(top.Top) != peers {
		t.Fatalf("served %d components, want %d", len(top.Top), peers)
	}
	l1 := 0.0
	for _, pt := range top.Top {
		l1 += math.Abs(pt.Trust - cold[pt.Peer])
	}
	if bound := 2 * tcfg.Epsilon / tcfg.Damping; l1 > bound {
		t.Fatalf("snapshot vector is %.3g from a cold solve of the snapshot's edges in L1, bound %.3g", l1, bound)
	}
}
