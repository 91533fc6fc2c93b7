package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"collabnet/internal/incentive"
	"collabnet/internal/reputation"
)

// newTestServer builds a small started server plus its HTTP front end and
// registers cleanup in dependency order (listener, then planes).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Peers == 0 {
		cfg.Peers = 16
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() {
		ts.Close()
		s.Stop()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// call serves one request straight through the handler, without a socket.
func call(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// getStats reads /v1/stats.
func getStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	return decodeBody[statsResponse](t, resp)
}

// waitStats polls /v1/stats until done holds, for at most two seconds.
func waitStats(t *testing.T, url string, done func(statsResponse) bool) statsResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := getStats(t, url)
		if done(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// solvedAll reports that the solve plane has folded every acknowledged
// event and published the vector of the current epoch.
func solvedAll(st statsResponse) bool {
	return st.Pending == 0 && st.TrustEpoch == st.Epoch && st.Refreshes > 0
}

// TestIngestAndQuery drives the full write→flush→solve→read path over HTTP.
func TestIngestAndQuery(t *testing.T) {
	// Before any data-driven solve the founding publish is live: an
	// unstarted server, which New promises serves reads, answers the
	// uniform vector rather than blocking or erroring.
	fresh, err := New(Config{Peers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var founding reputationResponse
	if err := json.Unmarshal(call(fresh.Handler(), "GET", "/v1/reputation/3", "").Body.Bytes(), &founding); err != nil {
		t.Fatal(err)
	}
	if !founding.Solved || founding.Trust != 1.0/8 {
		t.Fatalf("an unstarted server should serve the uniform vector: %+v", founding)
	}

	s, ts := newTestServer(t, Config{Peers: 8})
	resp := postJSON(t, ts.URL+"/v1/events", `{"events":[
		{"type":"trust","from":0,"to":3,"w":4},
		{"type":"contrib","from":1,"to":3,"w":2},
		{"type":"trust","from":2,"to":1,"w":1,"set":true}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if r := decodeBody[ingestResponse](t, resp); r.Accepted != 3 || r.Rejected != 0 {
		t.Fatalf("ingest response %+v", r)
	}

	resp = postJSON(t, ts.URL+"/v1/flush", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := s.Store().Trust(0, 3); got != 4 {
		t.Fatalf("trust(0,3) = %v after flush, want 4", got)
	}

	resp = postJSON(t, ts.URL+"/v1/refresh", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/reputation/3")
	if err != nil {
		t.Fatal(err)
	}
	rep := decodeBody[reputationResponse](t, resp)
	if !rep.Solved || rep.Trust <= 0 {
		t.Fatalf("peer 3 not trusted after solve: %+v", rep)
	}

	resp, err = http.Get(ts.URL + "/v1/top?k=3")
	if err != nil {
		t.Fatal(err)
	}
	top := decodeBody[topResponse](t, resp)
	if len(top.Top) != 3 || top.Top[0].Peer != 3 {
		t.Fatalf("top-3 should lead with peer 3: %+v", top)
	}

	resp, err = http.Get(ts.URL + "/v1/alloc?source=0&d=3,5")
	if err != nil {
		t.Fatal(err)
	}
	alloc := decodeBody[allocResponse](t, resp)
	if len(alloc.Shares) != 2 || alloc.Shares[0] <= alloc.Shares[1] {
		t.Fatalf("trusted downloader should out-earn untrusted: %+v", alloc)
	}
	sum := alloc.Shares[0] + alloc.Shares[1]
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("alloc shares must normalize, got sum %v", sum)
	}

	resp, err = http.Get(ts.URL + "/v1/trust?from=0&to=3")
	if err != nil {
		t.Fatal(err)
	}
	if edge := decodeBody[trustEdgeResponse](t, resp); edge.W != 4 {
		t.Fatalf("point read w=%v, want 4", edge.W)
	}

	resp, err = http.Get(ts.URL + "/v1/peers/0/edges")
	if err != nil {
		t.Fatal(err)
	}
	if row := decodeBody[peerEdgesResponse](t, resp); len(row.Edges) != 1 || row.Edges[0].To != 3 {
		t.Fatalf("peer 0 row %+v", row)
	}
}

// TestIngestRejectsMalformed pins every 4xx admission path.
func TestIngestRejectsMalformed(t *testing.T) {
	_, ts := newTestServer(t, Config{Peers: 8, MaxBatch: 4})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"truncated json", `{"events":[{"type":"trust"`, http.StatusBadRequest},
		{"wrong shape", `[1,2,3]`, http.StatusBadRequest},
		{"empty batch", `{"events":[]}`, http.StatusBadRequest},
		{"unknown type", `{"events":[{"type":"gossip","from":0,"to":1,"w":1}]}`, http.StatusBadRequest},
		{"peer out of range", `{"events":[{"type":"trust","from":0,"to":99,"w":1}]}`, http.StatusBadRequest},
		{"negative peer", `{"events":[{"type":"trust","from":-1,"to":1,"w":1}]}`, http.StatusBadRequest},
		{"self edge", `{"events":[{"type":"trust","from":2,"to":2,"w":1}]}`, http.StatusBadRequest},
		{"zero contribution", `{"events":[{"type":"contrib","from":0,"to":1,"w":0}]}`, http.StatusBadRequest},
		{"negative set", `{"events":[{"type":"trust","from":0,"to":1,"w":-1,"set":true}]}`, http.StatusBadRequest},
		{"over batch cap", `{"events":[` + strings.Repeat(`{"type":"trust","from":0,"to":1,"w":1},`, 4) +
			`{"type":"trust","from":0,"to":1,"w":1}]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/events", tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	// One bad event poisons its whole request: nothing may be applied.
	resp := postJSON(t, ts.URL+"/v1/events",
		`{"events":[{"type":"trust","from":0,"to":1,"w":1},{"type":"trust","from":0,"to":0,"w":1}]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed batch status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/flush", "")
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/v1/edges")
	if err != nil {
		t.Fatal(err)
	}
	if dump := decodeBody[edgesResponse](t, resp); len(dump.Edges) != 0 {
		t.Fatalf("invalid batch leaked edges: %+v", dump.Edges)
	}
}

// TestIngestBoundsWeight tries the float overflow over HTTP: two 1e308
// statements on one edge would accumulate to +Inf and normalize to NaN.
// Each is refused whole-batch (400, the valid event beside it not applied),
// weights at the ceiling are still admitted, and the vector served after a
// solve over them is finite and still encodes.
func TestIngestBoundsWeight(t *testing.T) {
	_, ts := newTestServer(t, Config{Peers: 4})
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/events", `{"events":[
			{"type":"trust","from":2,"to":3,"w":1},
			{"type":"trust","from":0,"to":1,"w":1e308}]}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("overflowing weight #%d: status %d, want 400", i, resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/events", fmt.Sprintf(`{"events":[
		{"type":"trust","from":0,"to":1,"w":%g},
		{"type":"contrib","from":0,"to":1,"w":%g},
		{"type":"trust","from":0,"to":2,"w":1}]}`, float64(maxEventWeight), float64(maxEventWeight)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("weights at the ceiling: status %d, want 202", resp.StatusCode)
	}
	for _, path := range []string{"/v1/flush", "/v1/refresh"} {
		resp = postJSON(t, ts.URL+path, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/edges")
	if err != nil {
		t.Fatal(err)
	}
	dump := decodeBody[edgesResponse](t, resp)
	if len(dump.Edges) != 2 || dump.Edges[0].W != 2*maxEventWeight {
		t.Fatalf("only the admitted batch may be applied: %+v", dump.Edges)
	}
	resp, err = http.Get(ts.URL + "/v1/top?k=4")
	if err != nil {
		t.Fatal(err)
	}
	top := decodeBody[topResponse](t, resp) // a NaN would not have encoded
	sum := 0.0
	for _, pt := range top.Top {
		if math.IsNaN(pt.Trust) || math.IsInf(pt.Trust, 0) || pt.Trust < 0 {
			t.Fatalf("served vector not finite: %+v", top.Top)
		}
		sum += pt.Trust
	}
	if len(top.Top) != 4 || math.Abs(sum-1) > 1e-9 {
		t.Fatalf("served vector is not a distribution over 4 peers: %+v", top.Top)
	}
}

// TestBackpressure429 fills the pending bound on an unstarted server (no
// solve plane, so nothing folds the ingest shards) and requires a
// whole-request 429, then starts the server and checks that only the
// admitted requests were ever applied.
func TestBackpressure429(t *testing.T) {
	s, err := New(Config{Peers: 8, Shards: 1, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < pendingBatches; i++ {
		if rec := call(s.Handler(), "POST", "/v1/events", `{"events":[{"type":"trust","from":0,"to":1,"w":1}]}`); rec.Code != http.StatusAccepted {
			t.Fatalf("request %d: status %d, want 202", i, rec.Code)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/events", `{"events":[{"type":"trust","from":1,"to":2,"w":7}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request over the pending bound: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if r := decodeBody[ingestResponse](t, resp); r.Rejected != 1 || r.Accepted != 0 {
		t.Fatalf("refusal response %+v", r)
	}

	s.Start()
	defer s.Stop()
	resp = postJSON(t, ts.URL+"/v1/flush", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/edges")
	if err != nil {
		t.Fatal(err)
	}
	dump := decodeBody[edgesResponse](t, resp)
	if len(dump.Edges) != 1 || dump.Edges[0] != (edgeJSON{From: 0, To: 1, W: pendingBatches}) {
		t.Fatalf("store must hold exactly the admitted requests: %+v", dump.Edges)
	}
	if s.rejected.Load() != 1 || s.accepted.Load() != pendingBatches {
		t.Fatalf("counters accepted=%d rejected=%d", s.accepted.Load(), s.rejected.Load())
	}
}

// TestAdmissionIsAtomic pins "nothing is applied" for a request whose
// sources span shards: one statement short of the pending bound, a
// two-event batch over two shards is refused whole, and once the server
// runs no event of it ever reaches the store.
func TestAdmissionIsAtomic(t *testing.T) {
	s, err := New(Config{Peers: 8, Shards: 2, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const pending = 2*pendingBatches - 1
	for i := 0; i < pending; i += 2 {
		body := `{"events":[{"type":"trust","from":0,"to":1,"w":1},{"type":"trust","from":0,"to":1,"w":1}]}`
		if i+1 == pending {
			body = `{"events":[{"type":"trust","from":0,"to":1,"w":1}]}`
		}
		if rec := call(h, "POST", "/v1/events", body); rec.Code != http.StatusAccepted {
			t.Fatalf("filling request at %d pending: status %d, want 202", i, rec.Code)
		}
	}
	if got := s.Store().Stats().Pending; got != pending {
		t.Fatalf("pending %d, want %d", got, pending)
	}
	rec := call(h, "POST", "/v1/events",
		`{"events":[{"type":"trust","from":1,"to":2,"w":7},{"type":"trust","from":2,"to":3,"w":9}]}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch over two shards past the bound: status %d, want 429", rec.Code)
	}
	var resp ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Accepted != 0 || resp.Rejected != 2 {
		t.Fatalf("refusal must cover the whole request: %s (%v)", rec.Body, err)
	}

	s.Start()
	defer s.Stop()
	if rec = call(h, "POST", "/v1/flush", ""); rec.Code != http.StatusOK {
		t.Fatalf("flush status %d", rec.Code)
	}
	var dump edgesResponse
	if err := json.Unmarshal(call(h, "GET", "/v1/edges", "").Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Edges) != 1 || dump.Edges[0] != (edgeJSON{From: 0, To: 1, W: pending}) {
		t.Fatalf("a refused request leaked into the store: %+v", dump.Edges)
	}
	if s.accepted.Load() != pending || s.rejected.Load() != 2 {
		t.Fatalf("counters accepted=%d rejected=%d", s.accepted.Load(), s.rejected.Load())
	}
}

// TestReadsNeverBlockOnQueues pins the plane separation: with a goroutine
// parked inside the store's maintenance lock (where every publish and
// every solve runs), every read endpoint still answers, and so does ingest.
func TestReadsNeverBlockOnQueues(t *testing.T) {
	s, ts := newTestServer(t, Config{Peers: 8, Shards: 1})
	resp := postJSON(t, ts.URL+"/v1/events", `{"events":[{"type":"trust","from":0,"to":1,"w":5}]}`)
	resp.Body.Close()
	parked, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Store().Exclusive(func(*reputation.LogGraph) {
			close(parked)
			<-release
		})
	}()
	<-parked
	client := &http.Client{Timeout: 10 * time.Second}
	for _, path := range []string{
		"/v1/reputation/1", "/v1/top?k=2", "/v1/alloc?source=0&d=1,2",
		"/v1/trust?from=0&to=1", "/v1/peers/0/edges", "/v1/stats", "/healthz",
	} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d with the maintenance lock held", path, resp.StatusCode)
		}
	}
	resp, err := client.Post(ts.URL+"/v1/events", "application/json",
		strings.NewReader(`{"events":[{"type":"trust","from":1,"to":2,"w":1}]}`))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d with the maintenance lock held", resp.StatusCode)
	}
	close(release)
	<-done
}

// TestStatsSurface checks the counters a dashboard would scrape.
func TestStatsSurface(t *testing.T) {
	_, ts := newTestServer(t, Config{Peers: 8})
	resp := postJSON(t, ts.URL+"/v1/events", `{"events":[{"type":"trust","from":0,"to":1,"w":5}]}`)
	resp.Body.Close()
	// The admission wakes the solve plane, which solves on its own.
	st := waitStats(t, ts.URL, solvedAll)
	if !st.Started || st.Accepted != 1 || st.Refreshes != 1 || st.TrustEpoch == 0 {
		t.Fatalf("stats %+v", st)
	}
	// Solver observability: that solve did real work, so the record must
	// show iterations, convergence, and the solve wall time.
	if st.SolveSkipped || st.SolveIterations == 0 || !st.SolveConverged || st.SolveSeconds <= 0 {
		t.Fatalf("solver stats after a dirty refresh: %+v", st)
	}
	if st.WarmSolves+st.ColdSolves == 0 {
		t.Fatalf("solve counters after a refresh: %+v", st)
	}

	// A forced refresh with nothing new is a skip: it counts, and the other
	// solve_* fields still describe the last real solve.
	resp = postJSON(t, ts.URL+"/v1/refresh", "")
	resp.Body.Close()
	skip := getStats(t, ts.URL)
	if !skip.SolveSkipped || skip.SkippedSolves != st.SkippedSolves+1 || skip.Refreshes != st.Refreshes+1 {
		t.Fatalf("counters after a zero-delta refresh: %+v, before %+v", skip, st)
	}
	if skip.SolveIterations != st.SolveIterations || skip.SolveConverged != st.SolveConverged ||
		skip.SolveWarm != st.SolveWarm || skip.SolvePatternStable != st.SolvePatternStable ||
		skip.SolveDirtyRows != st.SolveDirtyRows || skip.SolveSeconds != st.SolveSeconds {
		t.Fatalf("a skip overwrote the last real solve: %+v, before %+v", skip, st)
	}
}

// TestSolveLogHook pins that Config.SolveLog fires for refreshes that
// solved and stays silent for skips.
func TestSolveLogHook(t *testing.T) {
	var mu sync.Mutex
	var infos []incentive.SolveInfo
	cfg := Config{Peers: 8, SolveLog: func(info incentive.SolveInfo) {
		mu.Lock()
		infos = append(infos, info)
		mu.Unlock()
	}}
	_, ts := newTestServer(t, cfg)
	resp := postJSON(t, ts.URL+"/v1/events", `{"events":[{"type":"trust","from":0,"to":1,"w":5}]}`)
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/flush", "")
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/refresh", "")
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/refresh", "") // zero-delta: skipped, not logged
	resp.Body.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(infos) == 0 {
		t.Fatal("SolveLog never fired")
	}
	for _, info := range infos {
		if info.Skipped {
			t.Fatalf("SolveLog fired for a skipped solve: %+v", info)
		}
		if info.Stats.Iterations == 0 || !info.Stats.Converged {
			t.Fatalf("SolveLog info %+v", info)
		}
	}
}

// TestMethodAndRouteErrors pins the routing contract.
func TestMethodAndRouteErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Peers: 8})
	resp, err := http.Get(ts.URL + "/v1/events") // wrong method
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/events: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/reputation/notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad peer id: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/top?k=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/alloc?source=0&d=")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty downloaders: status %d, want 400", resp.StatusCode)
	}
}

// TestConfigDefaults pins withDefaults.
func TestConfigDefaults(t *testing.T) {
	c := Config{Peers: 4}.withDefaults()
	if c.Shards != DefaultShards || c.MaxBatch != DefaultMaxBatch ||
		c.Refresh != DefaultRefresh || c.Watermark != defaultWatermark {
		t.Fatalf("defaults not applied: %+v", c)
	}
	c = Config{Peers: 4, Shards: 2, MaxBatch: 11, Refresh: 42, Watermark: 9}.withDefaults()
	if c.Shards != 2 || c.MaxBatch != 11 || c.Refresh != 42 || c.Watermark != 9 {
		t.Fatalf("explicit config clobbered: %+v", c)
	}
}

// TestEventValidate covers the admission predicate directly.
func TestEventValidate(t *testing.T) {
	ok := []Event{
		{Type: EventTrust, From: 0, To: 1, W: 1},
		{Type: EventTrust, From: 0, To: 1, W: 0, Set: true}, // deletion
		{Type: EventContrib, From: 1, To: 0, W: 0.5},
		{Type: EventContrib, From: 1, To: 0, W: maxEventWeight},
	}
	for _, e := range ok {
		if err := e.validate(4); err != nil {
			t.Errorf("%+v should validate: %v", e, err)
		}
	}
	bad := []Event{
		{Type: "x", From: 0, To: 1, W: 1},
		{Type: EventTrust, From: 0, To: 4, W: 1},
		{Type: EventTrust, From: 1, To: 1, W: 1},
		{Type: EventTrust, From: 0, To: 1, W: 0},
		{Type: EventTrust, From: 0, To: 1, W: -1, Set: true},
		{Type: EventContrib, From: 0, To: 1, W: 0},
		{Type: EventTrust, From: 0, To: 1, W: 2 * maxEventWeight},
		{Type: EventTrust, From: 0, To: 1, W: math.Inf(1), Set: true},
		{Type: EventContrib, From: 0, To: 1, W: math.NaN()},
	}
	for _, e := range bad {
		if err := e.validate(4); err == nil {
			t.Errorf("%+v should be rejected", e)
		}
	}
}

// TestWriterBarrierOrdering hammers one edge with requests through the
// handler and checks they apply in acknowledgement order via the final
// value: 50 adds, then a Set that must win. An event admitted after Stop
// is accepted too and lands at the next flush.
func TestWriterBarrierOrdering(t *testing.T) {
	s, err := New(Config{Peers: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	h := s.Handler()
	ingest := func(e Event) {
		t.Helper()
		body, err := json.Marshal(ingestRequest{Events: []Event{e}})
		if err != nil {
			t.Fatal(err)
		}
		if rec := call(h, "POST", "/v1/events", string(body)); rec.Code != http.StatusAccepted {
			t.Fatalf("ingest %+v: status %d", e, rec.Code)
		}
	}
	for i := 1; i <= 50; i++ {
		ingest(Event{Type: EventTrust, From: 0, To: 1, W: float64(i)})
	}
	ingest(Event{Type: EventTrust, From: 0, To: 1, W: 7, Set: true})
	if rec := call(h, "POST", "/v1/flush", ""); rec.Code != http.StatusOK {
		t.Fatalf("flush status %d", rec.Code)
	}
	if got := s.cg.Trust(0, 1); got != 7 {
		t.Fatalf("trust(0,1) = %v, want the last Set to win (7)", got)
	}
	if got := s.accepted.Load(); got != 51 {
		t.Fatalf("accepted %d, want 51", got)
	}

	s.Stop()
	ingest(Event{Type: EventTrust, From: 0, To: 2, W: 3}) // no panic, no refusal
	if rec := call(h, "POST", "/v1/flush", ""); rec.Code != http.StatusOK {
		t.Fatalf("flush after Stop: status %d", rec.Code)
	}
	if got := s.cg.Trust(0, 2); got != 3 {
		t.Fatalf("trust(0,2) = %v after an ingest past Stop, want 3", got)
	}
}

func ExampleEvent() {
	e := Event{Type: EventContrib, From: 2, To: 9, W: 1.5}
	b, _ := json.Marshal(e)
	fmt.Println(string(b))
	// Output: {"type":"contrib","from":2,"to":9,"w":1.5}
}
