package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"collabnet/internal/incentive"
	"collabnet/internal/reputation"
)

// Defaults applied by Config.withDefaults.
const (
	DefaultShards   = 8
	DefaultMaxBatch = 4096
	// DefaultRefresh is the default ceiling on staleness (Config.Refresh),
	// not a period: refreshes run only when something was admitted.
	DefaultRefresh = 500 * time.Millisecond

	defaultWatermark = 4096
	maxBodyBytes     = 8 << 20

	// pendingBatches bounds the statements waiting in the store's ingest
	// shards at pendingBatches·MaxBatch: room for that many full requests.
	// A request that would cross it is refused whole with 429.
	pendingBatches = 256

	// refreshGapFactor paces the solve plane: the next refresh starts no
	// sooner than this many times the last refresh's wall time after that
	// refresh ended (see nextRefresh).
	refreshGapFactor = 3
)

// Config parameterizes a Server. The zero value of every field except
// Peers selects a validated default.
type Config struct {
	// Peers is the (fixed) peer-id space the store ranges over. Required.
	Peers int
	// Shards is the concurrent store's ingest shard count, keyed by source
	// peer (0 = DefaultShards).
	Shards int
	// MaxBatch caps the events accepted in one ingest request
	// (0 = DefaultMaxBatch). Admission refuses a request with 429 when the
	// statements not yet folded into the store would exceed 256·MaxBatch.
	MaxBatch int
	// Refresh is the ceiling on staleness (0 = DefaultRefresh): the refresh
	// that folds an admitted event into the served vector starts no later
	// than Refresh after the one before it started (at once if that one ran
	// longer), and sooner when refreshes are cheap. An idle server does not
	// refresh at all.
	Refresh time.Duration
	// PreTrusted seeds the teleport distribution (empty = uniform).
	PreTrusted []int
	// Floor is the uniform allocation floor (0 = the incentive default).
	Floor float64
	// Watermark is the pending-statement level at which the solve plane
	// treats ingest as a backlog (0 = 4096): it flushes and publishes the
	// store at once and holds the next solve to the Refresh ceiling.
	Watermark int
	// SnapshotPath, when set, is loaded at construction (if the file
	// exists) and written by SaveSnapshot — the warm-restart surface.
	SnapshotPath string
	// SolveLog, when set, is called from the solve plane after every
	// refresh that actually solved (skipped refreshes are not reported) —
	// the collabserve log hook. It runs on the refresh goroutine, so it
	// must not block on the server's own handlers.
	SolveLog func(incentive.SolveInfo)
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.Refresh <= 0 {
		c.Refresh = DefaultRefresh
	}
	if c.Watermark <= 0 {
		c.Watermark = defaultWatermark
	}
	return c
}

// Server is the trust/reputation service: the three planes of the package
// doc behind one http.Handler. Construct with New, launch the solve plane
// with Start, and quiesce with Stop (then SaveSnapshot).
type Server struct {
	cfg Config

	gt     *incentive.GlobalTrust
	cg     *reputation.ConcurrentGraph
	reader reputation.TrustReader
	mux    *http.ServeMux

	scratch sync.Pool // *ingestScratch

	// admitMu makes each ingest request's bound check and appends one step,
	// so concurrent requests land in every ingest shard in the same order.
	admitMu sync.Mutex
	// kick tells the solve plane that a request was admitted (1-buffered;
	// ingest never blocks on it).
	kick chan struct{}

	refreshReq chan chan error
	quit       chan struct{}
	stopped    chan struct{} // closed when the refresh loop exits
	started    atomic.Bool

	start     time.Time
	accepted  atomic.Uint64 // events appended to the store
	rejected  atomic.Uint64 // events refused with 429
	reads     atomic.Uint64 // read-plane requests served
	refreshes atomic.Uint64 // solves that actually ran
	solveErrs atomic.Uint64

	// lastSolve mirrors the refresh goroutine's solver stats for lock-free
	// /v1/stats reads (the GlobalTrust accessors are single-threaded).
	lastSolve atomic.Pointer[solveRecord]
}

// solveRecord is the refresh goroutine's published view of the last solve
// plus the cumulative solve counters.
type solveRecord struct {
	info                incentive.SolveInfo
	warm, cold, skipped uint64
}

// New builds a server (loading SnapshotPath when it exists) without
// starting the solve plane: handlers already serve reads and admit writes,
// which wait in the store's ingest shards until a flush or the first solve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	scheme, err := incentive.NewScheme(cfg.Peers, incentive.Options{
		Kind:       incentive.KindEigenTrust,
		PreTrusted: cfg.PreTrusted,
		Floor:      cfg.Floor,
		Concurrent: true,
		Shards:     cfg.Shards,
	})
	if err != nil {
		return nil, err
	}
	gt := scheme.(*incentive.GlobalTrust)
	cg := gt.ConcurrentStore()
	s := &Server{
		cfg:        cfg,
		gt:         gt,
		cg:         cg,
		reader:     cg,
		kick:       make(chan struct{}, 1),
		refreshReq: make(chan chan error),
		quit:       make(chan struct{}),
		stopped:    make(chan struct{}),
		start:      time.Now(),
	}
	s.scratch.New = func() any { return new(ingestScratch) }
	if cfg.SnapshotPath != "" {
		if err := s.loadSnapshot(cfg.SnapshotPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("serve: loading snapshot %s: %w", cfg.SnapshotPath, err)
		}
	}
	s.routes()
	return s, nil
}

// Store exposes the concurrent trust store (tests and tooling).
func (s *Server) Store() *reputation.ConcurrentGraph { return s.cg }

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the refresh loop. Idempotent after the first call.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	go s.refreshLoop()
}

// Stop quiesces a started server: solves once more if acknowledged events
// left the vector stale (the solve folds them into the store), stops the
// solve plane, and publishes the folded state. Admission should have
// ceased (shut the HTTP listener down first); an event admitted later
// waits in the ingest shards for the next flush. After Stop the server
// serves reads.
func (s *Server) Stop() {
	if !s.started.CompareAndSwap(true, false) {
		return
	}
	close(s.quit)
	<-s.stopped
	s.cg.Flush()
}

// nextRefresh is when the solve plane refreshes next, given that the last
// refresh ran from lastStart to lastEnd: refreshGapFactor times that wall
// time after it ended, but no later than the ceiling after it started. A
// backlog (ingest outrunning the solve) waits for the ceiling.
func nextRefresh(lastStart, lastEnd time.Time, ceiling time.Duration, backlog bool) time.Time {
	at := lastStart.Add(ceiling)
	if backlog {
		return at
	}
	if gap := lastEnd.Add(refreshGapFactor * lastEnd.Sub(lastStart)); gap.Before(at) {
		return gap
	}
	return at
}

// refreshLoop is the solve plane: one goroutine owning all GlobalTrust
// state and every watermark publish. Every admitted request kicks it; a
// kick that finds no refresh armed arms one at nextRefresh (or runs it at
// once when that time has passed), and a kick past the watermark flushes
// first and holds the solve to the Refresh ceiling. An idle server arms
// nothing. Forced refreshes arrive over refreshReq. On quit it refreshes
// once more, so the vector left behind matches the edges a snapshot will
// save beside it.
func (s *Server) refreshLoop() {
	defer close(s.stopped)
	lastStart := time.Now()
	lastEnd := lastStart
	var timer *time.Timer
	var armed <-chan time.Time // timer.C while a refresh is armed, else nil
	paced := func() {
		lastStart = time.Now()
		s.refreshIfStale()
		lastEnd = time.Now()
	}
	for {
		select {
		case <-s.quit:
			s.refreshIfStale()
			return
		case <-s.kick:
			backlog := s.cg.Stats().Pending >= int64(s.cfg.Watermark)
			if backlog {
				s.cg.Flush()
			}
			if armed != nil {
				continue
			}
			wait := time.Until(nextRefresh(lastStart, lastEnd, s.cfg.Refresh, backlog))
			if wait <= 0 {
				paced()
				continue
			}
			if timer == nil {
				timer = time.NewTimer(wait)
			} else {
				timer.Reset(wait)
			}
			armed = timer.C
		case <-armed:
			armed = nil
			paced()
		case reply := <-s.refreshReq:
			lastStart = time.Now()
			err := s.gt.RefreshNow()
			if err != nil {
				s.solveErrs.Add(1)
			} else {
				s.refreshes.Add(1)
				s.recordSolve()
			}
			lastEnd = time.Now()
			reply <- err
		}
	}
}

// refreshIfStale solves when statements have landed since the last solve.
// Refresh goroutine only.
func (s *Server) refreshIfStale() {
	ran, err := s.gt.RefreshIfStale()
	if err != nil {
		s.solveErrs.Add(1)
	} else if ran {
		s.refreshes.Add(1)
		s.recordSolve()
	}
}

// recordSolve publishes the refresh goroutine's latest solver stats for
// lock-free stats reads and feeds the SolveLog hook. A skipped refresh
// keeps the last real solve's record and only marks it skipped, so the
// solve_* fields of /v1/stats always describe work that ran.
func (s *Server) recordSolve() {
	rec := &solveRecord{info: s.gt.LastSolve()}
	rec.warm, rec.cold, rec.skipped = s.gt.SolveCounts()
	if prev := s.lastSolve.Load(); rec.info.Skipped && prev != nil {
		rec.info = prev.info
		rec.info.Skipped = true
	}
	s.lastSolve.Store(rec)
	if s.cfg.SolveLog != nil && !rec.info.Skipped {
		s.cfg.SolveLog(rec.info)
	}
}

// routes installs the HTTP surface.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/events", s.handleIngest)
	s.mux.HandleFunc("GET /v1/reputation/{peer}", s.handleReputation)
	s.mux.HandleFunc("GET /v1/top", s.handleTop)
	s.mux.HandleFunc("GET /v1/alloc", s.handleAlloc)
	s.mux.HandleFunc("GET /v1/trust", s.handleTrustEdge)
	s.mux.HandleFunc("GET /v1/peers/{peer}/edges", s.handlePeerEdges)
	s.mux.HandleFunc("GET /v1/edges", s.handleEdges)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/flush", s.handleFlush)
	s.mux.HandleFunc("POST /v1/refresh", s.handleRefresh)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ingestRequest is the write-plane payload.
type ingestRequest struct {
	Events []Event `json:"events"`
}

// ingestResponse reports per-request admission, which is all or nothing:
// either every event is Accepted and already in the store's ingest shards,
// in request order, or the pending bound was reached and every event is
// Rejected.
type ingestResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected,omitempty"`
}

// maxPooledBody is the largest body buffer an ingestScratch keeps between
// requests; a larger one is left to the collector, so one 8 MiB request
// does not stay resident in a server that otherwise sees 2 KB bodies.
const maxPooledBody = 1 << 20

// ingestScratch is the per-request working memory of handleIngest, pooled
// (Server.scratch) because none of it outlives the handler: the raw body
// and the scanner's event slice (at most MaxBatch long).
type ingestScratch struct {
	body   bytes.Buffer
	events []Event
}

// errReader returns err from every Read: the tail that replays a body read
// error to encoding/json behind the bytes that were read before it.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// handleIngest admits a batch of events: decode, validate all, then either
// append every event to the store in request order or refuse them all.
//
// The body is read once. A canonical body (see scanEvents) is decoded by
// the scanner; any other, or one whose read failed, goes through
// encoding/json exactly as it would have arrived from the socket — bytes
// first, read error after — so encoding/json alone defines what is
// accepted and what each 400 says.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := s.scratch.Get().(*ingestScratch)
	defer func() {
		if sc.body.Cap() <= maxPooledBody {
			s.scratch.Put(sc)
		}
	}()
	sc.body.Reset()
	// A fresh buffer (the pool is emptied by the collector) would otherwise
	// reach a bulk-load body by ten doublings; ReadFrom wants MinRead spare.
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		sc.body.Grow(int(n) + bytes.MinRead)
	}
	_, readErr := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var events []Event
	scanned := false
	if readErr == nil {
		events, scanned = scanEvents(sc.body.Bytes(), sc.events, s.cfg.MaxBatch)
		sc.events = events
	}
	if !scanned {
		var body io.Reader = &sc.body
		if readErr != nil {
			body = io.MultiReader(body, errReader{readErr})
		}
		var req ingestRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "malformed ingest payload: %v", err)
			return
		}
		events = req.Events
	}
	if len(events) == 0 {
		writeErr(w, http.StatusBadRequest, "empty event batch")
		return
	}
	if len(events) > s.cfg.MaxBatch {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"batch of %d events exceeds the %d-event cap", len(events), s.cfg.MaxBatch)
		return
	}
	for i, e := range events {
		if err := e.validate(s.cfg.Peers); err != nil {
			writeErr(w, http.StatusBadRequest, "event %d: %v", i, err)
			return
		}
	}
	n := int64(len(events))
	s.admitMu.Lock()
	pending := s.cg.Stats().Pending
	if pending+n > pendingBatches*int64(s.cfg.MaxBatch) {
		s.admitMu.Unlock()
		s.rejected.Add(uint64(n))
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ingestResponse{Rejected: len(events)})
		return
	}
	// Validated events cannot fail in the store; its own checks stay as
	// the backstop.
	for _, e := range events {
		if e.Type == EventTrust && e.Set {
			_ = s.cg.SetTrust(e.From, e.To, e.W)
		} else {
			_ = s.cg.AddTrust(e.From, e.To, e.W)
		}
	}
	s.admitMu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
	s.accepted.Add(uint64(n))
	writeJSON(w, http.StatusAccepted, ingestResponse{Accepted: len(events)})
}

// reputationResponse is one peer's view of the last published solve.
type reputationResponse struct {
	Peer  int     `json:"peer"`
	Trust float64 `json:"trust"`
	Epoch uint64  `json:"epoch"`
	// Solved is false only when no trust vector has ever been published
	// (the scheme publishes the uniform founding vector at construction,
	// so in practice it is false only for foreign TrustReader backends).
	Solved bool `json:"solved"`
}

func (s *Server) handleReputation(w http.ResponseWriter, r *http.Request) {
	peer, err := strconv.Atoi(r.PathValue("peer"))
	if err != nil || peer < 0 || peer >= s.cfg.Peers {
		writeErr(w, http.StatusBadRequest, "peer must be in [0,%d)", s.cfg.Peers)
		return
	}
	s.reads.Add(1)
	resp := reputationResponse{Peer: peer}
	if snap := s.reader.TrustSnapshot(); snap != nil {
		resp.Trust = s.reader.PeerTrust(peer)
		resp.Epoch = snap.Seq
		resp.Solved = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// topResponse lists the k most-trusted peers at the last published solve.
type topResponse struct {
	Epoch uint64                 `json:"epoch"`
	Top   []reputation.PeerTrust `json:"top"`
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		var err error
		if k, err = strconv.Atoi(v); err != nil || k <= 0 {
			writeErr(w, http.StatusBadRequest, "k must be a positive integer")
			return
		}
	}
	s.reads.Add(1)
	resp := topResponse{Top: []reputation.PeerTrust{}}
	if snap := s.reader.TrustSnapshot(); snap != nil {
		resp.Epoch = snap.Seq
		resp.Top = s.reader.TopK(k, resp.Top)
	}
	writeJSON(w, http.StatusOK, resp)
}

// allocResponse is a bandwidth split over the requested downloaders,
// computed from the snapshot exactly as incentive.GlobalTrust.Allocate
// would from live state: floor/n + trust, normalized.
type allocResponse struct {
	Source      int       `json:"source"`
	Downloaders []int     `json:"downloaders"`
	Shares      []float64 `json:"shares"`
	Epoch       uint64    `json:"epoch"`
}

func (s *Server) handleAlloc(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	source, err := strconv.Atoi(q.Get("source"))
	if err != nil || source < 0 || source >= s.cfg.Peers {
		writeErr(w, http.StatusBadRequest, "source must be in [0,%d)", s.cfg.Peers)
		return
	}
	parts := strings.Split(q.Get("d"), ",")
	if len(parts) == 0 || parts[0] == "" {
		writeErr(w, http.StatusBadRequest, "d must list at least one downloader id")
		return
	}
	downloaders := make([]int, 0, len(parts))
	for _, p := range parts {
		d, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || d < 0 || d >= s.cfg.Peers {
			writeErr(w, http.StatusBadRequest, "downloader %q must be in [0,%d)", p, s.cfg.Peers)
			return
		}
		downloaders = append(downloaders, d)
	}
	s.reads.Add(1)
	floor := s.cfg.Floor
	if floor <= 0 {
		floor = incentive.DefaultGlobalTrustConfig().Floor
	}
	resp := allocResponse{Source: source, Downloaders: downloaders, Shares: make([]float64, len(downloaders))}
	snap := s.reader.TrustSnapshot()
	sum := 0.0
	for i, d := range downloaders {
		resp.Shares[i] = floor / float64(s.cfg.Peers)
		if snap != nil {
			resp.Shares[i] += snap.Vector[d]
		}
		sum += resp.Shares[i]
	}
	if sum > 0 {
		for i := range resp.Shares {
			resp.Shares[i] /= sum
		}
	} else {
		for i := range resp.Shares {
			resp.Shares[i] = 1 / float64(len(resp.Shares))
		}
	}
	if snap != nil {
		resp.Epoch = snap.Seq
	}
	writeJSON(w, http.StatusOK, resp)
}

// trustEdgeResponse is one local-trust point read at a pinned epoch.
type trustEdgeResponse struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	W     float64 `json:"w"`
	Epoch uint64  `json:"epoch"`
}

func (s *Server) handleTrustEdge(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err1 := strconv.Atoi(q.Get("from"))
	to, err2 := strconv.Atoi(q.Get("to"))
	if err1 != nil || err2 != nil || from < 0 || from >= s.cfg.Peers || to < 0 || to >= s.cfg.Peers {
		writeErr(w, http.StatusBadRequest, "from and to must be in [0,%d)", s.cfg.Peers)
		return
	}
	s.reads.Add(1)
	e := s.cg.Acquire()
	resp := trustEdgeResponse{From: from, To: to, W: e.Trust(from, to), Epoch: e.Seq()}
	e.Release()
	writeJSON(w, http.StatusOK, resp)
}

// edgeJSON is the canonical wire form of one trust edge.
type edgeJSON struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	W    float64 `json:"w"`
}

// peerEdgesResponse is one peer's outgoing row at a pinned epoch.
type peerEdgesResponse struct {
	Peer  int        `json:"peer"`
	Edges []edgeJSON `json:"edges"`
	Epoch uint64     `json:"epoch"`
}

func (s *Server) handlePeerEdges(w http.ResponseWriter, r *http.Request) {
	peer, err := strconv.Atoi(r.PathValue("peer"))
	if err != nil || peer < 0 || peer >= s.cfg.Peers {
		writeErr(w, http.StatusBadRequest, "peer must be in [0,%d)", s.cfg.Peers)
		return
	}
	s.reads.Add(1)
	e := s.cg.Acquire()
	resp := peerEdgesResponse{Peer: peer, Edges: make([]edgeJSON, 0, e.OutDegree(peer)), Epoch: e.Seq()}
	e.OutEdges(peer, func(to int, w float64) {
		resp.Edges = append(resp.Edges, edgeJSON{From: peer, To: to, W: w})
	})
	e.Release()
	writeJSON(w, http.StatusOK, resp)
}

// edgesResponse is the full canonical edge dump — the maintenance-plane
// exact view (flushes queued statements first), which the replay
// verification tooling compares bit-for-bit against a serial store.
type edgesResponse struct {
	Peers int        `json:"peers"`
	Edges []edgeJSON `json:"edges"`
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	edges := s.cg.AppendEdges(nil)
	resp := edgesResponse{Peers: s.cfg.Peers, Edges: make([]edgeJSON, len(edges))}
	for i, e := range edges {
		resp.Edges[i] = edgeJSON{From: e.From, To: e.To, W: e.W}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse is the observability surface: serve-plane counters plus
// the store's epoch/publish counters.
type statsResponse struct {
	Peers         int     `json:"peers"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Started       bool    `json:"started"`

	Accepted    uint64 `json:"accepted"`
	Rejected    uint64 `json:"rejected"`
	Reads       uint64 `json:"reads"`
	Refreshes   uint64 `json:"refreshes"`
	SolveErrors uint64 `json:"solve_errors"`

	TrustEpoch  uint64 `json:"trust_epoch"`
	Epoch       uint64 `json:"epoch"`
	Swaps       uint64 `json:"swaps"`
	RetireWaits uint64 `json:"retire_waits"`
	Flushes     uint64 `json:"flushes"`
	Pending     int64  `json:"pending"`
	Readers     int64  `json:"readers"`

	// Solver observability: what the last eigenvector solve did and the
	// cumulative warm/cold/skipped split. Zero until the first post-Start
	// refresh. A skipped refresh sets SolveSkipped and the counters and
	// leaves the other solve_* fields as the last real solve wrote them.
	SolveIterations    int     `json:"solve_iterations"`
	SolveConverged     bool    `json:"solve_converged"`
	SolveWarm          bool    `json:"solve_warm"`
	SolveSkipped       bool    `json:"solve_skipped"`
	SolvePatternStable bool    `json:"solve_pattern_stable"`
	SolveDirtyRows     int     `json:"solve_dirty_rows"`
	SolveSeconds       float64 `json:"solve_seconds"`
	WarmSolves         uint64  `json:"warm_solves"`
	ColdSolves         uint64  `json:"cold_solves"`
	SkippedSolves      uint64  `json:"skipped_solves"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.cg.Stats()
	resp := statsResponse{
		Peers:         s.cfg.Peers,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Started:       s.started.Load(),
		Accepted:      s.accepted.Load(),
		Rejected:      s.rejected.Load(),
		Reads:         s.reads.Load(),
		Refreshes:     s.refreshes.Load(),
		SolveErrors:   s.solveErrs.Load(),
		Epoch:         st.Epoch,
		Swaps:         st.Swaps,
		RetireWaits:   st.RetireWaits,
		Flushes:       st.Flushes,
		Pending:       st.Pending,
		Readers:       st.Readers,
	}
	if snap := s.reader.TrustSnapshot(); snap != nil {
		resp.TrustEpoch = snap.Seq
	}
	if rec := s.lastSolve.Load(); rec != nil {
		resp.SolveIterations = rec.info.Stats.Iterations
		resp.SolveConverged = rec.info.Stats.Converged
		resp.SolveWarm = rec.info.Stats.Warm
		resp.SolveSkipped = rec.info.Skipped
		resp.SolvePatternStable = rec.info.Stats.Refresh.PatternStable
		resp.SolveDirtyRows = rec.info.Stats.Refresh.RowsTouched
		resp.SolveSeconds = rec.info.Duration.Seconds()
		resp.WarmSolves = rec.warm
		resp.ColdSolves = rec.cold
		resp.SkippedSolves = rec.skipped
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "started": s.started.Load()})
}

// handleFlush folds every acknowledged event into the store and publishes
// the result, so lock-free reads see it — the verification hook.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	s.cg.Flush()
	st := s.cg.Stats()
	writeJSON(w, http.StatusOK, map[string]any{"epoch": st.Epoch, "pending": st.Pending})
}

// handleRefresh forces a solve through the refresh goroutine (keeping all
// solver state single-threaded) and reports the published epoch.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if !s.started.Load() {
		writeErr(w, http.StatusServiceUnavailable, "refresh loop not running")
		return
	}
	reply := make(chan error, 1)
	select {
	case s.refreshReq <- reply:
	case <-s.stopped:
		writeErr(w, http.StatusServiceUnavailable, "refresh loop stopped")
		return
	}
	if err := <-reply; err != nil {
		writeErr(w, http.StatusInternalServerError, "solve failed: %v", err)
		return
	}
	snap := s.reader.TrustSnapshot()
	writeJSON(w, http.StatusOK, map[string]any{"epoch": snap.Seq})
}
