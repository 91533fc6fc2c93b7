// Collabserve runs the trust/reputation service: an HTTP daemon over the
// concurrent trust store that ingests trust and contribution events,
// serves reputation/allocation queries from published snapshots, and
// re-solves EigenTrust soon after writes land — paced by what the last
// solve cost, and never later than -refresh after the previous one started.
//
// Usage:
//
//	collabserve -peers 2000 -addr :8080
//	collabserve -peers 2000 -snapshot /var/lib/collabserve/state.snap
//	collabserve -peers 500 -refresh 250ms -shards 16 -watermark 8192
//
// On SIGINT/SIGTERM the server stops admitting writes, folds every
// acknowledged event into the store, and (when -snapshot is set) writes a
// binary snapshot; restarting with the same -snapshot path warm-starts
// bit-identical to a serial replay of everything the dead process had
// acknowledged. See the internal/serve package doc for the read/write/solve
// plane architecture.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"collabnet/internal/incentive"
	"collabnet/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		peers     = flag.Int("peers", 1000, "peer-id space size")
		shards    = flag.Int("shards", 0, "ingest shard count (0 = default)")
		maxBatch  = flag.Int("maxbatch", 0, "max events per ingest request (0 = default)")
		refresh   = flag.Duration("refresh", 0, "ceiling on how stale served trust may get after a write (0 = default)")
		floor     = flag.Float64("floor", 0, "allocation floor (0 = scheme default)")
		watermark = flag.Int("watermark", 0, "store publish watermark in pending statements (0 = store default)")
		snapshot  = flag.String("snapshot", "", "snapshot path for warm restart (loaded if present, written on shutdown)")
		pretrust  = flag.String("pretrusted", "", "comma-separated pre-trusted peer ids")
		logSolves = flag.Bool("logsolves", false, "log every EigenTrust solve (iterations, warm/cold, dirty rows, wall time)")
	)
	flag.Parse()

	preTrusted, err := parseIDList(*pretrust)
	if err != nil {
		fmt.Fprintln(os.Stderr, "collabserve:", err)
		os.Exit(2)
	}
	cfg := serve.Config{
		Peers:        *peers,
		Shards:       *shards,
		MaxBatch:     *maxBatch,
		Refresh:      *refresh,
		PreTrusted:   preTrusted,
		Floor:        *floor,
		Watermark:    *watermark,
		SnapshotPath: *snapshot,
	}
	if *logSolves {
		cfg.SolveLog = func(info incentive.SolveInfo) {
			mode := "cold"
			if info.Stats.Warm {
				mode = "warm"
			}
			refresh := "rebuild"
			switch st := info.Stats.Refresh; {
			case st.DirtyOnly:
				refresh = "dirty-rows"
			case st.PatternStable:
				refresh = "value-copy"
			case st.RowsTouched < *peers:
				refresh = "structural" // pattern patched in place, not rebuilt
			}
			log.Printf("solve: %s iters=%d converged=%v refresh=%s rows=%d wall=%s",
				mode, info.Stats.Iterations, info.Stats.Converged,
				refresh, info.Stats.Refresh.RowsTouched, info.Duration)
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "collabserve:", err)
		os.Exit(1)
	}
	srv.Start()

	httpSrv := newHTTPServer(*addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("collabserve: serving %d peers on %s\n", *peers, *addr)

	select {
	case <-ctx.Done():
		fmt.Println("collabserve: shutting down")
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "collabserve:", err)
		os.Exit(1)
	}

	// Shutdown order matters: stop admission first (no handler can append
	// after Shutdown returns), then fold the ingest shards and solve, then
	// persist.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "collabserve: shutdown:", err)
	}
	srv.Stop()
	if *snapshot != "" {
		if err := srv.SaveSnapshot(); err != nil {
			fmt.Fprintln(os.Stderr, "collabserve: snapshot:", err)
			os.Exit(1)
		}
		fmt.Println("collabserve: snapshot written to", *snapshot)
	}
}

// Limits at the HTTP boundary. A client gets readHeaderTimeout to send its
// request headers (at most maxHeaderBytes of them), and an idle keep-alive
// connection is closed after idleTimeout, which sits far above the quiet
// spells of a steady client — seconds, not minutes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer is the daemon's listener configuration: the handler behind
// the boundary limits above. No read or write timeout covers the body, so a
// full 8 MiB ingest batch on a slow link is not cut off.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func parseIDList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	ids := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad pre-trusted id %q", p)
		}
		ids = append(ids, id)
	}
	return ids, nil
}
