package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"collabnet/internal/reputation"
	"collabnet/internal/serve"
)

// daemonEnv, when set in a test binary's environment, makes TestMain run
// the daemon's main() on the binary's arguments instead of the tests, so a
// test can drive the real binary — flag wiring, signals, exit code — as a
// child process.
const daemonEnv = "COLLABSERVE_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNewHTTPServerLimits pins the boundary limits the daemon listens with.
func TestNewHTTPServerLimits(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer("127.0.0.1:0", h)
	if s.Addr != "127.0.0.1:0" || s.Handler != h {
		t.Fatalf("address or handler not wired: %q %v", s.Addr, s.Handler)
	}
	if s.ReadHeaderTimeout != readHeaderTimeout || s.IdleTimeout != idleTimeout || s.MaxHeaderBytes != maxHeaderBytes {
		t.Fatalf("limits: header %v idle %v header bytes %d", s.ReadHeaderTimeout, s.IdleTimeout, s.MaxHeaderBytes)
	}
	if s.ReadHeaderTimeout <= 0 || s.MaxHeaderBytes <= 0 {
		t.Fatal("a zero limit means none")
	}
	// An idle keep-alive connection must outlive the longest quiet spell of
	// a steady client by a wide margin.
	if s.IdleTimeout < time.Minute {
		t.Fatalf("idle timeout %v is too close to a client's quiet spells", s.IdleTimeout)
	}
	if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Fatal("a whole-request timeout would cut off large ingest batches on slow links")
	}
}

// TestDaemonDrainSnapshotWarmRestart runs the daemon binary through its
// production loop: boot, ingest, a served edge dump equal bit for bit to a
// serial replay of the accepted events, SIGTERM into a drained snapshot
// (in a directory that does not exist yet), and a warm restart from that
// snapshot serving the same edges.
func TestDaemonDrainSnapshotWarmRestart(t *testing.T) {
	const peers = 256
	snap := filepath.Join(t.TempDir(), "sub", "state.snap")
	client := &http.Client{Timeout: 10 * time.Second}
	rng := rand.New(rand.NewSource(7))

	d := startDaemon(t, "-peers", "256", "-refresh", "100ms", "-snapshot", snap)
	var accepted []serve.Event
	for b := 0; b < 40; b++ {
		ev := seededBatch(rng, peers, 32)
		if post(t, client, d.url, ev) {
			accepted = append(accepted, ev...)
		}
	}
	if len(accepted) == 0 {
		t.Fatal("the daemon admitted no batch")
	}
	resp, err := client.Post(d.url+"/v1/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %s", resp.Status)
	}
	requireReplay(t, client, d.url, peers, accepted)

	// Only the shutdown drain can fold this batch into the snapshot: no
	// flush follows it.
	last := seededBatch(rng, peers, 32)
	if !post(t, client, d.url, last) {
		t.Fatal("the last batch was refused")
	}
	accepted = append(accepted, last...)
	d.terminate()
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no snapshot after SIGTERM: %v", err)
	}

	d = startDaemon(t, "-peers", "256", "-snapshot", snap)
	var st struct {
		Peers int    `json:"peers"`
		Epoch uint64 `json:"epoch"`
	}
	getJSON(t, client, d.url+"/v1/stats", &st)
	if st.Peers != peers || st.Epoch == 0 {
		t.Fatalf("restarted daemon: %d peers at epoch %d, want %d peers past the founding epoch", st.Peers, st.Epoch, peers)
	}
	requireReplay(t, client, d.url, peers, accepted)
	d.terminate()
}

// seededBatch draws n valid events: contributions, accumulated trust and
// overwritten trust (some of them deletions), all with fractional weights,
// aimed at a few dozen targets so that pairs repeat and sums accumulate.
func seededBatch(rng *rand.Rand, peers, n int) []serve.Event {
	ev := make([]serve.Event, 0, n)
	for len(ev) < n {
		e := serve.Event{Type: serve.EventContrib, From: rng.Intn(peers), To: rng.Intn(32), W: 0.1 + 9*rng.Float64()}
		if e.From == e.To {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			e.Type = serve.EventTrust
		case 1:
			e.Type, e.Set = serve.EventTrust, true
			if rng.Intn(4) == 0 {
				e.W = 0
			}
		}
		ev = append(ev, e)
	}
	return ev
}

// post sends one batch and reports whether it was admitted. A 429 applied
// nothing; any other answer but 202 fails the test.
func post(t *testing.T, client *http.Client, url string, ev []serve.Event) bool {
	t.Helper()
	body, err := json.Marshal(map[string][]serve.Event{"events": ev})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		return true
	case http.StatusTooManyRequests:
		return false
	}
	t.Fatalf("ingest: %s", resp.Status)
	return false
}

func getJSON(t *testing.T, client *http.Client, url string, v any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// requireReplay requires the served edge dump to equal, weights bit for
// bit, a serial LogGraph replay of the accepted events in send order.
func requireReplay(t *testing.T, client *http.Client, url string, peers int, accepted []serve.Event) {
	t.Helper()
	ref, err := reputation.NewLogGraph(peers)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range accepted {
		if e.Type == serve.EventTrust && e.Set {
			err = ref.SetTrust(e.From, e.To, e.W)
		} else {
			err = ref.AddTrust(e.From, e.To, e.W)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	want := ref.AppendEdges(nil)
	var dump struct {
		Peers int               `json:"peers"`
		Edges []reputation.Edge `json:"edges"` // from, to, w match case-insensitively
	}
	getJSON(t, client, url+"/v1/edges", &dump)
	if dump.Peers != peers || len(dump.Edges) != len(want) || len(want) == 0 {
		t.Fatalf("served %d edges over %d peers, serial replay %d over %d", len(dump.Edges), dump.Peers, len(want), peers)
	}
	for i, e := range dump.Edges {
		if w := want[i]; e.From != w.From || e.To != w.To || math.Float64bits(e.W) != math.Float64bits(w.W) {
			t.Fatalf("edge %d: served (%d,%d,%v), serial replay (%d,%d,%v)", i, e.From, e.To, e.W, w.From, w.To, w.W)
		}
	}
}

// daemon is the daemon binary running as a child process on a free local
// port.
type daemon struct {
	t      *testing.T
	url    string
	cmd    *exec.Cmd
	out    bytes.Buffer // stdout and stderr; read only once the process is gone
	done   chan error   // the process's exit, once
	exited bool
}

// startDaemon boots the daemon with args after -addr and waits until it
// answers /healthz. The test's cleanup kills it if it is still running and,
// on failure, logs what it printed.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	d := &daemon{t: t, url: "http://" + addr, done: make(chan error, 1)}
	d.cmd = exec.Command(os.Args[0], append([]string{"-addr", addr}, args...)...)
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d.cmd.Stdout, d.cmd.Stderr = &d.out, &d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	t.Cleanup(func() {
		if !d.exited {
			d.cmd.Process.Kill()
			<-d.done
		}
		if t.Failed() {
			t.Logf("daemon %v printed:\n%s", args, d.out.String())
		}
	})

	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := probe.Get(d.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		select {
		case err := <-d.done:
			d.exited = true
			t.Fatalf("daemon exited before answering /healthz: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not answer /healthz within 10s")
		}
	}
}

// terminate sends SIGTERM and requires exit status 0 within 10 s.
func (d *daemon) terminate() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatal(err)
	}
	select {
	case err := <-d.done:
		d.exited = true
		if err != nil {
			d.t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		d.t.Fatal("daemon did not exit within 10s of SIGTERM")
	}
}
