package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Stage 2 of 3: the runner. It drives the real binaries as child processes
// — one collabsim sweep, then one collabserve serving run — and returns raw
// samples only; the analyzer turns them into metrics.

// opSample is one request: a scheduled one, or one of the prober's polls.
type opSample struct {
	Kind     string  // write | marker | reputation | top | alloc | edges | poll.trust | poll.reputation
	Measured bool    // due inside the measured phase (warm-up and bare-round samples reach no metric)
	OK       bool    // 202 for writes, 200 for reads
	LatMS    float64 // due → response read: the open-loop latency (polls have no due time)
	SocketMS float64 // sent → response read
}

// markerSample is one visibility marker: due → edge and vector both visible.
type markerSample struct {
	K        int
	Measured bool
	OK       bool
	LagMS    float64
}

type sweepRun struct {
	WallS, CPUS float64
	RSSMB       []float64 // resident set sampled every 50 ms
	PeakMB      float64
	Exit        int
}

type rawRun struct {
	Sweep       sweepRun
	SetupS      []float64
	BootMS      float64 // of the last set-up
	BulkLoadS   float64
	Writes      []opSample // traffic batches
	MarkerAcks  []opSample // marker POSTs
	Reads       []opSample // scheduled reads
	Polls       []opSample // the prober's visibility polls
	Markers     []markerSample
	LateMS      []float64 // sent − due of every measured scheduled op
	RoundCPUS   []float64
	BareCPUS    float64        // server CPU over the bare round, when the instance has one
	ServeRSSMB  []float64      // server resident set sampled every 50 ms of the measured phase
	ServePeakMB float64        // its VmHWM at the end of the measured phase
	Stats       [2]serverStats // at the start and the end of the measured phase
	Accepted    []bool         // per instance write: acknowledged with 202
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	Accepted      uint64 `json:"accepted"`
	Rejected      uint64 `json:"rejected"`
	Refreshes     uint64 `json:"refreshes"`
	Epoch         uint64 `json:"epoch"`
	RetireWaits   uint64 `json:"retire_waits"`
	SkippedSolves uint64 `json:"skipped_solves"`
}

// conn is one client connection to the server, used by a single goroutine.
// It writes HTTP/1.1 requests straight onto one TCP socket and reads the
// responses on the calling goroutine: net/http's Transport would hand every
// request through two more goroutines, and on a two-core box those wake-ups
// are a large and unsteady share of a sub-millisecond latency.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

func (c *conn) do(method, path string, body []byte, into any) (int, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, err
		}
		c.c, c.br = nc, bufio.NewReader(nc)
	}
	c.buf.Reset()
	fmt.Fprintf(&c.buf, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.addr)
	if body != nil {
		fmt.Fprintf(&c.buf, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.buf.WriteString("\r\n")
	c.buf.Write(body)
	code, err := c.roundTrip(into)
	if err != nil {
		c.close() // the stream is in an unknown state: the next request redials
	}
	return code, err
}

func (c *conn) roundTrip(into any) (int, error) {
	if err := c.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, err
	}
	if _, err := c.c.Write(c.buf.Bytes()); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			return resp.StatusCode, err
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

func (c *conn) get(path string, into any) (int, error) { return c.do("GET", path, nil, into) }
func (c *conn) post(path string, body []byte) (int, error) {
	return c.do("POST", path, body, nil)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// must turns anything but the wanted status into an error.
func must(want int) func(int, error) error {
	return func(code int, err error) error {
		if err == nil && code != want {
			err = fmt.Errorf("status %d, want %d", code, want)
		}
		return err
	}
}

// server is one collabserve child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startServer(bin string, peers int, snapshot, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-peers", strconv.Itoa(peers),
		"-refresh", refreshEvery.String(), "-snapshot", snapshot)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // no server outlives a killed benchmark
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	return &server{cmd: cmd, addr: addr, log: logf}, nil
}

// healthy polls /healthz until the listener answers.
func (s *server) healthy(c *conn) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		if code, err := c.get("/healthz", nil); err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("collabserve did not answer /healthz within 20s")
		}
		time.Sleep(time.Millisecond)
	}
}

// terminate sends SIGTERM (drain, then snapshot) and waits for the exit.
func (s *server) terminate() error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("collabserve exit: %w", err)
	}
	return nil
}

// kill is the error-path stop: no snapshot wanted, just no process left.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
	s.log.Close()
}

// cpuSeconds reads utime+stime of pid from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	const clockTicks = 100 // USER_HZ, fixed on Linux
	return (ut + st) / clockTicks, nil
}

// rssMB reads the resident set of pid, now (VmRSS) and at its peak (VmHWM),
// from /proc/<pid>/status.
func rssMB(pid int) (now, peak float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "VmRSS:":
			now, err = strconv.ParseFloat(f[1], 64)
		case "VmHWM:":
			peak, err = strconv.ParseFloat(f[1], 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if peak == 0 {
		return 0, 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
	}
	return now / 1024, peak / 1024, nil
}

// session holds what one sweep-then-serve run needs.
type session struct {
	w      workload
	in     *instance
	outDir string
	binDir string
	tr     *tracer // nil in the timed run
	setups int
}

// sleeper wakes its goroutine at an absolute time through a timerfd read
// by the runtime's network poller. time.Sleep would do for correctness, but
// an idle Go scheduler wakes timers with about a millisecond of slack —
// several times the latencies being measured — and a raw nanosleep(2) keeps
// the goroutine's P for up to 10 ms, which starves the poller the other
// connection's responses arrive through. A timerfd is as exact as nanosleep
// and parks the goroutine like any socket read.
type sleeper struct{ f *os.File }

func newSleeper() (*sleeper, error) {
	const clockMonotonic, nonblockCloexec = 1, syscall.O_NONBLOCK | syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) close() { s.f.Close() }

// until sleeps until t.
func (s *sleeper) until(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	// struct itimerspec{interval, value}: one shot after d.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := s.f.Read(expirations[:]); err != nil {
		time.Sleep(time.Until(t))
	}
}

// sweep runs the session's collabsim invocation and reads its rusage.
func (s *session) sweep() (sweepRun, error) {
	csvDir := filepath.Join(s.outDir, "csv")
	if err := os.RemoveAll(csvDir); err != nil {
		return sweepRun{}, err
	}
	out, err := os.Create(filepath.Join(s.outDir, "collabsim.log"))
	if err != nil {
		return sweepRun{}, err
	}
	defer out.Close()
	cmd := exec.Command(filepath.Join(s.binDir, "collabsim"), append(s.in.SweepArgs, "-csv", csvDir)...)
	cmd.Stdout, cmd.Stderr = out, out
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return sweepRun{}, fmt.Errorf("collabsim: %w", err)
	}
	// RSS is sampled from the child's own /proc status while it runs: the
	// ru_maxrss that wait4 returns starts from the parent's RSS at fork
	// (Linux carries it across exec), which here is the generated instance.
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		_ = cmd.Wait() // the exit status is read from ProcessState below
	}()
	var rss []float64
	var peak float64
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-exited:
			running = false
		case <-tick.C:
			if now, hwm, err := rssMB(cmd.Process.Pid); err == nil { // fails only once the child is gone
				rss, peak = append(rss, now), hwm
			}
		}
	}
	end := time.Now()
	s.tr.add(0, "sweep", "sweep", start, end)
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return sweepRun{}, fmt.Errorf("collabsim: no rusage on this platform")
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return sweepRun{
		WallS: end.Sub(start).Seconds(),
		CPUS:  tv(ru.Utime) + tv(ru.Stime),
		RSSMB: rss, PeakMB: peak,
		Exit: cmd.ProcessState.ExitCode(),
	}, nil
}

// serving is a collabserve that has been set up, with its two connections.
type serving struct {
	srv    *server
	wc, rc *conn   // the writer's and the prober/reader's connection
	setupS float64 // what the whole set-up took
	// Two steps of it, for the traced run's per-layer numbers.
	bootMS, bulkLoadS float64
}

// setup is the serving set-up a user waits for: boot, bulk-load the preload
// graph, flush, first cold solve, SIGTERM into a snapshot, boot again from
// it and see the store loaded.
func (s *session) setup(bodies [][]byte) (sv *serving, err error) {
	bin := filepath.Join(s.binDir, "collabserve")
	snap := filepath.Join(s.outDir, "state.snap")
	logPath := filepath.Join(s.outDir, "collabserve.log")
	if err := os.Remove(snap); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var live *server // whichever process is up, killed if the set-up fails
	step := time.Now()
	start := step
	parent := s.tr.reserve(0, "setup", "", start)
	// done closes the step that just ran: a span, or the error that ends the set-up.
	done := func(name string, stepErr error) time.Duration {
		now := time.Now()
		d := now.Sub(step)
		s.tr.add(parent, "setup."+name, "", step, now)
		step = now
		if stepErr != nil && err == nil {
			err = fmt.Errorf("set-up: %s: %w", name, stepErr)
		}
		return d
	}
	defer func() {
		if err != nil {
			if live != nil {
				live.kill()
			}
			sv = nil
		}
	}()

	if live, err = startServer(bin, s.w.Peers, snap, logPath); err != nil {
		return nil, err
	}
	c := newConn(live.addr)
	defer c.close()
	sv = new(serving)
	if sv.bootMS = msOf(done("boot", live.healthy(c))); err != nil {
		return
	}
	var loadErr error
	for _, b := range bodies {
		if loadErr = must(http.StatusAccepted)(c.post("/v1/events", b)); loadErr != nil {
			break
		}
	}
	if sv.bulkLoadS = done("bulk_load", loadErr).Seconds(); err != nil {
		return
	}
	if done("flush", must(http.StatusOK)(c.post("/v1/flush", nil))); err != nil {
		return
	}
	if done("cold_solve", must(http.StatusOK)(c.post("/v1/refresh", nil))); err != nil {
		return
	}
	first := live
	live = nil
	if done("drain_snapshot", first.terminate()); err != nil {
		return
	}
	if live, err = startServer(bin, s.w.Peers, snap, logPath); err != nil {
		return nil, err
	}
	sv.srv, sv.wc, sv.rc = live, newConn(live.addr), newConn(live.addr)
	if done("reboot", s.restored(sv)); err != nil {
		return
	}
	s.tr.finish(parent, step)
	sv.setupS = step.Sub(start).Seconds()
	return sv, nil
}

// restored waits for the restarted server and requires its store loaded and
// non-empty: past its founding epoch, a preloaded edge reading back bit-exact.
func (s *session) restored(sv *serving) error {
	if err := sv.srv.healthy(sv.wc); err != nil {
		return err
	}
	var st serverStats
	if err := must(http.StatusOK)(sv.wc.get("/v1/stats", &st)); err != nil {
		return err
	}
	var te struct {
		W float64 `json:"w"`
	}
	e0 := s.in.Preload[0]
	if err := must(http.StatusOK)(sv.wc.get(fmt.Sprintf("/v1/trust?from=%d&to=%d", e0.F, e0.T), &te)); err != nil {
		return err
	}
	if st.Epoch == 0 || te.W != e0.W {
		return fmt.Errorf("snapshot not loaded: epoch %d, edge (%d,%d) reads %v, want %v", st.Epoch, e0.F, e0.T, te.W, e0.W)
	}
	return nil
}

// pending is a marker that is due and not yet seen in both the edge and the
// served vector.
type pending struct {
	k         int
	due       time.Time
	measured  bool
	edgeEpoch uint64 // graph epoch at which the edge first read ≥ k; 0 = not yet
	span      int    // the marker's span and the request id its children share
	req       string
}

// drive runs the warm-up, the measured phase and (in a traced run) the bare
// round against srv: an open loop of exactly two goroutines, each owning
// one connection — the writer (traffic batches and marker POSTs) and the
// prober/reader (scheduled reads and visibility polls) — plus a sampler that
// reads the server's CPU at round boundaries and its resident set every
// 50 ms from /proc.
func (s *session) drive(sv *serving, raw *rawRun) error {
	in, wc, rc := s.in, sv.wc, sv.rc
	pid := sv.srv.cmd.Process.Pid
	t0 := time.Now().Add(20 * time.Millisecond)
	due := func(us int64) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	measured := in.measured
	phase := s.tr.reserve(0, "serve", "", t0)

	// Marker bookkeeping the two goroutines share is fixed before they
	// start: due times come from the schedule, span ids are reserved here.
	var marks []pending
	for i := range in.Writes {
		if w := &in.Writes[i]; w.Marker > 0 {
			d, req := due(w.AtUS), "m"+strconv.Itoa(w.Marker)
			marks = append(marks, pending{k: w.Marker, due: d, measured: measured(w.AtUS),
				span: s.tr.reserve(phase, "marker", req, d), req: req})
		}
	}
	raw.Accepted = make([]bool, len(in.Writes))

	wsleep, err := newSleeper()
	if err != nil {
		return err
	}
	defer wsleep.close()
	rsleep, err := newSleeper()
	if err != nil {
		return err
	}
	defer rsleep.close()
	var wg sync.WaitGroup
	var writeLate, readLate []float64
	var cpuErr, statsErr error

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := range in.Writes {
			w := &in.Writes[i]
			d := due(w.AtUS)
			wsleep.until(d)
			sent := time.Now()
			code, err := wc.post("/v1/events", w.Body)
			done := time.Now()
			op := opSample{Kind: "write", Measured: measured(w.AtUS), OK: err == nil && code == http.StatusAccepted,
				LatMS: msOf(done.Sub(d)), SocketMS: msOf(done.Sub(sent))}
			raw.Accepted[i] = op.OK
			if op.Measured {
				writeLate = append(writeLate, msOf(sent.Sub(d)))
			}
			if w.Marker > 0 {
				op.Kind = "marker"
				raw.MarkerAcks = append(raw.MarkerAcks, op)
				m := &marks[w.Marker-1]
				s.tr.add(m.span, "marker.post", m.req, sent, done)
			} else {
				raw.Writes = append(raw.Writes, op)
				s.tr.add(phase, "write", "", sent, done)
			}
		}
	}()

	wg.Add(1)
	go func() { // prober and reader
		defer wg.Done()
		trustPath := fmt.Sprintf("/v1/trust?from=%d&to=%d", in.MarkerFrom, in.MarkerTo)
		repPath := fmt.Sprintf("/v1/reputation/%d", in.MarkerTo)
		// The server's counters are read on this connection as the measured
		// phase begins and ends: there is no third connection.
		statAt := [2]time.Time{due(warmup.Microseconds()), due(in.measuredEnd())}
		var out []*pending
		// Polls come at random gaps around pollEvery, never on a grid: the
		// refresh period is a multiple of pollEvery, and a fixed gap would
		// keep one phase against the ticker for a whole run — a different
		// one each run, and with it a different lag.
		jitter := rand.New(rand.NewSource(int64(in.Seed)<<3 | 6))
		var nextPoll time.Time
		pollGap := func() time.Duration { return pollEvery/2 + time.Duration(jitter.Int63n(int64(pollEvery))) }
		ri, mi, si := 0, 0, 0
		resolve := func(p *pending, ok bool, at time.Time) {
			raw.Markers = append(raw.Markers, markerSample{K: p.k, Measured: p.measured, OK: ok, LagMS: msOf(at.Sub(p.due))})
			s.tr.finish(p.span, at)
		}
		poll := func(kind, path string, into any) time.Time {
			start := time.Now()
			code, err := rc.get(path, into) // a failed poll shows as a marker that never resolves
			end := time.Now()
			raw.Polls = append(raw.Polls, opSample{Kind: kind, Measured: !start.Before(statAt[0]) && start.Before(statAt[1]),
				OK: err == nil && code == http.StatusOK, SocketMS: msOf(end.Sub(start))})
			s.tr.add(out[0].span, "marker.poll", out[0].req, start, end)
			return end
		}
		for {
			now := time.Now()
			if si < len(statAt) && !statAt[si].After(now) {
				if err := must(http.StatusOK)(rc.get("/v1/stats", &raw.Stats[si])); err != nil {
					statsErr = err
				}
				si++
				continue
			}
			for mi < len(marks) && !marks[mi].due.After(now) {
				if len(out) == 0 {
					nextPoll = now.Add(pollGap())
				}
				out = append(out, &marks[mi])
				mi++
			}
			for len(out) > 0 && now.Sub(out[0].due) > markerLimit {
				resolve(out[0], false, now)
				out = out[1:]
			}
			if ri < len(in.Reads) && !due(in.Reads[ri].AtUS).After(now) {
				r := &in.Reads[ri]
				ri++
				d := due(r.AtUS)
				code, err := rc.get(r.Path, nil)
				done := time.Now()
				raw.Reads = append(raw.Reads, opSample{Kind: r.Kind, Measured: measured(r.AtUS),
					OK: err == nil && code == http.StatusOK, LatMS: msOf(done.Sub(d)), SocketMS: msOf(done.Sub(now))})
				if measured(r.AtUS) {
					readLate = append(readLate, msOf(now.Sub(d)))
				}
				s.tr.add(phase, "read."+r.Kind, "", now, done)
				continue
			}
			if len(out) > 0 && !nextPoll.After(now) {
				nextPoll = now.Add(pollGap())
				if out[len(out)-1].edgeEpoch == 0 {
					var te struct {
						W     float64 `json:"w"`
						Epoch uint64  `json:"epoch"`
					}
					poll("poll.trust", trustPath, &te)
					for _, p := range out {
						if p.edgeEpoch == 0 && float64(p.k) <= te.W {
							p.edgeEpoch = te.Epoch
						}
					}
				}
				if out[0].edgeEpoch != 0 {
					var rep struct {
						Epoch uint64 `json:"epoch"`
					}
					at := poll("poll.reputation", repPath, &rep)
					for len(out) > 0 && out[0].edgeEpoch != 0 && out[0].edgeEpoch <= rep.Epoch {
						resolve(out[0], true, at)
						out = out[1:]
					}
				}
				continue
			}
			if ri == len(in.Reads) && mi == len(marks) && len(out) == 0 && si == len(statAt) {
				return
			}
			next := now.Add(time.Hour)
			if si < len(statAt) {
				next = statAt[si]
			}
			if ri < len(in.Reads) && due(in.Reads[ri].AtUS).Before(next) {
				next = due(in.Reads[ri].AtUS)
			}
			if mi < len(marks) && marks[mi].due.Before(next) {
				next = marks[mi].due
			}
			if len(out) > 0 && nextPoll.Before(next) {
				next = nextPoll
			}
			rsleep.until(next)
		}
	}()

	wg.Add(1)
	go func() { // server CPU at round boundaries, resident set throughout the measured phase
		defer wg.Done()
		bounds := rounds + 1
		if in.Bare {
			bounds++
		}
		prev := 0.0
		for r := 0; r < bounds; r++ {
			edge := t0.Add(warmup + time.Duration(r)*roundLen(in.Seconds))
			for r > 0 && r <= rounds && time.Until(edge) > rssEvery {
				time.Sleep(rssEvery)
				var now float64
				if now, raw.ServePeakMB, cpuErr = rssMB(pid); cpuErr != nil {
					return
				}
				raw.ServeRSSMB = append(raw.ServeRSSMB, now)
			}
			time.Sleep(time.Until(edge))
			var at float64
			if at, cpuErr = cpuSeconds(pid); cpuErr != nil {
				return
			}
			switch {
			case r > rounds:
				raw.BareCPUS = at - prev
			case r > 0:
				raw.RoundCPUS = append(raw.RoundCPUS, at-prev)
			}
			prev = at
		}
	}()

	wg.Wait()
	s.tr.finish(phase, time.Now())
	raw.LateMS = append(writeLate, readLate...)
	if cpuErr != nil {
		return cpuErr
	}
	return statsErr
}

// run executes the whole session: sweep, set-ups, warm-up and measured
// phase, output checks, shutdown.
func (s *session) run(corrupt bool) (*rawRun, error) {
	raw := new(rawRun)
	var err error
	if raw.Sweep, err = s.sweep(); err != nil {
		return nil, err
	}
	bodies, err := s.in.preloadBodies()
	if err != nil {
		return nil, err
	}
	var sv *serving
	for i := 0; i < s.setups; i++ {
		if sv != nil { // only the last set-up's server goes on to serve
			sv.wc.close()
			sv.rc.close()
			if err := sv.srv.terminate(); err != nil {
				return nil, err
			}
		}
		if sv, err = s.setup(bodies); err != nil {
			return nil, err
		}
		raw.SetupS = append(raw.SetupS, sv.setupS)
	}
	raw.BootMS, raw.BulkLoadS = sv.bootMS, sv.bulkLoadS
	defer sv.wc.close()
	defer sv.rc.close()
	if err := s.drive(sv, raw); err != nil {
		sv.srv.kill()
		return nil, err
	}
	checkErr := checkServing(sv.rc, s.in, raw.Accepted, corrupt)
	if err := sv.srv.terminate(); err != nil {
		return nil, err
	}
	if checkErr != nil {
		return raw, checkErr
	}
	return raw, checkSweep(s.w, filepath.Join(s.outDir, "csv"))
}
