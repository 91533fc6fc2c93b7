package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"collabnet/internal/serve"
)

// Stage 1 of 3: the instance generator. It turns (workload, seed, seconds)
// into everything the binaries will be fed — the preload graph, the write
// and marker schedule with pre-marshalled bodies, the read schedule, the
// sweep arguments — and saves it beside the run's other outputs. The same
// seed gives the same bytes, so a run is replayed by its seed, and the
// programs under test only ever see generated inputs.

type edge struct {
	F int     `json:"f"`
	T int     `json:"t"`
	W float64 `json:"w"`
}

// write is one scheduled POST /v1/events: a traffic batch, or (Marker > 0)
// the k-th visibility marker, a `set` of the reserved edge to weight k.
type write struct {
	AtUS       int64           `json:"at_us"` // due time, µs after the start of the warm-up
	Marker     int             `json:"marker,omitempty"`
	Structural bool            `json:"structural,omitempty"` // creates or deletes an edge
	Body       json.RawMessage `json:"body"`
}

// read is one scheduled GET on the second connection.
type read struct {
	AtUS int64  `json:"at_us"`
	Kind string `json:"kind"` // reputation | top | alloc | edges
	Path string `json:"path"`
}

type instance struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"` // length of the measured phase
	// Bare appends one more round of the workload's own traffic with no
	// markers in it: the traced run's measure of what the prober costs.
	Bare  bool `json:"bare,omitempty"`
	Peers int  `json:"peers"`
	// The reserved marker edge: its source appears nowhere else, so row
	// MarkerFrom holds this one edge and its weight never perturbs the vector.
	MarkerFrom int      `json:"marker_from"`
	MarkerTo   int      `json:"marker_to"`
	SweepArgs  []string `json:"sweep_args"`
	Preload    []edge   `json:"preload"`
	Writes     []write  `json:"writes"` // batches and markers merged in due order
	Reads      []read   `json:"reads"`
}

type ingestBody struct {
	Events []serve.Event `json:"events"`
}

// liveSet is the generator's model of which edges exist, with O(1) random
// pick, insert and delete — what keeps the churn schedule's nnz stationary.
type liveSet struct {
	pairs [][2]int32
	pos   map[uint64]int
}

func pairKey(f, t int) uint64 { return uint64(f)<<32 | uint64(t) }

func (s *liveSet) has(f, t int) bool { _, ok := s.pos[pairKey(f, t)]; return ok }

func (s *liveSet) add(f, t int) {
	s.pos[pairKey(f, t)] = len(s.pairs)
	s.pairs = append(s.pairs, [2]int32{int32(f), int32(t)})
}

func (s *liveSet) removeAt(i int) (f, t int) {
	p := s.pairs[i]
	last := s.pairs[len(s.pairs)-1]
	s.pairs[i] = last
	s.pos[pairKey(int(last[0]), int(last[1]))] = i
	s.pairs = s.pairs[:len(s.pairs)-1]
	delete(s.pos, pairKey(int(p[0]), int(p[1])))
	return int(p[0]), int(p[1])
}

// freshPair draws a pair that is not live. The marker source is never a
// source of generated traffic.
func (s *liveSet) freshPair(rng *rand.Rand, peers int) (f, t int) {
	for {
		f, t = rng.Intn(peers-1), rng.Intn(peers)
		if f != t && !s.has(f, t) {
			return f, t
		}
	}
}

// roundLen is the length of one round of a measured phase of the given length.
func roundLen(seconds int) time.Duration { return time.Duration(seconds) * time.Second / rounds }

// schedule returns due times (µs) for a stream of the given rate: the
// warm-up and then each of the given number of rounds is its own stratum
// holding rate × length arrivals placed uniformly at random — a Poisson
// process conditioned on its count, so every round carries the same
// scheduled work and no arrival stream has a period that can lock onto the
// refresh ticker. (The traffic rates give every round a whole number; the
// markers' third of an arrival is carried over, so one round holds one more.)
func schedule(rng *rand.Rand, rate float64, seconds, nRounds int) []int64 {
	var out []int64
	stratum := func(start, length time.Duration) {
		n := int(math.Round(rate*(start+length).Seconds())) - len(out)
		ts := make([]int64, n)
		for i := range ts {
			ts[i] = (start + time.Duration(rng.Int63n(int64(length)))).Microseconds()
		}
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
		out = append(out, ts...)
	}
	stratum(0, warmup)
	for r := 0; r < nRounds; r++ {
		stratum(warmup+time.Duration(r)*roundLen(seconds), roundLen(seconds))
	}
	return out
}

// generate makes the instance of (w, seed, seconds). Each input stream draws
// from its own generator, so the bare round adds to the end of an instance
// and changes nothing before it.
func generate(w workload, seed uint64, seconds int, bare bool) (*instance, error) {
	stream := func(i int64) *rand.Rand { return rand.New(rand.NewSource(int64(seed)<<3 | i)) }
	trafficRounds := rounds
	if bare {
		trafficRounds++
	}
	in := &instance{
		Workload: w.Name, Seed: seed, Seconds: seconds, Bare: bare, Peers: w.Peers,
		MarkerFrom: w.Peers - 1, MarkerTo: w.Peers - 2,
		SweepArgs: append([]string{"-workers", strconv.Itoa(simWorkers), "-seed", strconv.FormatUint(seed, 10)}, w.Sweep...),
	}
	rng := stream(0)
	live := &liveSet{pos: make(map[uint64]int, w.Edges)}
	in.Preload = make([]edge, w.Edges)
	for i := range in.Preload {
		f, t := live.freshPair(rng, w.Peers)
		live.add(f, t)
		in.Preload[i] = edge{F: f, T: t, W: 1 + 9*rng.Float64()}
	}

	rng = stream(1) // batch contents; every schedule draws from a stream of its own
	for _, at := range schedule(stream(2), w.BatchRate, seconds, trafficRounds) {
		ev := make([]serve.Event, 0, w.BatchSize)
		for len(ev) < w.BatchSize {
			switch {
			case !w.Churn:
				p := live.pairs[rng.Intn(len(live.pairs))]
				ev = append(ev, serve.Event{Type: serve.EventContrib, From: int(p[0]), To: int(p[1]), W: 0.5 + rng.Float64()})
			case len(ev)%2 == 0:
				f, t := live.freshPair(rng, w.Peers)
				live.add(f, t)
				ev = append(ev, serve.Event{Type: serve.EventTrust, From: f, To: t, W: 1 + 9*rng.Float64()})
			default:
				f, t := live.removeAt(rng.Intn(len(live.pairs)))
				ev = append(ev, serve.Event{Type: serve.EventTrust, From: f, To: t, Set: true})
			}
		}
		body, err := json.Marshal(ingestBody{ev})
		if err != nil {
			return nil, err
		}
		in.Writes = append(in.Writes, write{AtUS: at, Structural: w.Churn, Body: body})
	}
	for k, at := range schedule(stream(3), 1/markerGap.Seconds(), seconds, rounds) {
		body, err := json.Marshal(ingestBody{[]serve.Event{{
			Type: serve.EventTrust, From: in.MarkerFrom, To: in.MarkerTo, W: float64(k + 1), Set: true,
		}}})
		if err != nil {
			return nil, err
		}
		// The first marker creates the reserved edge; later ones overwrite it.
		in.Writes = append(in.Writes, write{AtUS: at, Marker: k + 1, Structural: k == 0, Body: body})
	}
	sort.SliceStable(in.Writes, func(a, b int) bool { return in.Writes[a].AtUS < in.Writes[b].AtUS })

	rng = stream(4) // read contents
	for _, at := range schedule(stream(5), w.ReadRate, seconds, trafficRounds) {
		in.Reads = append(in.Reads, genRead(rng, w.Peers, at))
	}
	return in, nil
}

// measuredEnd is where the measured phase ends, µs after the warm-up began.
func (in *instance) measuredEnd() int64 {
	return (warmup + time.Duration(in.Seconds)*time.Second).Microseconds()
}

// measured reports whether a due time lies in the measured phase: neither
// the warm-up nor the bare round reaches any metric.
func (in *instance) measured(us int64) bool {
	return us >= warmup.Microseconds() && us < in.measuredEnd()
}

// readKinds are the read plane's endpoints with the share of the read
// schedule each takes.
var readKinds = []struct {
	Kind  string
	Share float64
}{{"reputation", 0.60}, {"top", 0.15}, {"alloc", 0.15}, {"edges", 0.10}}

func genRead(rng *rand.Rand, peers int, at int64) read {
	var kind string
	u := rng.Float64()
	for _, k := range readKinds {
		kind = k.Kind
		if u -= k.Share; u < 0 {
			break
		}
	}
	return read{at, kind, readPath(rng, peers, kind)}
}

func readPath(rng *rand.Rand, peers int, kind string) string {
	peer := rng.Intn(peers)
	switch kind {
	case "top":
		return "/v1/top?k=100"
	case "alloc":
		ds := make([]string, 16)
		for i := range ds {
			ds[i] = strconv.Itoa(rng.Intn(peers))
		}
		return fmt.Sprintf("/v1/alloc?source=%d&d=%s", peer, strings.Join(ds, ","))
	case "edges":
		return fmt.Sprintf("/v1/peers/%d/edges", peer)
	default:
		return fmt.Sprintf("/v1/reputation/%d", peer)
	}
}

func (in *instance) save(path string) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// events decodes a scheduled write's body back into the events it carries —
// the single source the replay check and the in-process layer replay share
// with the bytes that went over the socket.
func (w *write) events() ([]serve.Event, error) {
	var b ingestBody
	if err := json.Unmarshal(w.Body, &b); err != nil {
		return nil, err
	}
	return b.Events, nil
}

// preloadBodies marshals the preload graph into bulk-load POST bodies.
func (in *instance) preloadBodies() ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo < len(in.Preload); lo += bulkBatch {
		hi := min(lo+bulkBatch, len(in.Preload))
		ev := make([]serve.Event, 0, hi-lo)
		for _, e := range in.Preload[lo:hi] {
			ev = append(ev, serve.Event{Type: serve.EventTrust, From: e.F, To: e.T, W: e.W})
		}
		body, err := json.Marshal(ingestBody{ev})
		if err != nil {
			return nil, err
		}
		out = append(out, body)
	}
	return out, nil
}
