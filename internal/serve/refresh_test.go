package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"collabnet/internal/incentive"
	"collabnet/internal/reputation"
)

// TestPacedNextRefresh checks the pacing rule against a table.
func TestPacedNextRefresh(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)
	ms := func(n float64) time.Time { return t0.Add(time.Duration(n * float64(time.Millisecond))) }
	const ceiling = 50 * time.Millisecond
	cases := []struct {
		name         string
		start, end   time.Time
		backlog      bool
		want         time.Time
		wantsCeiling bool
	}{
		{"gap binds: a 3 ms refresh rests 9 ms", t0, ms(3), false, ms(12), false},
		{"ceiling binds: a 20 ms refresh would rest 60 ms", t0, ms(20), false, ms(50), true},
		{"gap meets ceiling exactly", t0, ms(12.5), false, ms(50), true},
		{"zero wall time: due as it ended", t0, t0, false, t0, false},
		{"a refresh that overran the ceiling is due at once", t0, ms(70), false, ms(50), true},
		{"backlog waits for the ceiling", t0, ms(3), true, ms(50), true},
		{"backlog after a zero-time refresh", t0, t0, true, ms(50), true},
	}
	for _, c := range cases {
		got := nextRefresh(c.start, c.end, ceiling, c.backlog)
		if !got.Equal(c.want) {
			t.Errorf("%s: next refresh at +%v, want +%v", c.name, got.Sub(t0), c.want.Sub(t0))
		}
		if atCeiling := got.Equal(c.start.Add(ceiling)); atCeiling != c.wantsCeiling {
			t.Errorf("%s: at ceiling %v, want %v", c.name, atCeiling, c.wantsCeiling)
		}
		if got.After(c.start.Add(ceiling)) {
			t.Errorf("%s: +%v is past the ceiling", c.name, got.Sub(t0))
		}
	}
}

// TestPacedVisibleWithoutForcedRefresh posts one event to a server whose
// ceiling is an hour and never forces a solve or a flush: the admission
// alone must get the event into the served vector, the reputation epoch
// reaching the first epoch that holds the edge, within two seconds.
func TestPacedVisibleWithoutForcedRefresh(t *testing.T) {
	_, ts := newTestServer(t, Config{Peers: 8, Refresh: time.Hour})
	resp := postJSON(t, ts.URL+"/v1/events", `{"events":[{"type":"contrib","from":0,"to":3,"w":2}]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		var edge trustEdgeResponse
		var rep reputationResponse
		get("/v1/trust?from=0&to=3", &edge)
		get("/v1/reputation/3", &rep)
		if edge.W == 2 && rep.Epoch >= edge.Epoch {
			if rep.Trust <= 1.0/8 {
				t.Fatalf("peer 3 holds the only edge but reads %v ≤ uniform", rep.Trust)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("event not visible after 2 s: edge %+v, reputation %+v", edge, rep)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPacedIdleServerSleeps pins that an idle server arms nothing: across
// five ceilings neither the refresh counters nor the epochs move, on a
// fresh server and on one that has just solved its only write.
func TestPacedIdleServerSleeps(t *testing.T) {
	const ceiling = 10 * time.Millisecond
	_, ts := newTestServer(t, Config{Peers: 8, Refresh: ceiling})
	still := func(when string) {
		t.Helper()
		before := getStats(t, ts.URL)
		time.Sleep(5 * ceiling)
		after := getStats(t, ts.URL)
		if after.Refreshes != before.Refreshes || after.SkippedSolves != before.SkippedSolves ||
			after.Epoch != before.Epoch || after.TrustEpoch != before.TrustEpoch {
			t.Fatalf("idle %s: refreshes %d→%d, skipped %d→%d, epoch %d→%d, trust epoch %d→%d", when,
				before.Refreshes, after.Refreshes, before.SkippedSolves, after.SkippedSolves,
				before.Epoch, after.Epoch, before.TrustEpoch, after.TrustEpoch)
		}
	}
	still("from boot")
	resp := postJSON(t, ts.URL+"/v1/events", `{"events":[{"type":"trust","from":0,"to":1,"w":5}]}`)
	resp.Body.Close()
	waitStats(t, ts.URL, solvedAll)
	still("after a solved write")
}

// TestPacedScheduleInvariance feeds two servers the same events on two
// schedules — a pause after every batch, so the solve plane wakes between
// them, and back to back, so admissions pile onto armed refreshes and past
// a small watermark. Left to the solve plane alone (no forced refresh or
// flush), both must end bit-identical in /v1/edges, and each served vector
// must sit within the warm-start bound 2ε/a of a cold solve over the edges.
func TestPacedScheduleInvariance(t *testing.T) {
	const (
		peers   = 48
		batches = 40
		batchSz = 8
	)
	rng := rand.New(rand.NewSource(5))
	log := make([][]Event, batches)
	for b := range log {
		for len(log[b]) < batchSz {
			from, to := rng.Intn(peers), rng.Intn(peers)
			if from == to {
				continue
			}
			e := Event{Type: EventContrib, From: from, To: to, W: 0.1 + rng.Float64()*9}
			if rng.Intn(5) == 0 {
				e.Type, e.Set = EventTrust, rng.Intn(2) == 0
			}
			log[b] = append(log[b], e)
		}
	}
	tcfg := incentive.DefaultGlobalTrustConfig().Trust
	run := func(pause time.Duration) []edgeJSON {
		_, ts := newTestServer(t, Config{Peers: peers, Shards: 4, Watermark: 32, Refresh: 20 * time.Millisecond})
		client := &http.Client{}
		for _, ev := range log {
			admitted, err := postBatch(client, ts.URL, ev)
			if err != nil || !admitted {
				t.Fatalf("batch not admitted: %v", err)
			}
			time.Sleep(pause)
		}
		waitStats(t, ts.URL, solvedAll)
		resp, err := http.Get(ts.URL + "/v1/edges")
		if err != nil {
			t.Fatal(err)
		}
		edges := decodeBody[edgesResponse](t, resp).Edges
		resp, err = http.Get(ts.URL + fmt.Sprintf("/v1/top?k=%d", peers))
		if err != nil {
			t.Fatal(err)
		}
		top := decodeBody[topResponse](t, resp)

		ref, err := reputation.NewLogGraph(peers)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			if err := ref.SetTrust(e.From, e.To, e.W); err != nil {
				t.Fatal(err)
			}
		}
		cold, err := reputation.EigenTrust(ref, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		l1 := 0.0
		for _, pt := range top.Top {
			l1 += math.Abs(pt.Trust - cold[pt.Peer])
		}
		if bound := 2 * tcfg.Epsilon / tcfg.Damping; len(top.Top) != peers || l1 > bound {
			t.Fatalf("pause %v: served vector (%d components) is %.3g from a cold solve in L1, bound %.3g",
				pause, len(top.Top), l1, bound)
		}
		return edges
	}
	paced, burst := run(3*time.Millisecond), run(0)
	if len(paced) != len(burst) || len(paced) == 0 {
		t.Fatalf("edge counts: paced %d, back to back %d", len(paced), len(burst))
	}
	for i := range paced {
		if paced[i] != burst[i] {
			t.Fatalf("edge %d: paced %+v, back to back %+v", i, paced[i], burst[i])
		}
	}
}
