package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"collabnet/internal/reputation"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {12.5, 12.5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(0..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("percentile interpolates: got %v, want 1.5", got)
	}
	// p95 needs 10 samples beyond it: 200 samples give exactly that.
	if supported(199, 95) || !supported(200, 95) {
		t.Errorf("supported(199,95)=%v supported(200,95)=%v, want false true", supported(199, 95), supported(200, 95))
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if _, err := pct("x", xs, 95); err == nil {
		t.Error("pct reported a p95 of 101 samples")
	}
	if _, err := pct("x", nil, 50); err == nil {
		t.Error("pct reported a median of no samples")
	}
	if v, err := pct("x", xs, 50); err != nil || v != 50 {
		t.Errorf("pct median = %v, %v", v, err)
	}
}

func TestRoundsCPUIsMedianScaled(t *testing.T) {
	// One disturbed round must not move the total.
	if got := roundsCPU([]float64{1, 5, 0.9}); got != 3 {
		t.Errorf("roundsCPU = %v, want 3 × the median 1", got)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "child", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "child", StartNS: 20, EndNS: 50}, // overlaps span 2: covered once
		{ID: 4, Parent: 3, Name: "leaf", StartNS: 25, EndNS: 45},
	}
	byName, outside := selfTimes(spans)
	if outside != 0 {
		t.Fatalf("outside = %d, want 0", outside)
	}
	want := map[string][2]float64{ // total, self in ns
		"parent": {100, 60}, "child": {50, 30}, "leaf": {20, 20},
	}
	for _, lt := range byName {
		w := want[lt.Name]
		if math.Abs(lt.TotalS*1e9-w[0]) > 1e-6 || math.Abs(lt.SelfS*1e9-w[1]) > 1e-6 {
			t.Errorf("%s: total %v self %v ns, want %v %v", lt.Name, lt.TotalS*1e9, lt.SelfS*1e9, w[0], w[1])
		}
	}
	spans = append(spans, span{ID: 5, Parent: 4, Name: "late", StartNS: 40, EndNS: 46})
	if _, outside := selfTimes(spans); outside != 1 {
		t.Errorf("a child ending after its parent: outside = %d, want 1", outside)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.reserve(0, "x", "", time.Now())
	tr.finish(id, time.Now())
	if id != 0 {
		t.Errorf("nil tracer handed out span id %d", id)
	}
}

// small is a churn workload cut down to unit-test size.
var small = workload{Name: "small", Sweep: []string{"-fig", "4"}, Peers: 300, Edges: 3000,
	Churn: true, BatchRate: 50, BatchSize: 32, ReadRate: 40}

func TestGeneratorDeterminism(t *testing.T) {
	marshal := func(seed uint64) []byte {
		in, err := generate(small, seed, 6, false)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, c := marshal(7), marshal(7), marshal(8)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different instance.json bytes")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical instances")
	}
}

// The bare round of a traced run adds to the end of the instance: what the
// timed run saw is unchanged, so the two runs are the same session.
func TestBareRoundOnlyAppends(t *testing.T) {
	plain, err := generate(small, 7, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := generate(small, 7, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range plain.Writes {
		if b := bare.Writes[i]; b.AtUS != w.AtUS || b.Marker != w.Marker || !bytes.Equal(b.Body, w.Body) {
			t.Fatalf("write %d differs between the plain and the bare instance", i)
		}
	}
	for i, r := range plain.Reads {
		if bare.Reads[i] != r {
			t.Fatalf("read %d differs between the plain and the bare instance", i)
		}
	}
	extra := bare.Writes[len(plain.Writes):]
	if want := 50 * 2; len(extra) != want { // 50 batches/s × one 2 s round
		t.Fatalf("the bare round carries %d writes, want %d", len(extra), want)
	}
	for _, w := range extra {
		if w.Marker > 0 || bare.measured(w.AtUS) {
			t.Fatalf("bare-round write at %d µs: marker %d, measured %v", w.AtUS, w.Marker, bare.measured(w.AtUS))
		}
	}
}

func TestScheduleStrata(t *testing.T) {
	in, err := generate(small, 3, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	perRound := make([]int, rounds)
	markers, prev := 0, int64(-1)
	for _, w := range in.Writes {
		if w.AtUS < prev {
			t.Fatal("writes are not in due order")
		}
		prev = w.AtUS
		if w.Marker > 0 {
			if markers++; w.Marker != markers {
				t.Fatalf("marker %d sent out of order (weight %d)", markers, w.Marker)
			}
			continue
		}
		if in.measured(w.AtUS) {
			perRound[(w.AtUS-warmup.Microseconds())/roundLen(6).Microseconds()]++
		}
	}
	for r, n := range perRound {
		if n != 100 { // 50 batches/s × 2 s rounds
			t.Errorf("round %d carries %d batches, want 100: rounds must hold identical scheduled work", r, n)
		}
	}
	if want := int(math.Round((warmup.Seconds() + 6) / markerGap.Seconds())); markers != want {
		t.Errorf("%d markers, want %d", markers, want)
	}
}

func TestChurnKeepsNNZStationary(t *testing.T) {
	in, err := generate(small, 5, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	g, err := reputation.NewLogGraph(in.Peers)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range in.Preload {
		if e.F == in.MarkerFrom {
			t.Fatal("the marker source carries preload traffic")
		}
		if err := g.AddTrust(e.F, e.T, e.W); err != nil {
			t.Fatal(err)
		}
	}
	g.Compact()
	if g.NNZ() != small.Edges {
		t.Fatalf("preload has %d distinct edges, want %d", g.NNZ(), small.Edges)
	}
	for i := range in.Writes {
		w := &in.Writes[i]
		if w.Marker > 0 {
			continue
		}
		evs, err := w.events()
		if err != nil {
			t.Fatal(err)
		}
		if err := applyAll(g, evs); err != nil {
			t.Fatal(err)
		}
		g.Compact()
		if g.NNZ() != small.Edges {
			t.Fatalf("after batch %d the graph has %d edges, want %d: every create must pair with a live delete", i, g.NNZ(), small.Edges)
		}
	}
}

func TestCompareEdgesIsBitExact(t *testing.T) {
	want := []reputation.Edge{{From: 0, To: 1, W: 0.1}, {From: 2, To: 3, W: 1.5}}
	got := append([]reputation.Edge(nil), want...)
	if err := compareEdges(got, want); err != nil {
		t.Fatal(err)
	}
	want[1].W = math.Nextafter(want[1].W, 2)
	if compareEdges(got, want) == nil {
		t.Error("an expectation off by one ulp passed the replay check")
	}
	if compareEdges(got[:1], want) == nil {
		t.Error("a missing edge passed the replay check")
	}
}

func TestCheckTable(t *testing.T) {
	w := workload{Fig4: true, SweepSeries: 2, SweepRows: 3}
	good := [][]string{{"x", "altruistic", "irrational"}, {"10", "0.2", "0.6"}, {"20", "0.3", "0.5"}, {"30", "0.4", "0.4"}}
	if err := checkTable(w, good); err != nil {
		t.Fatal(err)
	}
	mutate := func(r, c int, v string) [][]string {
		out := make([][]string, len(good))
		for i := range good {
			out[i] = append([]string(nil), good[i]...)
		}
		out[r][c] = v
		return out
	}
	for name, rows := range map[string][][]string{
		"altruistic falls":  mutate(2, 1, "0.1"),
		"irrational rises":  mutate(3, 2, "0.55"),
		"share above one":   mutate(1, 2, "1.2"),
		"not a number":      mutate(1, 1, "n/a"),
		"a point is absent": good[:3],
		"series renamed":    mutate(0, 1, "rational"),
	} {
		if checkTable(w, rows) == nil {
			t.Errorf("%s: the CSV check passed", name)
		}
	}
}
