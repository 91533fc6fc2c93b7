package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// canonicalBody marshals n valid events over the given peer space the way
// every client in the repo does: json.Marshal of the wire struct.
func canonicalBody(tb testing.TB, n, peers int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	ev := make([]Event, n)
	for i := range ev {
		from := rng.Intn(peers)
		ev[i] = Event{Type: EventContrib, From: from, To: (from + 1 + rng.Intn(peers-1)) % peers, W: 0.5 + rng.Float64()}
		switch i % 4 {
		case 1:
			ev[i].Type, ev[i].W = EventTrust, 1+9*rng.Float64()
		case 2:
			ev[i].Type, ev[i].W, ev[i].Set = EventTrust, 0, true
		}
	}
	body, err := json.Marshal(ingestRequest{Events: ev})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// jsonEvents is the reference decode: exactly what handleIngest's fallback
// runs on a body that was read without error.
func jsonEvents(body []byte) ([]Event, error) {
	var req ingestRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Events, err
}

// FuzzScanEvents is the differential that lets the scanner sit in front of
// encoding/json: whenever it accepts a body, encoding/json accepts it too
// and decodes the same events, weights compared by bit pattern. The scratch
// slice starts dirty, as a pooled one does.
func FuzzScanEvents(f *testing.F) {
	f.Add(canonicalBody(f, 7, 16))
	for _, seed := range []string{
		`{"events":[]}`,
		`{"events":[{}]}`,
		` { "events" : [ { "set" : true , "w" : 2.5e-3 , "to" : 1 , "from" : 0 , "type" : "trust" } ] } `,
		`{"events":[{"type":"trust","from":0,"to":1,"w":-0.0,"set":false}]}`,
		`{"events":[{"type":"trust","from":0,"to":1,"w":1e999}]}`,
		`{"events":[{"type":"trust","from":01,"to":1,"w":1}]}`,
		`{"events":[{"type":"trust","from":1.0,"to":1,"w":1}]}`,
		`{"events":[{"type":"trust","from":1234567890123456789,"to":999999999999999999,"w":1}]}`,
		`{"events":[{"ty\u0070e":"trust","from":0,"to":1,"w":1}]}`,
		`{"events":[{"Type":"trust","from":0,"to":1,"w":1}]}`,
		`{"events":[{"type":"trust","from":0,"to":1,"w":1,"w":2}]}`,
		`{"events":[{"type":"trust","from":0,"to":1,"w":null}]}`,
		`{"events":[{"type":"trust","from":0,"to":1,"w":1}]}x`,
		`{"events":[{"type":"gossip","from":-1,"to":1,"w":1E+2}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dirty := []Event{{Type: "stale", From: -7, To: -7, W: math.NaN(), Set: true}}
		got, ok := scanEvents(body, dirty[:0], 1<<20)
		if !ok {
			return
		}
		want, err := jsonEvents(body)
		if err != nil {
			t.Fatalf("scanner accepted %q, encoding/json refuses it: %v", body, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: scanner decoded %d events, encoding/json %d", body, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Type != w.Type || g.From != w.From || g.To != w.To || g.Set != w.Set ||
				math.Float64bits(g.W) != math.Float64bits(w.W) {
				t.Fatalf("%q: event %d: scanner %+v, encoding/json %+v", body, i, g, w)
			}
		}
	})
}

// TestScanEventsTakesTheCanonicalForm pins the other direction for the
// bodies that matter: what json.Marshal writes is scanned, not declined,
// up to the batch cap and not beyond it.
func TestScanEventsTakesTheCanonicalForm(t *testing.T) {
	body := canonicalBody(t, 64, 16)
	got, ok := scanEvents(body, nil, 64)
	if !ok || len(got) != 64 {
		t.Fatalf("canonical 64-event body: ok=%v, %d events", ok, len(got))
	}
	if _, ok := scanEvents(body, got, 63); ok {
		t.Fatal("a body over the cap must be declined so that encoding/json words the 413")
	}
	if got, ok := scanEvents([]byte(" {\"events\":[\t]\r\n} "), nil, 64); !ok || len(got) != 0 {
		t.Fatalf("empty batch: ok=%v, %d events", ok, len(got))
	}
}

// TestIngestNonCanonical sends one body of every class the scanner declines
// and requires the status and body the handler gave when encoding/json was
// its only decoder (recorded from the parent commit).
func TestIngestNonCanonical(t *testing.T) {
	s, err := New(Config{Peers: 8, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	const ok = `{"accepted":1}`
	malformed := func(msg string) string { return `{"error":"malformed ingest payload: ` + msg + `"}` }
	event := func(fields string) string { return `{"events":[{` + fields + `}]}` }
	cases := []struct {
		name, body string
		code       int
		want       string
	}{
		{"trailing bytes", event(`"type":"trust","from":0,"to":1,"w":1`) + ` x`, 202, ok},
		{"second value", event(`"type":"trust","from":0,"to":1,"w":1`) + `{"events":[]}`, 202, ok},
		{"escaped key", event(`"ty\u0070e":"trust","from":0,"to":1,"w":1`), 202, ok},
		{"escaped value", event(`"type":"tr\u0075st","from":0,"to":1,"w":1`), 202, ok},
		{"upper-case key", event(`"Type":"trust","from":0,"to":1,"w":1`), 202, ok},
		{"upper-case envelope", `{"EVENTS":[{"type":"trust","from":0,"to":1,"w":1}]}`, 202, ok},
		{"unknown key", event(`"type":"trust","from":0,"to":1,"w":1,"note":"x"`), 202, ok},
		{"duplicate key", event(`"type":"trust","from":0,"to":1,"w":1,"w":2`), 202, ok},
		{"duplicate envelope", `{"events":[{"type":"trust","from":0,"to":1,"w":1}],"events":[]}`, 400, `{"error":"empty event batch"}`},
		{"null weight", event(`"type":"trust","from":0,"to":1,"w":null`), 400, `{"error":"event 0: accumulated trust must be \u003e 0, got 0"}`},
		{"null events", `{"events":null}`, 400, `{"error":"empty event batch"}`},
		{"no events", `{}`, 400, `{"error":"empty event batch"}`},
		{"signed zero peer", event(`"type":"trust","from":-0,"to":2,"w":1`), 202, ok},
		{"fraction in integer", event(`"type":"trust","from":1.0,"to":2,"w":1`), 400,
			malformed(`json: cannot unmarshal number 1.0 into Go struct field Event.events.from of type int`)},
		{"exponent in integer", event(`"type":"trust","from":1e0,"to":2,"w":1`), 400,
			malformed(`json: cannot unmarshal number 1e0 into Go struct field Event.events.from of type int`)},
		{"leading zero", event(`"type":"trust","from":01,"to":2,"w":1`), 400,
			malformed(`invalid character '1' after object key:value pair`)},
		{"19 digits", event(`"type":"trust","from":1234567890123456789,"to":2,"w":1`), 400,
			`{"error":"event 0: edge (1234567890123456789,2) out of range [0,8)"}`},
		{"20 digits", event(`"type":"trust","from":12345678901234567890,"to":2,"w":1`), 400,
			malformed(`json: cannot unmarshal number 12345678901234567890 into Go struct field Event.events.from of type int`)},
		{"weight out of range", event(`"type":"trust","from":0,"to":1,"w":1e999`), 400,
			malformed(`json: cannot unmarshal number 1e999 into Go struct field Event.events.w of type float64`)},
		{"string weight", event(`"type":"trust","from":0,"to":1,"w":"1"`), 400,
			malformed(`json: cannot unmarshal string into Go struct field Event.events.w of type float64`)},
		{"trailing comma", `{"events":[{"type":"trust","from":0,"to":1,"w":1},]}`, 400,
			malformed(`invalid character ']' looking for beginning of value`)},
		{"empty body", ``, 400, malformed(`EOF`)},
		// Canonical, so scanned; the verdicts after the decode are shared.
		{"empty event", `{"events":[{}]}`, 400, `{"error":"event 0: unknown event type \"\""}`},
		{"negative zero weight", event(`"type":"trust","from":0,"to":1,"w":-0.0,"set":true`), 202, ok},
		// A value that ends inside the cap decodes although the body runs
		// past it; one that does not gets net/http's error through the
		// decoder, as before.
		{"oversize after the value", event(`"type":"trust","from":0,"to":1,"w":1`) + strings.Repeat(" ", maxBodyBytes), 202, ok},
		{"oversize", `{"events":[` + strings.Repeat(" ", maxBodyBytes) + `]}`, 400, malformed(`http: request body too large`)},
	}
	for _, tc := range cases {
		rec := call(s.Handler(), "POST", "/v1/events", tc.body)
		if got := strings.TrimSpace(rec.Body.String()); rec.Code != tc.code || got != tc.want {
			t.Errorf("%s: %d %s, want %d %s", tc.name, rec.Code, got, tc.code, tc.want)
		}
	}
}

// TestIngestAllocs is the exact-count guard on the write path: a canonical
// 32-event batch spread over 8 shards costs the handler at most three
// allocations more than /healthz costs it in the same harness (with
// encoding/json as the decoder it was 74 more). The solve plane is not
// started, so no publish allocates into the count; the ingest shards'
// amortized growth stays under one allocation per run.
func TestIngestAllocs(t *testing.T) {
	const runs = 200
	s, err := New(Config{Peers: 64, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := canonicalBody(t, 32, 64)
	serve := func(method, path string, want int) func() {
		return func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			if rec.Code != want {
				t.Fatalf("%s %s: status %d, want %d", method, path, rec.Code, want)
			}
		}
	}
	base := testing.AllocsPerRun(runs, serve("GET", "/healthz", http.StatusOK))
	ingest := testing.AllocsPerRun(runs, serve("POST", "/v1/events", http.StatusAccepted))
	t.Logf("allocations per request: ingest %.0f, /healthz %.0f", ingest, base)
	if ingest > base+3 {
		t.Fatalf("ingest of a canonical batch: %.0f allocations, /healthz %.0f, budget +3", ingest, base)
	}
}

var decodeSink []Event

// BenchmarkIngestDecode is the decode step alone on a bulk-load-sized body,
// scanner against encoding/json, so the MB/s behind the set-up time can be
// re-measured without a benchmark session.
func BenchmarkIngestDecode(b *testing.B) {
	body := canonicalBody(b, DefaultMaxBatch, 20000)
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		var scratch []Event
		for i := 0; i < b.N; i++ {
			var ok bool
			if scratch, ok = scanEvents(body, scratch, DefaultMaxBatch); !ok {
				b.Fatal("canonical body declined")
			}
		}
		decodeSink = scratch
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev, err := jsonEvents(body)
			if err != nil {
				b.Fatal(err)
			}
			decodeSink = ev
		}
	})
}
