package serve

import "strconv"

// scanEvents is the ingest fast path: one pass over a request body that
// recognises exactly the canonical wire form of an ingest request —
//
//	{"events":[{"type":"trust","from":1,"to":2,"w":0.5,"set":true},…]}
//
// with the five lower-case event keys in any order, each at most once,
// "trust" or "contrib" for the type, plain decimal integers without a sign
// for from/to, a JSON number for w (converted by strconv.ParseFloat, the
// call encoding/json makes, so weights are bit-identical), true/false for
// set, and JSON whitespace between tokens. Events are appended to dst[:0]
// with no reflection and no per-value allocation.
//
// It has no error of its own. On anything else — an escape, an upper-case,
// unknown or duplicate key, null, a sign, fraction or exponent in an
// integer field, a weight ParseFloat refuses, more than max events, bytes
// after the closing brace — it declines (ok false) and the caller decodes
// the same bytes with encoding/json, which therefore still defines the
// accepted language and every error message. FuzzScanEvents pins that an
// accepted body decodes to the same events there. The returned slice is
// dst, possibly grown, whether or not the scan was accepted.
func scanEvents(body []byte, dst []Event, max int) (events []Event, ok bool) {
	s := eventScanner{b: body}
	dst = dst[:0]
	if !(s.tok('{') && s.tok('"') && s.lit(`events"`) && s.tok(':') && s.tok('[')) {
		return dst, false
	}
	if !s.tok(']') {
		for {
			var e Event
			if len(dst) == max || !s.event(&e) {
				return dst, false
			}
			dst = append(dst, e)
			if s.tok(']') {
				break
			}
			if !s.tok(',') {
				return dst, false
			}
		}
	}
	if !s.tok('}') {
		return dst, false
	}
	s.space()
	return dst, s.i == len(s.b)
}

// eventScanner is a cursor over one request body.
type eventScanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *eventScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// tok skips whitespace and consumes c if it is the next byte.
func (s *eventScanner) tok(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// lit consumes l if the input continues with exactly those bytes.
func (s *eventScanner) lit(l string) bool {
	if len(s.b)-s.i >= len(l) && string(s.b[s.i:s.i+len(l)]) == l {
		s.i += len(l)
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (s *eventScanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		s.i++
	}
	return s.i - start
}

// Bits of eventScanner.event's seen set, one per event key.
const (
	keyType = 1 << iota
	keyFrom
	keyTo
	keyW
	keySet
)

// event scans one {…} event object into e, which must be zero.
func (s *eventScanner) event(e *Event) bool {
	if !s.tok('{') {
		return false
	}
	if s.tok('}') {
		return true
	}
	seen := 0
	for {
		if !s.tok('"') {
			return false
		}
		var key int
		switch {
		case s.lit(`type"`):
			key = keyType
		case s.lit(`from"`):
			key = keyFrom
		case s.lit(`to"`):
			key = keyTo
		case s.lit(`w"`):
			key = keyW
		case s.lit(`set"`):
			key = keySet
		default:
			return false
		}
		if seen&key != 0 || !s.tok(':') {
			return false
		}
		seen |= key
		s.space()
		valid := false
		switch key {
		case keyType:
			switch {
			case s.lit(`"trust"`):
				e.Type, valid = EventTrust, true
			case s.lit(`"contrib"`):
				e.Type, valid = EventContrib, true
			}
		case keyFrom:
			e.From, valid = s.integer()
		case keyTo:
			e.To, valid = s.integer()
		case keyW:
			e.W, valid = s.number()
		case keySet:
			switch {
			case s.lit("true"):
				e.Set, valid = true, true
			case s.lit("false"):
				valid = true
			}
		}
		if !valid {
			return false
		}
		if s.tok('}') {
			return true
		}
		if !s.tok(',') {
			return false
		}
	}
}

// integer scans 0 or a digit run without a leading zero, of at most 18
// digits so that it cannot overflow; whatever follows the digits is the
// caller's to reject.
func (s *eventScanner) integer() (int, bool) {
	start := s.i
	n := s.digits()
	if n == 0 || n > 18 || (n > 1 && s.b[start] == '0') {
		return 0, false
	}
	v := int64(0)
	for _, c := range s.b[start:s.i] {
		v = v*10 + int64(c-'0')
	}
	return int(v), int64(int(v)) == v
}

// number scans one token of the JSON number grammar and converts it the
// way encoding/json does; a range error there is one here.
func (s *eventScanner) number() (float64, bool) {
	start := s.i
	s.lit("-")
	if n := s.digits(); n == 0 || (n > 1 && s.b[s.i-n] == '0') {
		return 0, false
	}
	if s.lit(".") && s.digits() == 0 {
		return 0, false
	}
	if s.lit("e") || s.lit("E") {
		if !s.lit("+") {
			s.lit("-")
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}
