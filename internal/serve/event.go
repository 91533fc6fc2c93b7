package serve

import "fmt"

// Event types accepted by the ingest plane.
const (
	// EventTrust is an explicit trust statement: From asserts local trust W
	// in To (accumulating, or overwriting when Set).
	EventTrust = "trust"
	// EventContrib is a contribution receipt: downloader From received W
	// units of delivered bandwidth from source To. It accumulates onto
	// From's local trust in To — EigenTrust's sat(i,j) counter, the same
	// mapping incentive.GlobalTrust.RecordTransfer applies.
	EventContrib = "contrib"
)

// maxEventWeight is the largest W one event may carry. The store
// accumulates weights in float64; without a ceiling two acknowledged 1e308
// statements on one edge sum to +Inf, row normalization stores Inf/Inf =
// NaN, and the served vector goes NaN. At 1e12 per statement an edge needs
// more than 1e296 acknowledged statements to overflow, while every
// realistic weight (bandwidth units, trust scores) sits far below it.
const maxEventWeight = 1e12

// Event is one ingested statement. Its source peer — the author whose
// statement order must be preserved — is always From.
type Event struct {
	Type string  `json:"type"`
	From int     `json:"from"`
	To   int     `json:"to"`
	W    float64 `json:"w"`
	// Set selects overwrite semantics for trust events (zero deletes the
	// edge); ignored for contributions.
	Set bool `json:"set,omitempty"`
}

// validate reports the first reason e cannot be admitted to an n-peer
// store. Range, sign and magnitude errors are rejected at admission (400)
// rather than silently dropped at apply time, so an acknowledged event is
// always a state-changing one that leaves the store finite.
func (e Event) validate(n int) error {
	if e.Type != EventTrust && e.Type != EventContrib {
		return fmt.Errorf("unknown event type %q", e.Type)
	}
	if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
		return fmt.Errorf("edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
	}
	if e.From == e.To {
		return fmt.Errorf("self-edge (%d,%d)", e.From, e.To)
	}
	switch {
	case e.Type == EventContrib && e.W <= 0:
		return fmt.Errorf("contribution amount must be > 0, got %v", e.W)
	case e.Type == EventTrust && !e.Set && e.W <= 0:
		return fmt.Errorf("accumulated trust must be > 0, got %v", e.W)
	case e.Type == EventTrust && e.Set && e.W < 0:
		return fmt.Errorf("overwritten trust must be >= 0, got %v", e.W)
	case !(e.W <= maxEventWeight): // also refuses NaN
		return fmt.Errorf("weight must be <= %g, got %v", float64(maxEventWeight), e.W)
	}
	return nil
}
