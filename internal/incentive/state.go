// Scheme state snapshots for the engine's checkpoint/warm-start subsystem.
//
// Every scheme implements Snapshotter over one shared State container. The
// container is a kind-tagged union of per-scheme sections; SaveState fills
// the section for the scheme's kind and LoadState refuses a container whose
// Kind does not match (ErrStateKind), which the engine maps to "start this
// scheme fresh" when a warm-start chain crosses scheme kinds. All sections
// reuse their slices across saves, and loading a state whose shape the
// scheme has already seen allocates nothing (map-backed schemes re-insert
// into retained buckets).
package incentive

import (
	"errors"
	"fmt"

	"collabnet/internal/core"
	"collabnet/internal/reputation"
)

// ErrStateKind reports that a State was saved by a different scheme kind
// than the one asked to load it.
var ErrStateKind = errors.New("incentive: state kind mismatch")

// Snapshotter is implemented by every scheme: full mutable state out into a
// reusable container, and back in.
type Snapshotter interface {
	// SaveState writes the scheme's complete mutable state into dst,
	// reusing dst's buffers, and tags dst.Kind.
	SaveState(dst *State)
	// LoadState overwrites the scheme's state from src. It returns a
	// wrapped ErrStateKind when src was saved by a different scheme kind,
	// and an error when the peer counts disagree.
	LoadState(src *State) error
}

// State is the reusable scheme-state container. Only the section matching
// Kind is meaningful; the others keep whatever buffers earlier saves left,
// ready for reuse.
type State struct {
	Kind Kind

	Reputation  ReputationState
	Karma       KarmaState
	TitForTat   TitForTatState
	GlobalTrust GlobalTrustState
	FlowTrust   FlowTrustState
}

// ReputationState is the mutable state of the paper's Reputation scheme (and
// of the None baseline, which wraps one): every peer's ledger plus the
// per-step accumulators.
type ReputationState struct {
	Ledgers       []core.LedgerState
	ShareArticles []float64
	ShareBW       []float64
	SuccVotes     []int
	AccEdits      []int
}

// KarmaState is the mutable state of the Karma scheme.
type KarmaState struct {
	Balances []float64
}

// TitForTatState is the mutable state of the TitForTat scheme. The pairwise
// given-bandwidth matrix is stored as an edge list in ascending (From, To)
// order: From uploaded W to To.
type TitForTatState struct {
	Given     []reputation.Edge
	ShareArts []float64
	ShareBW   []float64
	Uploaded  []float64
}

// GlobalTrustState is the mutable state of the EigenTrust-backed scheme: the
// local-trust edge-log graph in its canonical compacted form (ascending
// (From, To) edge list — the log tail is folded in by the save) plus the
// cached trust vector and refresh bookkeeping. The CSR workspace is derived
// state and rebuilds itself from the graph on the next refresh.
type GlobalTrustState struct {
	Edges        []reputation.Edge
	Trust        []float64
	Score        []float64
	Dirty        bool
	SinceRefresh int
}

// FlowTrustState is the mutable state of the max-flow trust scheme: the
// same canonical edge-list form as GlobalTrustState (the flow network is
// derived state, rebuilt at the next refresh).
type FlowTrustState struct {
	Edges        []reputation.Edge
	Trust        []float64
	Score        []float64
	Dirty        bool
	SinceRefresh int
}

func checkKind(src *State, want Kind) error {
	if src == nil {
		return fmt.Errorf("incentive: LoadState(nil)")
	}
	if src.Kind != want {
		return fmt.Errorf("%w: state is %s, scheme is %s", ErrStateKind, src.Kind, want)
	}
	return nil
}

// --- Reputation ---

// SaveState implements Snapshotter.
func (r *Reputation) SaveState(dst *State) {
	dst.Kind = KindReputation
	r.saveInto(&dst.Reputation)
}

// LoadState implements Snapshotter.
func (r *Reputation) LoadState(src *State) error {
	if err := checkKind(src, KindReputation); err != nil {
		return err
	}
	return r.loadFrom(&src.Reputation)
}

func (r *Reputation) saveInto(dst *ReputationState) {
	dst.Ledgers = r.book.SaveState(dst.Ledgers)
	dst.ShareArticles = append(dst.ShareArticles[:0], r.shareArticles...)
	dst.ShareBW = append(dst.ShareBW[:0], r.shareBW...)
	dst.SuccVotes = append(dst.SuccVotes[:0], r.succVotes...)
	dst.AccEdits = append(dst.AccEdits[:0], r.accEdits...)
}

func (r *Reputation) loadFrom(src *ReputationState) error {
	n := r.book.Len()
	if len(src.ShareArticles) != n || len(src.ShareBW) != n ||
		len(src.SuccVotes) != n || len(src.AccEdits) != n {
		return fmt.Errorf("incentive: reputation state sized for %d peers, scheme has %d",
			len(src.ShareArticles), n)
	}
	if err := r.book.LoadState(src.Ledgers); err != nil {
		return err
	}
	copy(r.shareArticles, src.ShareArticles)
	copy(r.shareBW, src.ShareBW)
	copy(r.succVotes, src.SuccVotes)
	copy(r.accEdits, src.AccEdits)
	return nil
}

// --- None ---

// SaveState implements Snapshotter: the baseline's observable reputations
// live in the wrapped Reputation scheme.
func (n *None) SaveState(dst *State) {
	dst.Kind = KindNone
	n.rep.saveInto(&dst.Reputation)
}

// LoadState implements Snapshotter.
func (n *None) LoadState(src *State) error {
	if err := checkKind(src, KindNone); err != nil {
		return err
	}
	return n.rep.loadFrom(&src.Reputation)
}

// --- Karma ---

// SaveState implements Snapshotter.
func (k *Karma) SaveState(dst *State) {
	dst.Kind = KindKarma
	dst.Karma.Balances = append(dst.Karma.Balances[:0], k.balances...)
}

// LoadState implements Snapshotter.
func (k *Karma) LoadState(src *State) error {
	if err := checkKind(src, KindKarma); err != nil {
		return err
	}
	if len(src.Karma.Balances) != len(k.balances) {
		return fmt.Errorf("incentive: karma state has %d balances, scheme has %d",
			len(src.Karma.Balances), len(k.balances))
	}
	copy(k.balances, src.Karma.Balances)
	return nil
}

// --- TitForTat ---

// SaveState implements Snapshotter.
func (t *TitForTat) SaveState(dst *State) {
	dst.Kind = KindTitForTat
	ts := &dst.TitForTat
	ts.Given = ts.Given[:0]
	var cols []int
	for from, row := range t.given {
		if len(row) == 0 {
			continue
		}
		cols = cols[:0]
		for to := range row {
			cols = append(cols, to)
		}
		sortInts(cols)
		for _, to := range cols {
			ts.Given = append(ts.Given, reputation.Edge{From: from, To: to, W: row[to]})
		}
	}
	ts.ShareArts = append(ts.ShareArts[:0], t.shareArts...)
	ts.ShareBW = append(ts.ShareBW[:0], t.shareBW...)
	ts.Uploaded = append(ts.Uploaded[:0], t.uploaded...)
}

// LoadState implements Snapshotter. The per-peer maps are cleared and
// refilled in place, so their buckets are reused.
func (t *TitForTat) LoadState(src *State) error {
	if err := checkKind(src, KindTitForTat); err != nil {
		return err
	}
	ts := &src.TitForTat
	if len(ts.ShareArts) != t.n || len(ts.ShareBW) != t.n || len(ts.Uploaded) != t.n {
		return fmt.Errorf("incentive: tit-for-tat state sized for %d peers, scheme has %d",
			len(ts.ShareArts), t.n)
	}
	for i := range t.given {
		clear(t.given[i])
	}
	for _, e := range ts.Given {
		if e.From < 0 || e.From >= t.n || e.To < 0 || e.To >= t.n {
			return fmt.Errorf("incentive: tit-for-tat edge (%d,%d) out of range [0,%d)",
				e.From, e.To, t.n)
		}
		t.given[e.From][e.To] = e.W
	}
	copy(t.shareArts, ts.ShareArts)
	copy(t.shareBW, ts.ShareBW)
	copy(t.uploaded, ts.Uploaded)
	return nil
}

// --- GlobalTrust ---

// SaveState implements Snapshotter.
func (g *GlobalTrust) SaveState(dst *State) {
	dst.Kind = KindEigenTrust
	gs := &dst.GlobalTrust
	gs.Edges = g.store.AppendEdges(gs.Edges[:0])
	gs.Trust = append(gs.Trust[:0], g.trust...)
	gs.Score = append(gs.Score[:0], g.score...)
	gs.Dirty = g.dirty
	gs.SinceRefresh = g.sinceRefresh
}

// LoadState implements Snapshotter. The workspace CSR is derived state; it
// refreshes itself from the restored graph at the next eigenvector solve.
func (g *GlobalTrust) LoadState(src *State) error {
	if err := checkKind(src, KindEigenTrust); err != nil {
		return err
	}
	gs := &src.GlobalTrust
	if len(gs.Trust) != g.n || len(gs.Score) != g.n {
		return fmt.Errorf("incentive: global-trust state sized for %d peers, scheme has %d",
			len(gs.Trust), g.n)
	}
	if err := g.store.LoadEdges(gs.Edges); err != nil {
		return err
	}
	copy(g.trust, gs.Trust)
	copy(g.score, gs.Score)
	g.dirty = gs.Dirty
	g.sinceRefresh = gs.SinceRefresh
	// The workspace's warm-start state after any solve is bitwise the trust
	// vector that solve produced, so seeding it from the restored vector
	// makes the restored scheme's next warm solve run bit-identically to
	// the original's — snapshot round-trips stay deterministic under the
	// warm-started default. The restored vector also counts as a solve for
	// the recompute skip, exactly as it did in the engine that saved it.
	g.ws.SeedWarm(g.trust)
	g.solved = true
	if g.cg != nil {
		// LoadEdges just published the restored graph as a fresh epoch;
		// republish the restored vector stamped with it so lock-free
		// observers see a coherent (epoch, trust) pair across a warm
		// restart, and move the staleness watermark so an idle service does
		// not immediately re-solve state it just loaded.
		seq := g.cg.Stats().Epoch
		g.cg.PublishTrustAt(seq, g.trust)
		g.lastSolveSeq = seq
	}
	return nil
}

// sortInts is an insertion sort for the small per-row column sets the
// tit-for-tat save path linearizes (avoids sort.Ints' interface conversion
// on a hot-ish path; rows are tiny).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// compile-time interface checks: every scheme supports checkpointing.
var (
	_ Snapshotter = (*Reputation)(nil)
	_ Snapshotter = (*None)(nil)
	_ Snapshotter = (*Karma)(nil)
	_ Snapshotter = (*TitForTat)(nil)
	_ Snapshotter = (*GlobalTrust)(nil)
)
