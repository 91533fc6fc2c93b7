package incentive

import (
	"fmt"

	"collabnet/internal/core"
)

// Reputation is the paper's incentive scheme: service differentiation driven
// by the two logistic reputations RS and RE maintained in a core.Book.
type Reputation struct {
	book   *core.Book
	params core.Params
	// weightedVoting selects between v_i = RE_i/ΣRE and one-peer-one-vote
	// (the weighted-voting ablation).
	weightedVoting bool

	// Per-step accumulators, applied at EndStep.
	shareArticles []float64
	shareBW       []float64
	succVotes     []int
	accEdits      []int
}

// NewReputation builds the scheme for n peers with the given parameters.
func NewReputation(n int, p core.Params, weightedVoting bool) (*Reputation, error) {
	book, err := core.NewBook(n, p)
	if err != nil {
		return nil, err
	}
	return &Reputation{
		book:           book,
		params:         p,
		weightedVoting: weightedVoting,
		shareArticles:  make([]float64, n),
		shareBW:        make([]float64, n),
		succVotes:      make([]int, n),
		accEdits:       make([]int, n),
	}, nil
}

// Book exposes the underlying ledger book for metrics and tests.
func (r *Reputation) Book() *core.Book { return r.book }

// Name implements Scheme.
func (r *Reputation) Name() string { return "reputation" }

// Allocate implements Scheme: B_i = RS_i / Σ RS_k (Section III-C1), written
// into the caller's shares buffer without allocating.
func (r *Reputation) Allocate(_ int, downloaders []int, shares []float64) {
	for i, d := range downloaders {
		shares[i] = r.book.Ledger(d).RS()
	}
	core.NormalizeShares(shares)
}

// CanEdit implements Scheme: RS >= θ.
func (r *Reputation) CanEdit(peer int) bool { return r.book.Ledger(peer).CanEdit() }

// CanVote implements Scheme: not under the malicious-voter ban.
func (r *Reputation) CanVote(peer int) bool { return r.book.Ledger(peer).CanVote() }

// VoteWeight implements Scheme: RE under weighted voting, 1 otherwise.
func (r *Reputation) VoteWeight(voter int) float64 {
	if !r.weightedVoting {
		return 1
	}
	return r.book.Ledger(voter).RE()
}

// RequiredMajority implements Scheme: inversely proportional to RE.
func (r *Reputation) RequiredMajority(editor int) float64 {
	return core.RequiredMajority(r.params, r.book.Ledger(editor).RE())
}

// RecordSharing implements Scheme.
func (r *Reputation) RecordSharing(peer int, articles, bandwidth float64) {
	r.shareArticles[peer] = articles
	r.shareBW[peer] = bandwidth
}

// RecordTransfer implements Scheme. The reputation scheme keys on *offered*
// bandwidth (the CS formula counts shared, not consumed, resources), so
// transfers need no accounting here.
func (r *Reputation) RecordTransfer(int, int, float64) {}

// RecordVoteOutcome implements Scheme.
func (r *Reputation) RecordVoteOutcome(voter int, success bool) {
	r.book.Ledger(voter).RecordVoteOutcome(success)
	if success {
		r.succVotes[voter]++
	}
}

// RecordEditOutcome implements Scheme.
func (r *Reputation) RecordEditOutcome(editor int, accepted bool) {
	r.book.Ledger(editor).RecordEditOutcome(accepted)
	if accepted {
		r.accEdits[editor]++
	}
}

// EndStep implements Scheme: one decay/inflow step for both contribution
// accumulators of every peer.
func (r *Reputation) EndStep() {
	for i := 0; i < r.book.Len(); i++ {
		l := r.book.Ledger(i)
		l.StepSharing(r.shareArticles[i], r.shareBW[i])
		l.StepEditing(r.succVotes[i], r.accEdits[i])
		r.shareArticles[i] = 0
		r.shareBW[i] = 0
		r.succVotes[i] = 0
		r.accEdits[i] = 0
	}
}

// Reset implements Scheme.
func (r *Reputation) Reset() {
	r.book.ResetAll()
	for i := range r.shareArticles {
		r.shareArticles[i] = 0
		r.shareBW[i] = 0
		r.succVotes[i] = 0
		r.accEdits[i] = 0
	}
}

// ResetPeer implements Scheme: one peer's ledger and step accumulators back
// to initial conditions, in place — reputation history does not follow an
// identity across a rejoin.
func (r *Reputation) ResetPeer(peer int) {
	if peer < 0 || peer >= r.book.Len() {
		return
	}
	r.book.Ledger(peer).Reset()
	r.shareArticles[peer] = 0
	r.shareBW[peer] = 0
	r.succVotes[peer] = 0
	r.accEdits[peer] = 0
}

// SharingScore implements Scheme.
func (r *Reputation) SharingScore(peer int) float64 { return r.book.Ledger(peer).RS() }

// EditingScore implements Scheme.
func (r *Reputation) EditingScore(peer int) float64 { return r.book.Ledger(peer).RE() }

// None is the no-incentive baseline: bandwidth is split equally, everyone
// may edit and vote with equal weight, a simple majority decides, and
// nothing is punished. A core.Book still tracks reputations so that agents
// observe the same state space in both Figure 3 arms — the scores just have
// no effect on service.
type None struct {
	rep *Reputation
}

// NewNone builds the baseline for n peers.
func NewNone(n int, p core.Params) (*None, error) {
	p.PunishmentsOff = true
	rep, err := NewReputation(n, p, false)
	if err != nil {
		return nil, err
	}
	return &None{rep: rep}, nil
}

// Name implements Scheme.
func (n *None) Name() string { return "none" }

// Allocate implements Scheme: equal split regardless of behavior.
func (n *None) Allocate(_ int, _ []int, shares []float64) {
	equalShares(shares)
}

// CanEdit implements Scheme: no threshold.
func (n *None) CanEdit(int) bool { return true }

// CanVote implements Scheme: no bans.
func (n *None) CanVote(int) bool { return true }

// VoteWeight implements Scheme: one peer, one vote.
func (n *None) VoteWeight(int) float64 { return 1 }

// RequiredMajority implements Scheme: simple majority for everyone.
func (n *None) RequiredMajority(int) float64 { return 0.5 }

// RecordSharing implements Scheme (tracked for the observable state only).
func (n *None) RecordSharing(peer int, articles, bandwidth float64) {
	n.rep.RecordSharing(peer, articles, bandwidth)
}

// RecordTransfer implements Scheme.
func (n *None) RecordTransfer(int, int, float64) {}

// RecordVoteOutcome implements Scheme.
func (n *None) RecordVoteOutcome(voter int, success bool) {
	n.rep.RecordVoteOutcome(voter, success)
}

// RecordEditOutcome implements Scheme.
func (n *None) RecordEditOutcome(editor int, accepted bool) {
	n.rep.RecordEditOutcome(editor, accepted)
}

// EndStep implements Scheme.
func (n *None) EndStep() { n.rep.EndStep() }

// Reset implements Scheme.
func (n *None) Reset() { n.rep.Reset() }

// ResetPeer implements Scheme (the tracked observable state is wiped; there
// is no service differentiation to escape).
func (n *None) ResetPeer(peer int) { n.rep.ResetPeer(peer) }

// SharingScore implements Scheme.
func (n *None) SharingScore(peer int) float64 { return n.rep.SharingScore(peer) }

// EditingScore implements Scheme.
func (n *None) EditingScore(peer int) float64 { return n.rep.EditingScore(peer) }

// Options is the single constructor surface for incentive schemes: one
// struct that names every cross-scheme and commonly-tuned per-kind knob,
// with the zero value selecting validated defaults throughout: callers set
// Kind plus whatever they care about and pass the rest to NewScheme.
//
// Scheme-specific configuration beyond these knobs (Karma pricing, max-flow
// evaluator cadence, EigenTrust damping/epsilon) stays on the per-kind
// constructors (NewKarma, NewFlowTrust, NewGlobalTrust), which NewScheme
// delegates to.
type Options struct {
	// Kind selects the scheme implementation. The zero value is KindNone,
	// the no-incentive baseline.
	Kind Kind

	// Params are the core reputation parameters consumed by the paper's
	// scheme and the None baseline. nil selects core.Default().
	Params *core.Params

	// WeightedVoting selects v_i = RE_i/ΣRE ballots for the paper's scheme
	// (one-peer-one-vote otherwise). Other kinds ignore it.
	WeightedVoting bool

	// PreTrusted lists the peers EigenTrust's teleport distribution favors
	// (its collusion-resistance lever); the first entry also selects the
	// max-flow scheme's evaluator. Empty keeps the uniform distribution.
	PreTrusted []int

	// RefreshEvery overrides the trust-recomputation cadence (in steps) of
	// the trust-backed kinds (EigenTrust, MaxFlow). 0 keeps each kind's
	// default; negative is an error.
	RefreshEvery int

	// Floor overrides the uniform allocation floor of the floor-carrying
	// kinds (EigenTrust, MaxFlow, Karma). 0 keeps each kind's default
	// (0.05); negative is an error.
	Floor float64

	// Concurrent backs KindEigenTrust with the epoch-swapped concurrent
	// trust store (reputation.ConcurrentGraph) so external observers can
	// read epochs and trust snapshots lock-free while the scheme writes.
	// Setting it for any other kind is an error.
	Concurrent bool

	// Shards is the concurrent store's ingest shard count (0 = default).
	// Setting it without Concurrent is an error.
	Shards int
}

// validate reports the first incoherent cross-field combination. Per-kind
// numeric constraints are validated by the per-kind constructors.
func (o Options) validate() error {
	if o.Kind < KindNone || o.Kind > KindMaxFlow {
		return fmt.Errorf("incentive: unknown scheme kind %d", int(o.Kind))
	}
	if o.RefreshEvery < 0 {
		return fmt.Errorf("incentive: RefreshEvery must be >= 0, got %d", o.RefreshEvery)
	}
	if o.Floor < 0 {
		return fmt.Errorf("incentive: Floor must be >= 0, got %v", o.Floor)
	}
	if o.Concurrent && o.Kind != KindEigenTrust {
		return fmt.Errorf("incentive: Concurrent requires KindEigenTrust, got %s", o.Kind)
	}
	if o.Shards != 0 && !o.Concurrent {
		return fmt.Errorf("incentive: Shards requires Concurrent")
	}
	return nil
}

// NewScheme constructs a scheme for n peers from opt — the one constructor
// every caller goes through. Zero-valued fields select validated defaults:
// Options{} builds the None baseline with core.Default() parameters.
func NewScheme(n int, opt Options) (Scheme, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	params := core.Default()
	if opt.Params != nil {
		params = *opt.Params
	}
	switch opt.Kind {
	case KindNone:
		return NewNone(n, params)
	case KindReputation:
		return NewReputation(n, params, opt.WeightedVoting)
	case KindTitForTat:
		return NewTitForTat(n)
	case KindKarma:
		cfg := DefaultKarmaConfig()
		if opt.Floor > 0 {
			cfg.Floor = opt.Floor
		}
		return NewKarma(n, cfg)
	case KindEigenTrust:
		cfg := DefaultGlobalTrustConfig()
		if len(opt.PreTrusted) > 0 {
			cfg.Trust.PreTrusted = append([]int(nil), opt.PreTrusted...)
		}
		if opt.RefreshEvery > 0 {
			cfg.RefreshEvery = opt.RefreshEvery
		}
		if opt.Floor > 0 {
			cfg.Floor = opt.Floor
		}
		cfg.Concurrent = opt.Concurrent
		cfg.Shards = opt.Shards
		return NewGlobalTrust(n, cfg)
	case KindMaxFlow:
		cfg := DefaultFlowTrustConfig()
		if len(opt.PreTrusted) > 0 {
			cfg.Evaluator = opt.PreTrusted[0]
		}
		if opt.RefreshEvery > 0 {
			cfg.RefreshEvery = opt.RefreshEvery
		}
		if opt.Floor > 0 {
			cfg.Floor = opt.Floor
		}
		return NewFlowTrust(n, cfg)
	default:
		return nil, fmt.Errorf("incentive: unknown scheme kind %d", int(opt.Kind))
	}
}

// compile-time interface checks
var (
	_ Scheme = (*Reputation)(nil)
	_ Scheme = (*None)(nil)
)
