// Snapshot persistence: the on-disk layouts of EngineSnapshot and of the
// chain checkpoints built on it, so paper-scale warm chains survive process
// restarts.
//
// Each layout below is one function over a wire.Codec that both encodes and
// decodes, so the format is stated once: a magic string, a version word,
// then every field in declaration order as a 64-bit word (see package wire
// for the encoding, the length rule that bounds what a corrupt file can
// make a decode allocate, and the atomic, fsynced file write). The scheme
// section is incentive.State's own layout, the same one the serving
// daemon's warm-restart file uses. The encoding is a pure function of the
// content, and decoding it reproduces every field bit-identically — the
// property the resume determinism tests pin.
package sim

import (
	"fmt"
	"path/filepath"

	"collabnet/internal/agent"
	"collabnet/internal/articles"
	"collabnet/internal/network"
	"collabnet/internal/wire"
)

const (
	snapMagic    = "CNSNAP1\n"
	ckptMagic    = "CNCHKP1\n"
	codecVersion = 2
)

// The fewest bytes one list element of each kind encodes to: its fixed
// words, with every string and list in it empty.
const (
	minAgent    = 2 * 8  // behavior, rational (a non-rational agent)
	minRevision = 3 * 8  // editor, quality, step
	minArticle  = 9 * 8  // id, title length, creator, createdAt, two list lengths, three totals
	minTransfer = 5 * 8  // id, downloader, source, remaining, startStep
	minBehavior = 12 * 8 // behavior and its eleven stats
	minResult   = 14 * 8 // scheme length, four words, map length, eight words
)

func qCodec(c *wire.Codec, q *agent.QSnapshot) {
	c.Int(&q.States)
	c.Int(&q.Actions)
	c.Float(&q.Alpha)
	c.Float(&q.Gamma)
	c.Floats(&q.Q)
}

func agentCodec(c *wire.Codec, a *agent.Snapshot) {
	c.Int((*int)(&a.Behavior))
	c.Bool(&a.Rational)
	if a.Rational {
		qCodec(c, &a.Sharing)
		qCodec(c, &a.EditConduct)
		qCodec(c, &a.VoteConduct)
	} else if c.Decoding() {
		// A reused element may hold a rational agent's learners.
		a.Sharing, a.EditConduct, a.VoteConduct = agent.QSnapshot{}, agent.QSnapshot{}, agent.QSnapshot{}
	}
}

func revisionCodec(c *wire.Codec, r *articles.Revision) {
	c.Int(&r.Editor)
	c.Int((*int)(&r.Quality))
	c.Int(&r.Step)
}

func articleCodec(c *wire.Codec, a *articles.ArticleSnapshot) {
	c.Int(&a.ID)
	c.String(&a.Title)
	c.Int(&a.Creator)
	c.Int(&a.CreatedAt)
	wire.List(c, &a.Revisions, minRevision, revisionCodec)
	c.Ints(&a.Editors)
	c.Int(&a.TotalRevs)
	c.Int(&a.TotalGood)
	c.Int(&a.TotalBad)
}

func transferCodec(c *wire.Codec, t *network.Transfer) {
	c.Int(&t.ID)
	c.Int(&t.Downloader)
	c.Int(&t.Source)
	c.Float(&t.Remaining)
	c.Int(&t.StartStep)
}

// codec codes the snapshot's fields, without a header. Decoding reuses the
// snapshot's buffers where capacity allows; scheme sections the stored kind
// does not own are left untouched (the reuse caveat Snapshot documents).
func (s *EngineSnapshot) codec(c *wire.Codec) {
	c.Int(&s.Step)
	for k := range s.Rng {
		c.Uint64(&s.Rng[k])
	}
	c.Bools(&s.Online)
	wire.List(c, &s.Agents, minAgent, agentCodec)
	s.Scheme.Codec(c)
	c.Int(&s.Store.RevisionCap)
	wire.List(c, &s.Store.Articles, minArticle, articleCodec)
	t := &s.Transfers
	c.Float(&t.FileSize)
	c.Int(&t.NextID)
	c.Int(&t.Step)
	c.Int(&t.PeerBound)
	wire.List(c, &t.Transfers, minTransfer, transferCodec)
}

func (s *EngineSnapshot) file(c *wire.Codec) {
	c.Header(snapMagic, codecVersion)
	s.codec(c)
}

// MarshalBinary implements encoding.BinaryMarshaler with the layout the
// package comment describes.
func (s *EngineSnapshot) MarshalBinary() ([]byte, error) { return wire.Marshal(s.file) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler: the inverse of
// MarshalBinary, refusing any input it would not have written.
func (s *EngineSnapshot) UnmarshalBinary(data []byte) error { return wire.Unmarshal(data, s.file) }

// behaviorEntry is one PerBehavior entry as the result layout lists it.
type behaviorEntry struct {
	Behavior agent.Behavior
	Stats    BehaviorStats
}

func behaviorCodec(c *wire.Codec, e *behaviorEntry) {
	c.Int((*int)(&e.Behavior))
	s := &e.Stats
	c.Int(&s.Peers)
	c.Float(&s.SharedArticles)
	c.Float(&s.SharedBandwidth)
	c.Int(&s.ConstructiveEdits)
	c.Int(&s.DestructiveEdits)
	c.Int(&s.AcceptedEdits)
	c.Int(&s.SuccessfulVotes)
	c.Int(&s.FailedVotes)
	c.Float(&s.MeanUtilityS)
	c.Int(&s.DownloadAttempts)
	c.Int(&s.Downloads)
}

// resultCodec codes a stored point result. PerBehavior is listed in
// behavior order, so equal results encode to equal bytes.
func resultCodec(c *wire.Codec, r *Result) {
	c.String(&r.Scheme)
	c.Int(&r.Steps)
	c.Int(&r.Peers)
	c.Float(&r.SharedArticles)
	c.Float(&r.SharedBandwidth)
	var per []behaviorEntry
	if !c.Decoding() {
		for beh := agent.Behavior(0); int(beh) < numBehaviors; beh++ {
			if s, ok := r.PerBehavior[beh]; ok {
				per = append(per, behaviorEntry{beh, s})
			}
		}
	}
	wire.List(c, &per, minBehavior, behaviorCodec)
	if c.Decoding() {
		if len(per) > numBehaviors {
			c.Fail(fmt.Errorf("sim: checkpoint result has %d behaviors", len(per)))
		}
		r.PerBehavior = make(map[agent.Behavior]BehaviorStats, len(per))
		for _, e := range per {
			r.PerBehavior[e.Behavior] = e.Stats
		}
	}
	c.Int(&r.AcceptedGood)
	c.Int(&r.AcceptedBad)
	c.Int(&r.DeclinedGood)
	c.Int(&r.DeclinedBad)
	c.Int(&r.Downloads)
	c.Float(&r.MeanDownloadTime)
	c.Int(&r.VoteBans)
	c.Int(&r.Punishments)
}

// --- chain checkpoints ---

// chainCheckpoint is the resume state of one warm-start chain: the results
// of the completed points and the post-training snapshot the next point
// restores from. Cold chains store an empty snapshot (their points are
// independent; resuming just skips the completed ones).
type chainCheckpoint struct {
	Name string
	Done []Result
	Snap EngineSnapshot
}

func (ck *chainCheckpoint) file(c *wire.Codec) {
	c.Header(ckptMagic, codecVersion)
	c.String(&ck.Name)
	wire.List(c, &ck.Done, minResult, resultCodec)
	ck.Snap.codec(c)
}

// checkpointPath maps a chain name to its file under dir, replacing
// path-hostile runes.
func checkpointPath(dir, name string) string {
	safe := make([]byte, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			safe = append(safe, byte(r))
		default:
			safe = append(safe, '-')
		}
	}
	return filepath.Join(dir, string(safe)+".ckpt")
}

// writeChainCheckpoint atomically persists the chain's resume state.
func writeChainCheckpoint(dir string, ck *chainCheckpoint) error {
	return wire.WriteFile(checkpointPath(dir, ck.Name), ck.file)
}

// loadChainCheckpoint loads the chain's resume state. It reports false —
// never an error — when no usable checkpoint exists (missing file, wrong
// name, more points than the chain now has, or any decode failure), so a
// stale or corrupt checkpoint degrades to a cold start of the chain.
func loadChainCheckpoint(dir, name string, maxPoints int) (*chainCheckpoint, bool) {
	ck := &chainCheckpoint{}
	if err := wire.ReadFile(checkpointPath(dir, name), ck.file); err != nil ||
		ck.Name != name || len(ck.Done) > maxPoints {
		return nil, false
	}
	return ck, true
}
