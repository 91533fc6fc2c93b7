// Snapshot persistence: a gob-free binary codec for EngineSnapshot (and the
// chain checkpoints built on it) so paper-scale warm chains survive process
// restarts.
//
// The format is deliberately dumb: a magic header, a version word, and then
// every field in declaration order as little-endian 64-bit words (floats
// via math.Float64bits, so the round trip is bit-identical — the property
// the resume determinism tests pin). Variable-length sections are
// length-prefixed; lengths are sanity-bounded on read and every list grows
// element by element as its bytes arrive, so a corrupt file errors after
// allocating in proportion to its size, not to what its length words claim.
package sim

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"collabnet/internal/agent"
	"collabnet/internal/articles"
	"collabnet/internal/core"
	"collabnet/internal/incentive"
	"collabnet/internal/network"
	"collabnet/internal/reputation"
)

const (
	snapMagic      = "CNSNAP1\n"
	ckptMagic      = "CNCHKP1\n"
	codecVersion   = 2
	maxCodecLen    = 1 << 31 // per-section element bound on read
	maxCodecString = 1 << 20 // per-string byte bound on read
)

// --- primitive writer/reader ---

type binWriter struct {
	w   io.Writer
	n   int64
	err error
	buf [8]byte
}

func (b *binWriter) u64(v uint64) {
	if b.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(b.buf[:], v)
	n, err := b.w.Write(b.buf[:])
	b.n += int64(n)
	b.err = err
}

func (b *binWriter) i(v int)     { b.u64(uint64(int64(v))) }
func (b *binWriter) f(v float64) { b.u64(math.Float64bits(v)) }

func (b *binWriter) bool(v bool) {
	if v {
		b.u64(1)
	} else {
		b.u64(0)
	}
}

func (b *binWriter) raw(s string) {
	if b.err != nil {
		return
	}
	n, err := io.WriteString(b.w, s)
	b.n += int64(n)
	b.err = err
}

func (b *binWriter) str(s string) {
	b.i(len(s))
	b.raw(s)
}

func (b *binWriter) floats(s []float64) {
	b.i(len(s))
	for _, v := range s {
		b.f(v)
	}
}

func (b *binWriter) ints(s []int) {
	b.i(len(s))
	for _, v := range s {
		b.i(v)
	}
}

func (b *binWriter) bools(s []bool) {
	b.i(len(s))
	for _, v := range s {
		b.bool(v)
	}
}

func (b *binWriter) edges(s []reputation.Edge) {
	b.i(len(s))
	for _, e := range s {
		b.i(e.From)
		b.i(e.To)
		b.f(e.W)
	}
}

type binReader struct {
	r   io.Reader
	n   int64
	err error
	buf [8]byte
}

func (b *binReader) u64() uint64 {
	if b.err != nil {
		return 0
	}
	n, err := io.ReadFull(b.r, b.buf[:])
	b.n += int64(n)
	if err != nil {
		b.err = err
		return 0
	}
	return binary.LittleEndian.Uint64(b.buf[:])
}

func (b *binReader) i() int     { return int(int64(b.u64())) }
func (b *binReader) f() float64 { return math.Float64frombits(b.u64()) }
func (b *binReader) bool() bool { return b.u64() != 0 }

// length reads a non-negative, sanity-bounded element count.
func (b *binReader) length(what string) int {
	n := b.i()
	if b.err == nil && (n < 0 || n > maxCodecLen) {
		b.err = fmt.Errorf("sim: snapshot %s length %d out of range", what, n)
	}
	if b.err != nil {
		return 0
	}
	return n
}

func (b *binReader) str() string {
	n := b.i()
	if b.err == nil && (n < 0 || n > maxCodecString) {
		b.err = fmt.Errorf("sim: snapshot string length %d out of range", n)
	}
	if b.err != nil || n == 0 {
		return ""
	}
	buf := make([]byte, n)
	m, err := io.ReadFull(b.r, buf)
	b.n += int64(m)
	if err != nil {
		b.err = err
		return ""
	}
	return string(buf)
}

func (b *binReader) floats(dst []float64) []float64 {
	n := b.length("float slice")
	dst = dst[:0]
	for k := 0; k < n && b.err == nil; k++ {
		dst = append(dst, b.f())
	}
	return dst
}

func (b *binReader) ints(dst []int) []int {
	n := b.length("int slice")
	dst = dst[:0]
	for k := 0; k < n && b.err == nil; k++ {
		dst = append(dst, b.i())
	}
	return dst
}

func (b *binReader) bools(dst []bool) []bool {
	n := b.length("bool slice")
	dst = dst[:0]
	for k := 0; k < n && b.err == nil; k++ {
		dst = append(dst, b.bool())
	}
	return dst
}

func (b *binReader) edges(dst []reputation.Edge) []reputation.Edge {
	n := b.length("edge list")
	dst = dst[:0]
	for k := 0; k < n && b.err == nil; k++ {
		var e reputation.Edge
		e.From = b.i()
		e.To = b.i()
		e.W = b.f()
		dst = append(dst, e)
	}
	return dst
}

// extend lengthens s by one element: the one already within capacity, so
// that its own buffers are reused, or an appended zero value. The list
// decoders grow by it instead of allocating what a length word claims, so a
// corrupt file can make them allocate no more than a small multiple of the
// bytes it really holds.
func extend[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// --- section codecs ---

func writeQSnapshot(b *binWriter, q *agent.QSnapshot) {
	b.i(q.States)
	b.i(q.Actions)
	b.f(q.Alpha)
	b.f(q.Gamma)
	b.floats(q.Q)
}

func readQSnapshot(b *binReader, q *agent.QSnapshot) {
	q.States = b.i()
	q.Actions = b.i()
	q.Alpha = b.f()
	q.Gamma = b.f()
	q.Q = b.floats(q.Q)
}

func writeAgents(b *binWriter, agents []agent.Snapshot) {
	b.i(len(agents))
	for k := range agents {
		a := &agents[k]
		b.i(int(a.Behavior))
		b.bool(a.Rational)
		if a.Rational {
			writeQSnapshot(b, &a.Sharing)
			writeQSnapshot(b, &a.EditConduct)
			writeQSnapshot(b, &a.VoteConduct)
		}
	}
}

func readAgents(b *binReader, dst []agent.Snapshot) []agent.Snapshot {
	n := b.length("agent list")
	dst = dst[:0]
	for k := 0; k < n && b.err == nil; k++ {
		dst = extend(dst)
		a := &dst[k]
		a.Behavior = agent.Behavior(b.i())
		a.Rational = b.bool()
		if a.Rational {
			readQSnapshot(b, &a.Sharing)
			readQSnapshot(b, &a.EditConduct)
			readQSnapshot(b, &a.VoteConduct)
		} else {
			a.Sharing = agent.QSnapshot{}
			a.EditConduct = agent.QSnapshot{}
			a.VoteConduct = agent.QSnapshot{}
		}
	}
	return dst
}

func writeLedgers(b *binWriter, ls []core.LedgerState) {
	b.i(len(ls))
	for k := range ls {
		l := &ls[k]
		b.f(l.CS.Value)
		b.i(l.CS.Idle)
		b.f(l.CE.Value)
		b.i(l.CE.Idle)
		b.i(l.VoteFails)
		b.i(l.EditFails)
		b.bool(l.VoteBanned)
		b.i(l.RegainedEdits)
		b.i(l.SuccVotes)
		b.i(l.FailVotes)
		b.i(l.AccEdits)
		b.i(l.DeclEdits)
		b.i(l.Punished)
		b.i(l.VoteBans)
		b.i(l.VoteRegain)
	}
}

func readLedgers(b *binReader, dst []core.LedgerState) []core.LedgerState {
	n := b.length("ledger list")
	dst = dst[:0]
	for k := 0; k < n && b.err == nil; k++ {
		dst = extend(dst)
		l := &dst[k]
		l.CS.Value = b.f()
		l.CS.Idle = b.i()
		l.CE.Value = b.f()
		l.CE.Idle = b.i()
		l.VoteFails = b.i()
		l.EditFails = b.i()
		l.VoteBanned = b.bool()
		l.RegainedEdits = b.i()
		l.SuccVotes = b.i()
		l.FailVotes = b.i()
		l.AccEdits = b.i()
		l.DeclEdits = b.i()
		l.Punished = b.i()
		l.VoteBans = b.i()
		l.VoteRegain = b.i()
	}
	return dst
}

func writeScheme(b *binWriter, s *incentive.State) {
	b.i(int(s.Kind))
	switch s.Kind {
	case incentive.KindNone, incentive.KindReputation:
		writeLedgers(b, s.Reputation.Ledgers)
		b.floats(s.Reputation.ShareArticles)
		b.floats(s.Reputation.ShareBW)
		b.ints(s.Reputation.SuccVotes)
		b.ints(s.Reputation.AccEdits)
	case incentive.KindKarma:
		b.floats(s.Karma.Balances)
	case incentive.KindTitForTat:
		b.edges(s.TitForTat.Given)
		b.floats(s.TitForTat.ShareArts)
		b.floats(s.TitForTat.ShareBW)
		b.floats(s.TitForTat.Uploaded)
	case incentive.KindEigenTrust:
		b.edges(s.GlobalTrust.Edges)
		b.floats(s.GlobalTrust.Trust)
		b.floats(s.GlobalTrust.Score)
		b.bool(s.GlobalTrust.Dirty)
		b.i(s.GlobalTrust.SinceRefresh)
	case incentive.KindMaxFlow:
		b.edges(s.FlowTrust.Edges)
		b.floats(s.FlowTrust.Trust)
		b.floats(s.FlowTrust.Score)
		b.bool(s.FlowTrust.Dirty)
		b.i(s.FlowTrust.SinceRefresh)
	default:
		b.err = fmt.Errorf("sim: cannot encode scheme state of kind %d", int(s.Kind))
	}
}

func readScheme(b *binReader, s *incentive.State) {
	s.Kind = incentive.Kind(b.i())
	switch s.Kind {
	case incentive.KindNone, incentive.KindReputation:
		s.Reputation.Ledgers = readLedgers(b, s.Reputation.Ledgers)
		s.Reputation.ShareArticles = b.floats(s.Reputation.ShareArticles)
		s.Reputation.ShareBW = b.floats(s.Reputation.ShareBW)
		s.Reputation.SuccVotes = b.ints(s.Reputation.SuccVotes)
		s.Reputation.AccEdits = b.ints(s.Reputation.AccEdits)
	case incentive.KindKarma:
		s.Karma.Balances = b.floats(s.Karma.Balances)
	case incentive.KindTitForTat:
		s.TitForTat.Given = b.edges(s.TitForTat.Given)
		s.TitForTat.ShareArts = b.floats(s.TitForTat.ShareArts)
		s.TitForTat.ShareBW = b.floats(s.TitForTat.ShareBW)
		s.TitForTat.Uploaded = b.floats(s.TitForTat.Uploaded)
	case incentive.KindEigenTrust:
		s.GlobalTrust.Edges = b.edges(s.GlobalTrust.Edges)
		s.GlobalTrust.Trust = b.floats(s.GlobalTrust.Trust)
		s.GlobalTrust.Score = b.floats(s.GlobalTrust.Score)
		s.GlobalTrust.Dirty = b.bool()
		s.GlobalTrust.SinceRefresh = b.i()
	case incentive.KindMaxFlow:
		s.FlowTrust.Edges = b.edges(s.FlowTrust.Edges)
		s.FlowTrust.Trust = b.floats(s.FlowTrust.Trust)
		s.FlowTrust.Score = b.floats(s.FlowTrust.Score)
		s.FlowTrust.Dirty = b.bool()
		s.FlowTrust.SinceRefresh = b.i()
	default:
		if b.err == nil {
			b.err = fmt.Errorf("sim: snapshot has unknown scheme kind %d", int(s.Kind))
		}
	}
}

func writeStore(b *binWriter, s *articles.StoreSnapshot) {
	b.i(s.RevisionCap)
	b.i(len(s.Articles))
	for k := range s.Articles {
		a := &s.Articles[k]
		b.i(a.ID)
		b.str(a.Title)
		b.i(a.Creator)
		b.i(a.CreatedAt)
		b.i(len(a.Revisions))
		for _, r := range a.Revisions {
			b.i(r.Editor)
			b.i(int(r.Quality))
			b.i(r.Step)
		}
		b.ints(a.Editors)
		b.i(a.TotalRevs)
		b.i(a.TotalGood)
		b.i(a.TotalBad)
	}
}

func readStore(b *binReader, s *articles.StoreSnapshot) {
	s.RevisionCap = b.i()
	n := b.length("article list")
	s.Articles = s.Articles[:0]
	for k := 0; k < n && b.err == nil; k++ {
		s.Articles = extend(s.Articles)
		a := &s.Articles[k]
		a.ID = b.i()
		a.Title = b.str()
		a.Creator = b.i()
		a.CreatedAt = b.i()
		nr := b.length("revision list")
		a.Revisions = a.Revisions[:0]
		for j := 0; j < nr && b.err == nil; j++ {
			var r articles.Revision
			r.Editor = b.i()
			r.Quality = articles.Quality(b.i())
			r.Step = b.i()
			a.Revisions = append(a.Revisions, r)
		}
		a.Editors = b.ints(a.Editors)
		a.TotalRevs = b.i()
		a.TotalGood = b.i()
		a.TotalBad = b.i()
	}
}

func writeTransfers(b *binWriter, t *network.TransferSnapshot) {
	b.f(t.FileSize)
	b.i(t.NextID)
	b.i(t.Step)
	b.i(t.PeerBound)
	b.i(len(t.Transfers))
	for _, tr := range t.Transfers {
		b.i(tr.ID)
		b.i(tr.Downloader)
		b.i(tr.Source)
		b.f(tr.Remaining)
		b.i(tr.StartStep)
	}
}

func readTransfers(b *binReader, t *network.TransferSnapshot) {
	t.FileSize = b.f()
	t.NextID = b.i()
	t.Step = b.i()
	t.PeerBound = b.i()
	n := b.length("transfer list")
	t.Transfers = t.Transfers[:0]
	for k := 0; k < n && b.err == nil; k++ {
		var tr network.Transfer
		tr.ID = b.i()
		tr.Downloader = b.i()
		tr.Source = b.i()
		tr.Remaining = b.f()
		tr.StartStep = b.i()
		t.Transfers = append(t.Transfers, tr)
	}
}

func (s *EngineSnapshot) write(b *binWriter) {
	b.i(s.Step)
	for _, w := range s.Rng {
		b.u64(w)
	}
	b.bools(s.Online)
	writeAgents(b, s.Agents)
	writeScheme(b, &s.Scheme)
	writeStore(b, &s.Store)
	writeTransfers(b, &s.Transfers)
}

func (s *EngineSnapshot) read(b *binReader) {
	s.Step = b.i()
	for k := range s.Rng {
		s.Rng[k] = b.u64()
	}
	s.Online = b.bools(s.Online)
	s.Agents = readAgents(b, s.Agents)
	readScheme(b, &s.Scheme)
	readStore(b, &s.Store)
	readTransfers(b, &s.Transfers)
}

// WriteTo implements io.WriterTo: the snapshot is encoded with the binary
// codec described in the package comment. The encoding is a pure function
// of the snapshot's content, and decoding it reproduces every field
// bit-identically.
func (s *EngineSnapshot) WriteTo(w io.Writer) (int64, error) {
	b := &binWriter{w: w}
	b.raw(snapMagic)
	b.u64(codecVersion)
	s.write(b)
	return b.n, b.err
}

// ReadFrom implements io.ReaderFrom: the inverse of WriteTo. The snapshot's
// slice buffers are reused where capacity allows; sections the stored
// scheme kind does not own are left untouched (the same reuse caveat
// Snapshot documents).
func (s *EngineSnapshot) ReadFrom(r io.Reader) (int64, error) {
	b := &binReader{r: r}
	var magic [8]byte
	n, err := io.ReadFull(r, magic[:])
	b.n += int64(n)
	if err != nil {
		return b.n, err
	}
	if string(magic[:]) != snapMagic {
		return b.n, fmt.Errorf("sim: not an engine snapshot (bad magic %q)", magic[:])
	}
	if v := b.u64(); b.err == nil && v != codecVersion {
		return b.n, fmt.Errorf("sim: unsupported snapshot version %d", v)
	}
	s.read(b)
	return b.n, b.err
}

// WriteSnapshotFile atomically writes the snapshot to path (temp file +
// rename), creating parent directories as needed.
func WriteSnapshotFile(path string, s *EngineSnapshot) error {
	return atomicWrite(path, func(w io.Writer) error {
		_, err := s.WriteTo(w)
		return err
	})
}

// ReadSnapshotFile reads a snapshot written by WriteSnapshotFile.
func ReadSnapshotFile(path string) (*EngineSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &EngineSnapshot{}
	if _, err := s.ReadFrom(bufio.NewReader(f)); err != nil {
		return nil, fmt.Errorf("sim: reading snapshot %s: %w", path, err)
	}
	return s, nil
}

// atomicWrite streams through fn into path's directory under a temporary
// name and renames into place, so readers never observe a half-written
// checkpoint.
func atomicWrite(path string, fn func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	err = fn(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if err = os.Rename(tmp.Name(), path); err == nil {
			return nil
		}
	}
	os.Remove(tmp.Name())
	return fmt.Errorf("sim: writing %s: %w", path, err)
}

// --- Result codec (chain checkpoints reuse stored per-point results) ---

func writeResult(b *binWriter, r *Result) {
	b.str(r.Scheme)
	b.i(r.Steps)
	b.i(r.Peers)
	b.f(r.SharedArticles)
	b.f(r.SharedBandwidth)
	b.i(len(r.PerBehavior))
	for beh := agent.Behavior(0); int(beh) < numBehaviors; beh++ {
		s, ok := r.PerBehavior[beh]
		if !ok {
			continue
		}
		b.i(int(beh))
		b.i(s.Peers)
		b.f(s.SharedArticles)
		b.f(s.SharedBandwidth)
		b.i(s.ConstructiveEdits)
		b.i(s.DestructiveEdits)
		b.i(s.AcceptedEdits)
		b.i(s.SuccessfulVotes)
		b.i(s.FailedVotes)
		b.f(s.MeanUtilityS)
		b.i(s.DownloadAttempts)
		b.i(s.Downloads)
	}
	b.i(r.AcceptedGood)
	b.i(r.AcceptedBad)
	b.i(r.DeclinedGood)
	b.i(r.DeclinedBad)
	b.i(r.Downloads)
	b.f(r.MeanDownloadTime)
	b.i(r.VoteBans)
	b.i(r.Punishments)
}

func readResult(b *binReader, r *Result) {
	r.Scheme = b.str()
	r.Steps = b.i()
	r.Peers = b.i()
	r.SharedArticles = b.f()
	r.SharedBandwidth = b.f()
	nb := b.length("behavior map")
	if b.err == nil && nb > numBehaviors {
		b.err = fmt.Errorf("sim: checkpoint result has %d behaviors", nb)
	}
	if b.err == nil {
		r.PerBehavior = make(map[agent.Behavior]BehaviorStats, nb)
	}
	for k := 0; k < nb && b.err == nil; k++ {
		beh := agent.Behavior(b.i())
		var s BehaviorStats
		s.Peers = b.i()
		s.SharedArticles = b.f()
		s.SharedBandwidth = b.f()
		s.ConstructiveEdits = b.i()
		s.DestructiveEdits = b.i()
		s.AcceptedEdits = b.i()
		s.SuccessfulVotes = b.i()
		s.FailedVotes = b.i()
		s.MeanUtilityS = b.f()
		s.DownloadAttempts = b.i()
		s.Downloads = b.i()
		if b.err == nil {
			r.PerBehavior[beh] = s
		}
	}
	r.AcceptedGood = b.i()
	r.AcceptedBad = b.i()
	r.DeclinedGood = b.i()
	r.DeclinedBad = b.i()
	r.Downloads = b.i()
	r.MeanDownloadTime = b.f()
	r.VoteBans = b.i()
	r.Punishments = b.i()
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
func writeChainCheckpoint(dir string, c *chainCheckpoint) error {
	return atomicWrite(checkpointPath(dir, c.Name), func(w io.Writer) error {
		b := &binWriter{w: w}
		b.raw(ckptMagic)
		b.u64(codecVersion)
		b.str(c.Name)
		b.i(len(c.Done))
		for k := range c.Done {
			writeResult(b, &c.Done[k])
		}
		c.Snap.write(b)
		return b.err
	})
}

// loadChainCheckpoint loads the chain's resume state. It reports false —
// never an error — when no usable checkpoint exists (missing file, wrong
// name, more points than the chain now has, or any decode failure), so a
// stale or corrupt checkpoint degrades to a cold start of the chain.
func loadChainCheckpoint(dir, name string, maxPoints int) (*chainCheckpoint, bool) {
	f, err := os.Open(checkpointPath(dir, name))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	b := &binReader{r: bufio.NewReader(f)}
	var magic [8]byte
	if _, err := io.ReadFull(b.r, magic[:]); err != nil || string(magic[:]) != ckptMagic {
		return nil, false
	}
	if b.u64() != codecVersion {
		return nil, false
	}
	c := &chainCheckpoint{}
	c.Name = b.str()
	n := b.length("checkpoint results")
	if b.err != nil || c.Name != name || n > maxPoints {
		return nil, false
	}
	c.Done = make([]Result, n)
	for k := 0; k < n && b.err == nil; k++ {
		readResult(b, &c.Done[k])
	}
	c.Snap.read(b)
	if b.err != nil {
		return nil, false
	}
	return c, true
}
