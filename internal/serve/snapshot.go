package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"collabnet/internal/incentive"
	"collabnet/internal/reputation"
)

// Binary snapshot codec for warm restarts. The format mirrors the sim
// checkpoint codec: a magic string, a version word, then little-endian
// u64 words (floats as IEEE-754 bits). Every field of the scheme state is
// written in canonical order, so two snapshots of equal state are equal
// byte-for-byte — the property the warm-restart bit-identity test pins.
const (
	snapshotMagic   = "CLSRVS\n"
	snapshotVersion = 1
)

type wordWriter struct {
	w   *bufio.Writer
	buf [8]byte
	err error
}

func (ww *wordWriter) u64(v uint64) {
	if ww.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(ww.buf[:], v)
	_, ww.err = ww.w.Write(ww.buf[:])
}

func (ww *wordWriter) f64(v float64) { ww.u64(math.Float64bits(v)) }

// wordReader decodes the words of a snapshot body through one fixed block:
// a read per 64 KiB instead of one per word, and never more of the file in
// memory than that. left is the length the header implies, already checked
// against the file's size, so a short read means the file changed underfoot.
type wordReader struct {
	r     io.Reader
	left  uint64 // bytes not yet read into block
	block [1 << 16]byte
	rest  []byte // the undecoded tail of block
	err   error
}

func (wr *wordReader) u64() uint64 {
	if len(wr.rest) == 0 && wr.err == nil {
		n := min(uint64(len(wr.block)), wr.left)
		if _, wr.err = io.ReadFull(wr.r, wr.block[:n]); wr.err == nil {
			wr.left -= n
			wr.rest = wr.block[:n]
		}
	}
	if wr.err != nil {
		return 0
	}
	v := binary.LittleEndian.Uint64(wr.rest)
	wr.rest = wr.rest[8:]
	return v
}

func (wr *wordReader) f64() float64 { return math.Float64frombits(wr.u64()) }

// SaveSnapshot quiesces nothing by itself: call it after Stop (or after a
// flush) so the saved edge list reflects every drained event. The file is
// written atomically (temp + rename) so a crash mid-write leaves the
// previous snapshot intact.
func (s *Server) SaveSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return fmt.Errorf("serve: no snapshot path configured")
	}
	var st incentive.State
	s.gt.SaveState(&st)
	return writeSnapshotFile(s.cfg.SnapshotPath, &st.GlobalTrust)
}

func writeSnapshotFile(path string, gs *incentive.GlobalTrustState) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".collabserve-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		tmp.Close()
		return err
	}
	ww := &wordWriter{w: bw}
	ww.u64(snapshotVersion)
	ww.u64(uint64(len(gs.Trust)))
	ww.u64(uint64(len(gs.Edges)))
	for _, e := range gs.Edges {
		ww.u64(uint64(e.From))
		ww.u64(uint64(e.To))
		ww.f64(e.W)
	}
	for _, v := range gs.Trust {
		ww.f64(v)
	}
	for _, v := range gs.Score {
		ww.f64(v)
	}
	dirty := uint64(0)
	if gs.Dirty {
		dirty = 1
	}
	ww.u64(dirty)
	ww.u64(uint64(gs.SinceRefresh))
	if ww.err != nil {
		tmp.Close()
		return ww.err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// loadSnapshot restores scheme state written by SaveSnapshot. It runs at
// construction time, before any goroutine exists, so calling LoadState
// directly (single-threaded) is safe; LoadState republishes the trust
// snapshot at the restored graph's epoch in concurrent mode.
func (s *Server) loadSnapshot(path string) error {
	gs, err := readSnapshotFile(path)
	if err != nil {
		return err
	}
	if len(gs.Trust) != s.cfg.Peers {
		return fmt.Errorf("snapshot sized for %d peers, server configured for %d",
			len(gs.Trust), s.cfg.Peers)
	}
	st := incentive.State{Kind: incentive.KindEigenTrust, GlobalTrust: *gs}
	return s.gt.LoadState(&st)
}

// readSnapshotFile decodes a snapshot. The header's two length words are
// checked against the size of the file before anything is sized from them,
// so a corrupt or truncated file is refused, not allocated for; the words
// after the header are then decoded block by block.
func readSnapshotFile(path string) (*incentive.GlobalTrustState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var header [len(snapshotMagic) + 3*8]byte
	if _, err := io.ReadFull(f, header[:]); err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	if magic := header[:len(snapshotMagic)]; string(magic) != snapshotMagic {
		return nil, fmt.Errorf("not a collabserve snapshot (magic %q)", magic)
	}
	words := header[len(snapshotMagic):]
	if v := binary.LittleEndian.Uint64(words); v != snapshotVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d", v)
	}
	n, nedges := binary.LittleEndian.Uint64(words[8:]), binary.LittleEndian.Uint64(words[16:])
	if n > 1<<30 || nedges > 1<<32 {
		return nil, fmt.Errorf("implausible snapshot header: peers=%d edges=%d", n, nedges)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// Edges (from, to, w), trust, score, dirty, sinceRefresh.
	rest := 8 * (3*nedges + 2*n + 2)
	if want := int64(len(header)) + int64(rest); fi.Size() != want {
		return nil, fmt.Errorf("snapshot is %d bytes, its header (peers=%d edges=%d) implies %d",
			fi.Size(), n, nedges, want)
	}
	wr := &wordReader{r: f, left: rest}
	gs := &incentive.GlobalTrustState{
		Edges: make([]reputation.Edge, nedges),
		Trust: make([]float64, n),
		Score: make([]float64, n),
	}
	for i := range gs.Edges {
		gs.Edges[i].From = int(wr.u64())
		gs.Edges[i].To = int(wr.u64())
		gs.Edges[i].W = wr.f64()
	}
	for i := range gs.Trust {
		gs.Trust[i] = wr.f64()
	}
	for i := range gs.Score {
		gs.Score[i] = wr.f64()
	}
	gs.Dirty = wr.u64() == 1
	gs.SinceRefresh = int(wr.u64())
	if wr.err != nil {
		return nil, fmt.Errorf("reading body: %w", wr.err)
	}
	return gs, nil
}
