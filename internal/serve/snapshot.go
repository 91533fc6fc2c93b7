package serve

import (
	"fmt"

	"collabnet/internal/incentive"
	"collabnet/internal/wire"
)

// The warm-restart snapshot is a magic string, a version word and the
// scheme state in incentive.State's own layout (Kind EigenTrust: the
// canonical edge list, trust vector, scores and refresh bookkeeping), coded
// by package wire. Every field is written in canonical order, so two
// snapshots of equal state are equal byte-for-byte — the property the
// warm-restart bit-identity test pins. Version 1 spelled the same fields
// with its own header of lengths; it is refused.
const (
	snapshotMagic   = "CLSRVS\n"
	snapshotVersion = 2
)

// snapshotFile is the layout of the snapshot file holding st.
func snapshotFile(st *incentive.State) func(*wire.Codec) {
	return func(c *wire.Codec) {
		c.Header(snapshotMagic, snapshotVersion)
		st.Codec(c)
	}
}

// SaveSnapshot quiesces nothing by itself: call it after Stop (or after a
// flush) so the saved edge list reflects every drained event. The file is
// written atomically (temp + fsync + rename, creating its directory), so a
// crash mid-write leaves the previous snapshot intact.
func (s *Server) SaveSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return fmt.Errorf("serve: no snapshot path configured")
	}
	var st incentive.State
	s.gt.SaveState(&st)
	return wire.WriteFile(s.cfg.SnapshotPath, snapshotFile(&st))
}

// loadSnapshot restores scheme state written by SaveSnapshot. It runs at
// construction time, before any goroutine exists, so calling LoadState
// directly (single-threaded) is safe; LoadState refuses state of another
// kind or peer count, and republishes the trust snapshot at the restored
// graph's epoch in concurrent mode.
func (s *Server) loadSnapshot(path string) error {
	var st incentive.State
	if err := wire.ReadFile(path, snapshotFile(&st)); err != nil {
		return err
	}
	return s.gt.LoadState(&st)
}
