package reputation

import "testing"

// Op codes of the FuzzCSRFollowsLog byte stream: the first byte picks the
// peer count, then every four bytes are one (op, a, b, w) step.
const (
	fzAdd     = iota // AddTrust(a, b, 1+w/16)
	fzSet            // SetTrust(a, b, w/16); w == 0 deletes
	fzDelete         // SetTrust(a, b, 0)
	fzClear          // ClearPeer(a)
	fzCompact        // Compact
	fzRefresh        // the consumer under test refreshes and is checked
	fzOther          // a second consumer of the same log refreshes and is checked
	fzOps
)

// fzPeers is the peer count the seeds use (first byte 56): the delta paths
// then take up to 64/deltaMaxFraction = 8 dirty rows.
const fzPeers = 64

// logConsumer is one CSR following a log, with the test's own model of
// where it stands: the log's pattern generation at its last refresh, and
// whether a dirty span has been drained (or a column stripped) behind its
// back since.
type logConsumer struct {
	c      *CSR
	patGen uint64
	missed bool
}

// refreshAndCheck refreshes the consumer, checks the path it reports
// against the model and its arrays against a fresh build of a clone, and
// tells the other consumers of the log what they missed.
func (lc *logConsumer) refreshAndCheck(t *testing.T, g *LogGraph, others ...*logConsumer) {
	t.Helper()
	g.Compact()
	n, rows := g.Len(), g.DirtyRowCount()
	stable := g.patGen == lc.patGen
	var want RefreshStats
	switch {
	case lc.missed || rows > n/deltaMaxFraction:
		want = RefreshStats{PatternStable: stable, RowsTouched: n}
	case stable:
		want = RefreshStats{PatternStable: true, DirtyOnly: true, RowsTouched: rows}
	default:
		want = RefreshStats{RowsTouched: rows}
	}
	if got := lc.c.Refresh(g); got != stable {
		t.Fatalf("Refresh reported stable=%v, want %v", got, stable)
	}
	if got := lc.c.LastRefresh(); got != want {
		t.Fatalf("refresh took %+v, want %+v (missed=%v, %d dirty rows of %d)", got, want, lc.missed, rows, n)
	}
	sameAsFreshBuild(t, lc.c, g)
	lc.patGen, lc.missed = g.patGen, false
	for _, o := range others {
		o.missed = o.missed || rows > 0
	}
}

// fzSeed assembles a seed for fzPeers peers from (op, a, b, w) steps.
func fzSeed(steps ...[4]byte) []byte {
	out := []byte{fzPeers - 8}
	for _, s := range steps {
		out = append(out, s[:]...)
	}
	return out
}

// FuzzCSRFollowsLog is the differential target for the CSR's refresh paths:
// a byte stream drives add / set / delete / ClearPeer / Compact on one
// LogGraph, interleaved with refreshes of two CSRs that follow it. After
// every refresh the refreshed CSR must name the path the model predicts and
// hold exactly the arrays of NewCSR(g.Clone()).
func FuzzCSRFollowsLog(f *testing.F) {
	add := func(a, b byte) [4]byte { return [4]byte{fzAdd, a, b, 16} }
	del := func(a, b byte) [4]byte { return [4]byte{fzDelete, a, b, 0} }
	refresh, other, compact := [4]byte{fzRefresh}, [4]byte{fzOther}, [4]byte{fzCompact}

	f.Add([]byte{})
	// Insert before the first and after the last source of a destination row.
	f.Add(fzSeed(add(20, 10), add(30, 10), refresh, add(5, 10), add(40, 10), refresh))
	// Delete a destination's only entry; the row that held it goes dangling
	// and comes back.
	f.Add(fzSeed(add(20, 11), add(21, 12), refresh, del(20, 11), refresh, add(20, 11), refresh))
	// Add then delete one pair across two compactions between refreshes: the
	// pattern generation moved, the pattern did not.
	f.Add(fzSeed(add(1, 2), refresh, add(3, 4), compact, del(3, 4), compact, refresh))
	// An insertion that outgrows the capacity of the first (empty) build,
	// then a mixed removal and insertion in one destination row.
	f.Add(fzSeed(refresh, add(1, 9), add(2, 9), add(3, 9), add(4, 9), refresh,
		del(2, 9), add(5, 9), del(4, 9), add(0, 9), refresh))
	// A delta over the n/deltaMaxFraction threshold takes the build.
	f.Add(fzSeed(add(1, 2), refresh, add(10, 1), add(11, 1), add(12, 1), add(13, 1), add(14, 1),
		add(15, 1), add(16, 1), add(17, 1), add(18, 1), refresh))
	// A consumer that missed a span, structural and value-only.
	f.Add(fzSeed(add(1, 2), refresh, add(3, 4), other, add(5, 6), refresh, add(1, 2), other, add(1, 2), refresh))
	// ClearPeer strips a column from a row nobody marked dirty.
	f.Add(fzSeed(add(1, 2), add(7, 4), add(7, 9), refresh, add(1, 5), [4]byte{fzClear, 4}, refresh,
		[4]byte{fzClear, 30}, add(1, 5), refresh))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 8 + int(data[0])%57
		data = data[1:]
		g, err := NewLogGraph(n)
		if err != nil {
			t.Fatal(err)
		}
		g.SetWatermark(1 + n/4) // keep auto-compaction in play
		a := &logConsumer{c: NewCSR(g), patGen: g.patGen}
		b := &logConsumer{c: NewCSR(g), patGen: g.patGen}
		for ; len(data) >= 4; data = data[4:] {
			from, to, w := int(data[1])%n, int(data[2])%n, float64(data[3])/16
			var err error
			switch data[0] % fzOps {
			case fzAdd:
				err = g.AddTrust(from, to, 1+w)
			case fzSet:
				err = g.SetTrust(from, to, w)
			case fzDelete:
				err = g.SetTrust(from, to, 0)
			case fzClear:
				g.Compact()
				before := g.NNZ()
				err = g.ClearPeer(from)
				if g.NNZ() != before {
					a.missed, b.missed = true, true
				}
			case fzCompact:
				g.Compact()
			case fzRefresh:
				a.refreshAndCheck(t, g, b)
			case fzOther:
				b.refreshAndCheck(t, g, a)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		a.refreshAndCheck(t, g, b)
		b.refreshAndCheck(t, g, a)
	})
}
