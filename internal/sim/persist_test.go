package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"collabnet/internal/agent"
	"collabnet/internal/articles"
	"collabnet/internal/core"
	"collabnet/internal/network"
	"collabnet/internal/reputation"
	"collabnet/internal/wire"
)

// TestSnapshotCodecRoundTripBitIdentical pins the persistence acceptance
// bar: for every scheme kind, encoding a full engine snapshot and decoding
// it into a fresh container reproduces every field bit-identically
// (reflect.DeepEqual over the whole struct, floats included).
func TestSnapshotCodecRoundTripBitIdentical(t *testing.T) {
	for _, kind := range allSchemeKinds {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := snapshotTestConfig(kind)
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 90; i++ {
				eng.StepOnce(1, true)
			}
			snap := eng.Snapshot(nil)

			data, err := snap.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			got := &EngineSnapshot{}
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap, got) {
				t.Fatal("decoded snapshot differs from the original")
			}

			// An engine restored from the decoded snapshot must continue
			// bit-identically to one restored from the in-memory snapshot.
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.RestoreFrom(snap); err != nil {
				t.Fatal(err)
			}
			if err := b.RestoreFrom(got); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60; i++ {
				a.StepOnce(1, true)
				b.StepOnce(1, true)
			}
			if !reflect.DeepEqual(a.Snapshot(nil), b.Snapshot(nil)) {
				t.Fatal("engines diverged after restoring the decoded snapshot")
			}
		})
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	cfg := snapshotTestConfig(allSchemeKinds[4])
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		eng.StepOnce(1, true)
	}
	snap := eng.Snapshot(nil)
	path := filepath.Join(t.TempDir(), "sub", "engine.snap")
	if err := wire.WriteFile(path, snap.file); err != nil {
		t.Fatal(err)
	}
	got := &EngineSnapshot{}
	if err := wire.ReadFile(path, got.file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatal("file round trip differs")
	}
}

func TestSnapshotCodecRejectsGarbage(t *testing.T) {
	s := &EngineSnapshot{}
	if err := s.UnmarshalBinary([]byte("not a snapshot at all")); err == nil {
		t.Error("garbage should not decode")
	}
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Error("empty input should not decode")
	}
	// Valid magic, truncated body.
	if err := s.UnmarshalBinary([]byte(snapMagic)); err == nil {
		t.Error("truncated input should not decode")
	}
	if err := wire.ReadFile(filepath.Join(t.TempDir(), "missing.snap"), s.file); err == nil {
		t.Error("missing file should error")
	}
}

// checkpointChain builds a deterministic little warm-start sweep chain.
func checkpointChain(points int) SweepChain {
	c := SweepChain{Name: "ckpt chain/0"}
	for p := 0; p < points; p++ {
		cfg := Quick()
		cfg.Peers = 20
		cfg.TrainSteps = 120
		cfg.MeasureSteps = 60
		cfg.SeedArticles = 6
		cfg.Seed = 77
		cfg.Mix = Mixture{Rational: 1 - float64(p)*0.1, Altruistic: float64(p) * 0.1}
		c.Points = append(c.Points, Job{Name: fmt.Sprintf("p%d", p), Config: cfg})
	}
	return c
}

// TestChainCheckpointResumeBitIdentical is the resume determinism pin: a
// chain interrupted after k points and resumed from its checkpoint file (in
// a fresh process, modeled by a fresh RunChains call) produces exactly the
// results of an uninterrupted run.
func TestChainCheckpointResumeBitIdentical(t *testing.T) {
	const points = 3
	opt := ChainOptions{WarmStart: true}
	full := runChain(checkpointChain(points), opt)
	if full.Err != nil {
		t.Fatal(full.Err)
	}

	dir := t.TempDir()
	opt.CheckpointDir = dir
	// "Interrupted" run: the same chain truncated to its first two points —
	// exactly the state a killed process leaves behind in the checkpoint.
	prefix := checkpointChain(points)
	prefix.Points = prefix.Points[:2]
	if cr := runChain(prefix, opt); cr.Err != nil {
		t.Fatal(cr.Err)
	}
	// Resumed run: loads the checkpoint, skips the two completed points.
	resumed := runChain(checkpointChain(points), opt)
	if resumed.Err != nil {
		t.Fatal(resumed.Err)
	}
	if !reflect.DeepEqual(full.Results, resumed.Results) {
		t.Fatal("resumed chain results differ from the uninterrupted run")
	}
	// Completed chains resume to their stored results without re-running.
	again := runChain(checkpointChain(points), opt)
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	if !reflect.DeepEqual(full.Results, again.Results) {
		t.Fatal("re-resumed chain results differ")
	}
}

// TestGoldenCheckpoint pins the chain-checkpoint layout to committed bytes:
// testdata/ckpt-chain-0.ckpt is the checkpoint checkpointChain(3) leaves
// after its first two points, as the previous codec wrote it. Decoding it
// and encoding it again reproduces it byte for byte, and resuming the chain
// from it gives exactly the results of an uninterrupted run.
func TestGoldenCheckpoint(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "ckpt-chain-0.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	chain := checkpointChain(3)
	dir := t.TempDir()
	if err := os.WriteFile(checkpointPath(dir, chain.Name), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, ok := loadChainCheckpoint(dir, chain.Name, len(chain.Points))
	if !ok || len(ck.Done) != 2 {
		t.Fatalf("golden checkpoint does not decode to two completed points (ok=%v)", ok)
	}
	again, err := wire.Marshal(ck.file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, golden) {
		t.Fatalf("re-encoded golden checkpoint differs: %d bytes, golden %d", len(again), len(golden))
	}
	full := runChain(checkpointChain(3), ChainOptions{WarmStart: true})
	resumed := runChain(chain, ChainOptions{WarmStart: true, CheckpointDir: dir})
	if full.Err != nil || resumed.Err != nil {
		t.Fatal(full.Err, resumed.Err)
	}
	if !reflect.DeepEqual(full.Results, resumed.Results) {
		t.Fatal("chain resumed from the golden checkpoint differs from the uninterrupted run")
	}
}

// TestChainCheckpointThroughRunChains exercises the public path end to end:
// RunChains with a CheckpointDir equals RunChains without one, both cold
// and warm, and stale checkpoints from a different chain name are ignored.
func TestChainCheckpointThroughRunChains(t *testing.T) {
	mk := func(name string) []SweepChain {
		c := checkpointChain(2)
		c.Name = name
		return []SweepChain{c}
	}
	for _, warm := range []bool{false, true} {
		dir := t.TempDir()
		ref := RunChains(mk("a"), ChainOptions{WarmStart: warm}, 1)
		got := RunChains(mk("a"), ChainOptions{WarmStart: warm, CheckpointDir: dir}, 1)
		if ref[0].Err != nil || got[0].Err != nil {
			t.Fatal(ref[0].Err, got[0].Err)
		}
		if !reflect.DeepEqual(ref[0].Results, got[0].Results) {
			t.Fatalf("warm=%v: checkpointed run differs", warm)
		}
		// A different chain name must not pick up the existing file.
		other := RunChains(mk("b"), ChainOptions{WarmStart: warm, CheckpointDir: dir}, 1)
		if other[0].Err != nil {
			t.Fatal(other[0].Err)
		}
		if !reflect.DeepEqual(ref[0].Results, other[0].Results) {
			t.Fatalf("warm=%v: fresh chain under a new name differs", warm)
		}
	}
}

func TestChainCheckpointIgnoresCorruptFile(t *testing.T) {
	dir := t.TempDir()
	c := checkpointChain(2)
	// Pre-plant garbage where the checkpoint would live.
	if err := os.WriteFile(checkpointPath(dir, c.Name), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := ChainOptions{WarmStart: true, CheckpointDir: dir}
	got := runChain(c, opt)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	want := runChain(checkpointChain(2), ChainOptions{WarmStart: true})
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Fatal("corrupt checkpoint changed the results")
	}
}

// corruptAgentSnapshot returns a 72-byte engine snapshot: a valid
// header, a step, the RNG words and an empty online list, then an agent
// list whose length word claims 2³¹ entries and nothing after it. body is
// everything after the version word.
func corruptAgentSnapshot() (snap, body []byte) {
	// step, RNG words, empty online list, agent-list length
	for _, w := range []uint64{7, 1, 2, 3, 4, 0, 1 << 31} {
		body = binary.LittleEndian.AppendUint64(body, w)
	}
	snap = binary.LittleEndian.AppendUint64([]byte(snapMagic), codecVersion)
	return append(snap, body...), body
}

// allocated reports the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCorruptSnapshotAllocatesWhatItHolds pins that a length word cannot
// make the decoders allocate: a 72-byte engine snapshot whose agent list
// claims 2³¹ entries is an error from UnmarshalBinary, and the same bytes inside a
// checkpoint file are a cold start — both after allocating less than 1 MiB,
// not the ~400 GB the length word asks for.
func TestCorruptSnapshotAllocatesWhatItHolds(t *testing.T) {
	snap, body := corruptAgentSnapshot()
	if len(snap) != 72 {
		t.Fatalf("corrupt snapshot is %d bytes, want 72", len(snap))
	}
	if got := allocated(func() {
		var s EngineSnapshot
		if err := s.UnmarshalBinary(snap); err == nil {
			t.Error("truncated agent list decoded without error")
		}
	}); got >= 1<<20 {
		t.Errorf("UnmarshalBinary allocated %d bytes for a 72-byte snapshot", got)
	}

	dir := t.TempDir()
	const name = "chain"
	ckpt := binary.LittleEndian.AppendUint64([]byte(ckptMagic), codecVersion)
	ckpt = append(binary.LittleEndian.AppendUint64(ckpt, uint64(len(name))), name...)
	ckpt = binary.LittleEndian.AppendUint64(ckpt, 0) // no completed points
	if err := os.WriteFile(checkpointPath(dir, name), append(ckpt, body...), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := allocated(func() {
		if c, ok := loadChainCheckpoint(dir, name, 4); ok || c != nil {
			t.Error("corrupt checkpoint was accepted")
		}
	}); got >= 1<<20 {
		t.Errorf("loadChainCheckpoint allocated %d bytes for a corrupt checkpoint", got)
	}
}

// engineSnapshotAllocPerByte is the constant c of FuzzEngineSnapshotReadFrom:
// a decode may allocate at most c·len(input) + 1 MiB. A list is allocated
// only once the bytes that remain could hold its elements at their minimum
// encoded size, so a list costs at most its element's in-memory size over
// that minimum per remaining byte. The largest such ratio is the agents': a
// non-rational agent is 16 bytes on disk and a 184-byte agent.Snapshot in
// memory. A decode that stops inside a list has also allocated the list it
// stopped in within that element, against the same bytes: at most a Q-table,
// revision or editor list, strings included, each one byte per byte. Hence
// the largest ratio rounded up, plus one.
const engineSnapshotAllocPerByte = uint64(max(
	(unsafe.Sizeof(agent.Snapshot{})+minAgent-1)/minAgent,
	(unsafe.Sizeof(core.LedgerState{})+15*8-1)/(15*8),
	(unsafe.Sizeof(articles.ArticleSnapshot{})+minArticle-1)/minArticle,
	(unsafe.Sizeof(articles.Revision{})+minRevision-1)/minRevision,
	(unsafe.Sizeof(network.Transfer{})+minTransfer-1)/minTransfer,
	(unsafe.Sizeof(reputation.Edge{})+24-1)/24,
)) + 1

// FuzzEngineSnapshotReadFrom feeds arbitrary bytes to the engine snapshot
// decoder: it returns an error or a snapshot, never panics, and allocates
// at most engineSnapshotAllocPerByte bytes per input byte plus 1 MiB.
func FuzzEngineSnapshotReadFrom(f *testing.F) {
	for _, kind := range allSchemeKinds {
		eng, err := New(snapshotTestConfig(kind))
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			eng.StepOnce(1, true)
		}
		data, err := eng.Snapshot(nil).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	corrupt, _ := corruptAgentSnapshot()
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s EngineSnapshot
		grew := allocated(func() { _ = s.UnmarshalBinary(data) })
		if limit := engineSnapshotAllocPerByte*uint64(len(data)) + 1<<20; grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
	})
}
