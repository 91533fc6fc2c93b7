package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
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

			var buf bytes.Buffer
			if _, err := snap.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			got := &EngineSnapshot{}
			if _, err := got.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
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
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatal("file round trip differs")
	}
}

func TestSnapshotCodecRejectsGarbage(t *testing.T) {
	s := &EngineSnapshot{}
	if _, err := s.ReadFrom(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Error("garbage should not decode")
	}
	if _, err := s.ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should not decode")
	}
	// Valid magic, truncated body.
	if _, err := s.ReadFrom(bytes.NewReader([]byte(snapMagic))); err == nil {
		t.Error("truncated input should not decode")
	}
	if _, err := ReadSnapshotFile(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
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
	if err := atomicWrite(checkpointPath(dir, c.Name), func(w io.Writer) error {
		_, err := w.Write([]byte("garbage"))
		return err
	}); err != nil {
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
	var buf bytes.Buffer
	b := &binWriter{w: &buf}
	b.i(7) // step
	for k := 0; k < 4; k++ {
		b.u64(uint64(k) + 1) // RNG words
	}
	b.i(0)       // empty online list
	b.i(1 << 31) // agent-list length, and nothing after it
	snap = append([]byte(snapMagic), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(snap[8:], codecVersion)
	return append(snap, buf.Bytes()...), buf.Bytes()
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
// claims 2³¹ entries is an error from ReadFrom, and the same bytes inside a
// checkpoint file are a cold start — both after allocating less than 1 MiB,
// not the ~400 GB the length word asks for.
func TestCorruptSnapshotAllocatesWhatItHolds(t *testing.T) {
	snap, body := corruptAgentSnapshot()
	if len(snap) != 72 {
		t.Fatalf("corrupt snapshot is %d bytes, want 72", len(snap))
	}
	if got := allocated(func() {
		var s EngineSnapshot
		if _, err := s.ReadFrom(bytes.NewReader(snap)); err == nil {
			t.Error("truncated agent list decoded without error")
		}
	}); got >= 1<<20 {
		t.Errorf("ReadFrom allocated %d bytes for a 72-byte snapshot", got)
	}

	dir := t.TempDir()
	const name = "chain"
	if err := atomicWrite(checkpointPath(dir, name), func(w io.Writer) error {
		cb := &binWriter{w: w}
		cb.raw(ckptMagic)
		cb.u64(codecVersion)
		cb.str(name)
		cb.i(0) // no completed points
		cb.raw(string(body))
		return cb.err
	}); err != nil {
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
// a decode may allocate at most c·len(input) + 1 MiB. Every list grows as
// its bytes arrive, so the cost per input byte is the in-memory element
// size over its encoded size times append's growth overhead. The worst list
// is the agents': a non-rational agent is 16 bytes on disk and a 184-byte
// agent.Snapshot in memory, and a file of n such agents cut short after
// them measured 29 (n = 100) to 67 (n = 10⁵) bytes allocated per input byte.
const engineSnapshotAllocPerByte = 80

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
		var buf bytes.Buffer
		if _, err := eng.Snapshot(nil).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	corrupt, _ := corruptAgentSnapshot()
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s EngineSnapshot
		grew := allocated(func() { _, _ = s.ReadFrom(bytes.NewReader(data)) })
		if limit := engineSnapshotAllocPerByte*uint64(len(data)) + 1<<20; grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
	})
}
