package reputation

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"collabnet/internal/xrand"
)

// epochMatchesLog fails the test unless the published epoch's arrays are
// bit-identical to the serial reference log's compacted arrays.
func epochMatchesLog(t *testing.T, cg *ConcurrentGraph, ref *LogGraph) {
	t.Helper()
	ref.Compact()
	e := cg.Acquire()
	defer e.Release()
	if !reflect.DeepEqual(e.rowPtr[:ref.n+1], ref.rowPtr) {
		t.Fatalf("rowPtr diverged:\n concurrent %v\n serial     %v", e.rowPtr[:ref.n+1], ref.rowPtr)
	}
	if !reflect.DeepEqual(append([]int32{}, e.colIdx...), append([]int32{}, ref.colIdx...)) {
		t.Fatalf("colIdx diverged:\n concurrent %v\n serial     %v", e.colIdx, ref.colIdx)
	}
	if !reflect.DeepEqual(append([]float64{}, e.val...), append([]float64{}, ref.val...)) {
		t.Fatalf("val diverged:\n concurrent %v\n serial     %v", e.val, ref.val)
	}
}

// TestConcurrentGraphSerialEquivalenceRandomized replays randomized mixed
// add/set/flush/clear/ClearPeer schedules through the concurrent store and
// the serial LogGraph in the same order and pins the published epoch to the
// serial compacted arrays bit-identically at every flush point — the
// serial-reference guarantee on single-threaded schedules.
func TestConcurrentGraphSerialEquivalenceRandomized(t *testing.T) {
	const n = 24
	for seed := uint64(1); seed <= 6; seed++ {
		rng := xrand.New(seed)
		cg, err := NewConcurrentGraph(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewLogGraph(n)
		if err != nil {
			t.Fatal(err)
		}
		// A huge log watermark so compaction points are driven explicitly.
		ref.SetWatermark(1 << 20)
		for step := 0; step < 3000; step++ {
			from, to := rng.Intn(n), rng.Intn(n)
			w := float64(rng.Intn(8))
			switch rng.Intn(10) {
			case 0:
				if e1, e2 := cg.SetTrust(from, to, w-2), ref.SetTrust(from, to, w-2); e1 != nil || e2 != nil {
					t.Fatal(e1, e2)
				}
			case 1:
				cg.Flush()
				epochMatchesLog(t, cg, ref)
			case 2:
				p := rng.Intn(n)
				if e1, e2 := cg.ClearPeer(p), ref.ClearPeer(p); e1 != nil || e2 != nil {
					t.Fatal(e1, e2)
				}
				epochMatchesLog(t, cg, ref)
			default:
				if e1, e2 := cg.AddTrust(from, to, w), ref.AddTrust(from, to, w); e1 != nil || e2 != nil {
					t.Fatal(e1, e2)
				}
			}
		}
		cg.Flush()
		epochMatchesLog(t, cg, ref)
		// Lock-free point reads agree with the serial store everywhere.
		for from := 0; from < n; from++ {
			if cg.OutDegree(from) != ref.OutDegree(from) {
				t.Fatalf("OutDegree(%d) diverged", from)
			}
			for to := 0; to < n; to++ {
				if cg.Trust(from, to) != ref.Trust(from, to) {
					t.Fatalf("Trust(%d,%d) diverged", from, to)
				}
			}
		}
		// And the canonical edge lists (and therefore snapshots) match.
		if !reflect.DeepEqual(cg.AppendEdges(nil), ref.AppendEdges(nil)) {
			t.Fatal("AppendEdges diverged")
		}
	}
}

// TestConcurrentGraphParallelWritersBitIdentical is the concurrent half of
// the serial-reference guarantee: writer goroutines own disjoint source
// rows and race freely (with live lock-free readers and concurrent flushes
// in flight); because compaction folds the tail row by row and a source's
// statements stay ordered on its shard, the final compacted arrays — and
// the EigenTrust vector computed from them — must be bit-identical to a
// serial LogGraph replaying the same per-source sequences, for every
// interleaving the scheduler produces.
func TestConcurrentGraphParallelWritersBitIdentical(t *testing.T) {
	const (
		n       = 64
		writers = 8
		opsEach = 2500
	)
	for seed := uint64(1); seed <= 3; seed++ {
		cg, err := NewConcurrentGraph(n, 4)
		if err != nil {
			t.Fatal(err)
		}

		// Pre-generate each writer's deterministic op sequence (sources
		// disjoint per writer) so the concurrent run and the serial replay
		// see the same per-source subsequences.
		type op struct {
			from, to int
			w        float64
			set      bool
		}
		seqs := make([][]op, writers)
		for w := range seqs {
			rng := xrand.New(seed*1000 + uint64(w))
			ops := make([]op, opsEach)
			for k := range ops {
				ops[k] = op{
					from: w + writers*rng.Intn(n/writers), // sources ≡ w (mod writers)
					to:   rng.Intn(n),
					w:    float64(1 + rng.Intn(5)),
					set:  rng.Intn(8) == 0,
				}
			}
			seqs[w] = ops
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		// Live lock-free readers validating snapshot well-formedness.
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var lastSeq uint64
				for {
					select {
					case <-stop:
						return
					default:
					}
					e := cg.Acquire()
					if e.Seq() < lastSeq {
						t.Error("epoch sequence went backwards")
					}
					lastSeq = e.Seq()
					validateEpoch(t, e)
					e.Release()
					runtime.Gosched() // let a single-P scheduler rotate pins
				}
			}()
		}
		// A concurrent flusher racing the writers, so the run crosses
		// publish boundaries mid-stream.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					cg.Flush()
					runtime.Gosched()
				}
			}
		}()

		var writerWG sync.WaitGroup
		for w := 0; w < writers; w++ {
			writerWG.Add(1)
			go func(w int) {
				defer writerWG.Done()
				for _, o := range seqs[w] {
					var err error
					if o.set {
						err = cg.SetTrust(o.from, o.to, o.w)
					} else {
						err = cg.AddTrust(o.from, o.to, o.w)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		writerWG.Wait()
		close(stop)
		wg.Wait()
		cg.Flush()

		// Serial replay: any order that preserves each source's sequence.
		ref, err := NewLogGraph(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, ops := range seqs {
			for _, o := range ops {
				if o.set {
					err = ref.SetTrust(o.from, o.to, o.w)
				} else {
					err = ref.AddTrust(o.from, o.to, o.w)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		epochMatchesLog(t, cg, ref)

		// The trust machinery downstream agrees bit-identically too.
		want, err := EigenTrust(ref, DefaultEigenTrust())
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		cg.Exclusive(func(lg *LogGraph) {
			v, cerr := EigenTrust(lg, DefaultEigenTrust())
			if cerr != nil {
				t.Error(cerr)
				return
			}
			got = v
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatal("EigenTrust over the concurrent store diverged from the serial reference")
		}
	}
}

// validateEpoch checks the structural invariants every published snapshot
// must satisfy: monotone row pointers, strictly ascending positive columns
// per row, strictly positive weights. A torn or recycled buffer handed to a
// reader would trip these (and the race detector).
func validateEpoch(t *testing.T, e *GraphEpoch) {
	n := e.Len()
	if len(e.rowPtr) < n+1 {
		t.Errorf("epoch rowPtr too short: %d < %d", len(e.rowPtr), n+1)
		return
	}
	if e.rowPtr[0] != 0 || e.rowPtr[n] > len(e.val) {
		t.Error("epoch rowPtr endpoints corrupt")
		return
	}
	for i := 0; i < n; i++ {
		if e.rowPtr[i] > e.rowPtr[i+1] {
			t.Error("epoch rowPtr not monotone")
			return
		}
		prev := int32(-1)
		for k := e.rowPtr[i]; k < e.rowPtr[i+1]; k++ {
			if e.colIdx[k] <= prev || int(e.colIdx[k]) >= n {
				t.Error("epoch columns not strictly ascending in range")
				return
			}
			if e.val[k] <= 0 {
				t.Error("epoch holds a non-positive weight")
				return
			}
			prev = e.colIdx[k]
		}
	}
}

// TestConcurrentGraphStressMixedSchedule is the race-detector stress: remove
// all determinism and race writers, lock-free readers, flushers, and
// identity churn (ClearPeer racing writes) against each other. Nothing is
// pinned beyond snapshot well-formedness and termination — the test exists
// to give `go test -race` a dense interleaving surface, and CI runs it in a
// dedicated job with a deadlock timeout.
func TestConcurrentGraphStressMixedSchedule(t *testing.T) {
	const n = 48
	cg, err := NewConcurrentGraph(n, 3)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // flusher: publishes racing the writers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cg.Flush()
				runtime.Gosched()
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + r))
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := cg.Acquire()
				validateEpoch(t, e)
				_ = e.Trust(rng.Intn(n), rng.Intn(n))
				e.Release()
				_ = cg.Trust(rng.Intn(n), rng.Intn(n))
				_ = cg.OutDegree(rng.Intn(n))
				if s := cg.TrustSnapshot(); s != nil && len(s.Vector) != n {
					t.Error("trust snapshot with wrong length")
				}
				// Yield between iterations so a single-P scheduler can
				// rotate pinned readers promptly instead of holding each
				// pin for a whole preemption quantum.
				runtime.Gosched()
			}
		}(r)
	}
	wg.Add(1)
	go func() { // churner: ClearPeer racing everything
		defer wg.Done()
		rng := xrand.New(7)
		for i := 0; i < 200; i++ {
			if err := cg.ClearPeer(rng.Intn(n)); err != nil {
				t.Error(err)
			}
			runtime.Gosched()
		}
	}()
	wg.Add(1)
	go func() { // refresher: solve + publish trust snapshots mid-churn
		defer wg.Done()
		ws := NewEigenTrustWorkspace()
		for i := 0; i < 60; i++ {
			var tv []float64
			seq := cg.Exclusive(func(lg *LogGraph) {
				v, err := ws.Compute(lg, DefaultEigenTrust())
				if err != nil {
					t.Error(err)
					return
				}
				tv = v
			})
			if tv != nil {
				cg.PublishTrustAt(seq, tv)
			}
			runtime.Gosched()
		}
	}()
	var writerWG sync.WaitGroup
	for w := 0; w < 6; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := xrand.New(uint64(w + 1))
			for i := 0; i < 20000; i++ {
				from, to := rng.Intn(n), rng.Intn(n)
				switch rng.Intn(8) {
				case 0:
					_ = cg.SetTrust(from, to, float64(rng.Intn(4)))
				case 1:
					cg.Flush()
				default:
					_ = cg.AddTrust(from, to, 1)
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()
	cg.Flush()
	st := cg.Stats()
	if st.Pending != 0 {
		t.Errorf("pending statements after final flush: %d", st.Pending)
	}
	if st.Readers != 0 {
		t.Errorf("readers still pinned after joins: %d", st.Readers)
	}
	e := cg.Acquire()
	validateEpoch(t, e)
	e.Release()
}

// TestConcurrentGraphEpochLeak is the buffer-retirement property test: over
// 10k compaction/publish cycles with readers pinning along the way, the
// store must cycle exactly two buffers — every retired buffer is reused
// once its readers drain, and no publish allocates a third.
func TestConcurrentGraphEpochLeak(t *testing.T) {
	const n = 32
	cg, err := NewConcurrentGraph(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	buffers := map[*GraphEpoch]bool{}
	for i := 0; i < 10000; i++ {
		// Always a real statement (from != to): an ignored one would leave
		// the store clean and the flush below would rightly skip its swap.
		from := rng.Intn(n)
		if err := cg.AddTrust(from, (from+1+rng.Intn(n-1))%n, 1); err != nil {
			t.Fatal(err)
		}
		e := cg.Acquire() // reader pinned across the publish below
		cg.Flush()
		e.Release()
		cur := cg.Acquire()
		buffers[cur] = true
		cur.Release()
		if len(buffers) > 2 {
			t.Fatalf("iteration %d: %d distinct epoch buffers observed, double buffering leaked", i, len(buffers))
		}
	}
	st := cg.Stats()
	if st.Swaps < 10000 {
		t.Errorf("expected >= 10000 publishes, got %d", st.Swaps)
	}
	if st.Readers != 0 || st.Pending != 0 {
		t.Errorf("store not drained: %+v", st)
	}
}

// TestConcurrentGraphAcquireRollbackSignalsDrain is the regression test for
// the Acquire rollback path. A reader that pins an epoch, loses the pointer
// re-validation to a publish, and rolls back may be the last pin on a
// buffer a second publish is already parked on — the rollback must go
// through Release so the drained signal fires. A bare decrement here
// deadlocked the whole maintenance plane permanently: the epoch is no
// longer reachable through the current pointer, so no later reader's
// Release would ever wake the parked publisher. The test uses
// acquirePinHook to drive two publishes into exactly the window between
// Acquire's reader-count increment and its pointer re-validation, and
// repeats the forced interleaving to shake out wakeup-ordering variants.
func TestConcurrentGraphAcquireRollbackSignalsDrain(t *testing.T) {
	cg, err := NewConcurrentGraph(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { acquirePinHook = nil }()
	for iter := 0; iter < 25; iter++ {
		published := make(chan struct{})
		fired := false // hook runs only on this goroutine; re-entries no-op
		acquirePinHook = func(e *GraphEpoch) {
			if fired {
				return
			}
			fired = true
			// Publish #1: swaps the pinned epoch out from under the caller;
			// it becomes the spare with the caller's pin still on it.
			if err := cg.AddTrust(0, 1, 1); err != nil {
				t.Error(err)
				return
			}
			cg.Flush()
			// Publish #2, on another goroutine: must reuse the pinned spare,
			// so it parks on that buffer's drain signal.
			go func() {
				if err := cg.AddTrust(1, 2, 1); err != nil {
					t.Error(err)
				}
				cg.Flush()
				close(published)
			}()
			// Only proceed once the publisher is committed to parking, so
			// the rollback below is provably the wakeup that saves it.
			for !e.retiring.Load() {
				runtime.Gosched()
			}
		}
		// The hook fires inside: re-validation fails, and the rollback must
		// wake the parked publisher. With a bare decrement this hangs
		// forever. The retry may hand back either publish's epoch (the
		// retried load races the woken publisher's swap); both are valid.
		e := cg.Acquire()
		validateEpoch(t, e)
		select {
		case <-published:
		case <-time.After(30 * time.Second):
			t.Fatal("publisher deadlocked: Acquire's rollback dropped the last pin on a retiring epoch without signalling the drain")
		}
		e.Release()
		// With publish #2 complete, the store serves both edges lock-free.
		if got := cg.Trust(1, 2); got != float64(iter+1) {
			t.Fatalf("iteration %d: Trust(1,2) = %v after both publishes, want %d", iter, got, iter+1)
		}
	}
}

// TestConcurrentGraphRetireWaitsForDrain pins the retirement protocol: a
// publish that finds the spare buffer still pinned must wait for the reader
// to drain (counting a retire-wait) and complete only after Release.
func TestConcurrentGraphRetireWaitsForDrain(t *testing.T) {
	cg, err := NewConcurrentGraph(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.AddTrust(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	e := cg.Acquire() // pin the founding epoch...
	cg.Flush()        // ...swap makes it the spare; our pin keeps it hot
	if err := cg.AddTrust(0, 2, 1); err != nil {
		t.Fatal(err) // give the second flush real work (clean flushes no-op)
	}
	done := make(chan struct{})
	go func() {
		cg.Flush() // must wait: spare buffer still pinned
		close(done)
	}()
	for cg.retireWaits.Load() == 0 {
		runtime.Gosched() // until the publisher reports it is waiting
	}
	select {
	case <-done:
		t.Fatal("publish completed while the spare epoch was still pinned")
	default:
	}
	e.Release()
	<-done
	if got := cg.Stats().RetireWaits; got == 0 {
		t.Error("retire wait not recorded")
	}
}

// TestConcurrentGraphReadPathAllocFree pins the acceptance criterion: the
// steady-state lock-free read path — pin, point reads, row iteration,
// trust-snapshot grab, release — performs zero allocations.
func TestConcurrentGraphReadPathAllocFree(t *testing.T) {
	const n = 128
	cg, err := NewConcurrentGraph(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	for i := 0; i < 2000; i++ {
		if err := cg.AddTrust(rng.Intn(n), rng.Intn(n), 1); err != nil {
			t.Fatal(err)
		}
	}
	cg.Flush()
	cg.PublishTrust(make([]float64, n))
	sink := 0.0
	allocs := testing.AllocsPerRun(200, func() {
		e := cg.Acquire()
		sink += e.Trust(1, 2)
		e.OutEdges(3, func(to int, w float64) { sink += w })
		sink += float64(e.OutDegree(4))
		e.Release()
		sink += cg.Trust(5, 6)
		sink += cg.TrustSnapshot().Vector[7]
	})
	if allocs != 0 {
		t.Errorf("read path allocates %v per run, want 0", allocs)
	}
	_ = sink
}

// TestConcurrentGraphTrustSnapshotImmutable pins the snapshot contract:
// PublishTrust copies, later refreshes never mutate an already-published
// snapshot, and the epoch stamp matches the published graph epoch.
func TestConcurrentGraphTrustSnapshotImmutable(t *testing.T) {
	cg, err := NewConcurrentGraph(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	vec := []float64{0.25, 0.25, 0.25, 0.25}
	cg.PublishTrust(vec)
	first := cg.TrustSnapshot()
	vec[0] = 99 // caller reuses its buffer; the snapshot must not see it
	if first.Vector[0] != 0.25 {
		t.Fatal("PublishTrust did not copy the vector")
	}
	if err := cg.AddTrust(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	cg.Flush()
	cg.PublishTrust([]float64{0.5, 0.5, 0, 0})
	second := cg.TrustSnapshot()
	if first.Vector[1] != 0.25 {
		t.Fatal("a later refresh mutated an already-published snapshot")
	}
	if second.Seq <= first.Seq {
		t.Errorf("snapshot epoch stamp did not advance: %d then %d", first.Seq, second.Seq)
	}
	if second.Seq != cg.Stats().Epoch {
		t.Errorf("snapshot stamped with epoch %d, graph at %d", second.Seq, cg.Stats().Epoch)
	}
}

// TestConcurrentGraphInterfaceSemantics pins Graph-interface parity on the
// validation and whole-graph paths: out-of-range errors, ignored self and
// non-positive statements, LoadEdges/Clear round trips.
func TestConcurrentGraphInterfaceSemantics(t *testing.T) {
	cg, err := NewConcurrentGraph(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewConcurrentGraph(0, 1); err == nil {
		t.Error("n = 0 must error")
	}
	if err := cg.AddTrust(-1, 0, 1); err == nil {
		t.Error("out-of-range AddTrust must error")
	}
	if err := cg.SetTrust(0, 9, 1); err == nil {
		t.Error("out-of-range SetTrust must error")
	}
	if err := cg.ClearPeer(17); err == nil {
		t.Error("out-of-range ClearPeer must error")
	}
	if err := cg.AddTrust(2, 2, 5); err != nil { // self-trust ignored
		t.Fatal(err)
	}
	if err := cg.AddTrust(0, 1, -3); err != nil { // non-positive ignored
		t.Fatal(err)
	}
	cg.Flush()
	if got := cg.Stats(); got.Epoch != 0 {
		t.Error("a flush with nothing new must not force an epoch swap")
	}
	if cg.Trust(2, 2) != 0 || cg.Trust(0, 1) != 0 {
		t.Error("ignored statements leaked into the store")
	}
	if err := cg.AddTrust(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	cg.Flush()
	if got := cg.Stats(); got.Epoch == 0 {
		t.Error("flush did not publish an epoch")
	}
	edges := []Edge{{From: 0, To: 1, W: 2}, {From: 3, To: 4, W: 1}}
	if err := cg.LoadEdges(edges); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cg.AppendEdges(nil), edges) {
		t.Error("LoadEdges/AppendEdges round trip diverged")
	}
	if cg.Trust(0, 1) != 2 {
		t.Error("lock-free read missed loaded edge")
	}
	cg.Clear()
	if cg.AppendEdges(nil) != nil {
		t.Error("Clear left edges behind")
	}
	if cg.Len() != 5 {
		t.Error("Clear changed the peer count")
	}
}
