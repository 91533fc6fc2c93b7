package serve

import (
	"sync"
	"sync/atomic"

	"collabnet/internal/reputation"
)

// batch is one writer work item: a run of pre-validated events that share
// an ingest shard, or a barrier sentinel (nil events, non-nil barrier).
type batch struct {
	events  []Event
	barrier chan<- struct{}
}

// writer is the batched async write plane: per-shard bounded queues in
// front of the concurrent store's enqueue path. HTTP handlers admit a
// request's per-shard event groups with admit (non-blocking and all or
// nothing — a full queue is a 429, the backpressure signal); one drainer
// goroutine per shard applies events in queue order. Because events shard by source peer and each
// shard's queue is FIFO, per-source statement order is preserved into the
// store, which is all the store's serial-reference guarantee needs.
type writer struct {
	store  reputation.Graph
	shards []chan batch
	wg     sync.WaitGroup

	// admitMu serializes everything that sends on the shard queues, so the
	// room admit saw in a queue is still there when it sends. The drainers,
	// the only receivers, never take it.
	admitMu sync.Mutex

	applied atomic.Uint64 // events written through to the store
}

// newWriter builds the write plane with the given shard count and
// per-shard queue depth (in batches). Drainers start with start().
func newWriter(store reputation.Graph, shards, depth int) *writer {
	w := &writer{store: store, shards: make([]chan batch, shards)}
	for i := range w.shards {
		w.shards[i] = make(chan batch, depth)
	}
	return w
}

// start launches one drainer per shard.
func (w *writer) start() {
	w.wg.Add(len(w.shards))
	for i := range w.shards {
		go w.drain(w.shards[i])
	}
}

// shardFor maps a statement's source peer to its queue. The store applies
// the same source-keyed sharding internally, so the two layers compose
// without reordering any source's statements.
func (w *writer) shardFor(source int) int { return source % len(w.shards) }

// admit enqueues every non-empty group (indexed by shard) or, when any of
// their queues is full, none of them; false means the caller must refuse
// the whole request (429). It never blocks on a queue.
func (w *writer) admit(groups [][]Event) bool {
	w.admitMu.Lock()
	defer w.admitMu.Unlock()
	for sh, g := range groups {
		if len(g) > 0 && len(w.shards[sh]) == cap(w.shards[sh]) {
			return false
		}
	}
	for sh, g := range groups {
		if len(g) > 0 {
			w.shards[sh] <- batch{events: g}
		}
	}
	return true
}

// barrier blocks until every event enqueued before the call has been
// applied to the store: one sentinel per shard, then one wait per shard.
// A sentinel send waits for room in a full queue while holding admitMu,
// which only needs its drainer to make progress. Must not be called before
// start or after stop (it would block forever on an undrained queue).
func (w *writer) barrier() {
	done := make(chan struct{}, len(w.shards))
	w.admitMu.Lock()
	for i := range w.shards {
		w.shards[i] <- batch{barrier: done}
	}
	w.admitMu.Unlock()
	for range w.shards {
		<-done
	}
}

// stop drains every queue and joins the drainers. The writer cannot be
// restarted; admission must have ceased before the call (handlers that
// enqueue after stop panic on the closed channel).
func (w *writer) stop() {
	w.barrier()
	for i := range w.shards {
		close(w.shards[i])
	}
	w.wg.Wait()
}

// queued returns the total batches currently waiting across all shards
// (an instantaneous backpressure gauge for /v1/stats).
func (w *writer) queued() int {
	total := 0
	for i := range w.shards {
		total += len(w.shards[i])
	}
	return total
}

// drain applies batches in queue order. Events arrive pre-validated, so
// store errors are impossible by construction; the store's own validation
// stays as the backstop (an error would mean an admission bug, and the
// event is dropped rather than wedging the drainer).
func (w *writer) drain(ch chan batch) {
	defer w.wg.Done()
	for b := range ch {
		for _, e := range b.events {
			if e.Type == EventTrust && e.Set {
				_ = w.store.SetTrust(e.From, e.To, e.W)
			} else {
				_ = w.store.AddTrust(e.From, e.To, e.W)
			}
		}
		w.applied.Add(uint64(len(b.events)))
		if b.barrier != nil {
			b.barrier <- struct{}{}
		}
	}
}
