// Package serve turns the trust/reputation library into a long-running
// service: an HTTP daemon (cmd/collabserve) that ingests trust-edge and
// contribution events, answers reputation and allocation queries, and keeps
// the EigenTrust vector fresh — all under sustained mixed traffic, without
// a query ever blocking on a write or a solve.
//
// # The three planes
//
// The server is organized as three planes with strictly one-directional
// coupling, each leaning on a specific guarantee of the concurrent trust
// store (reputation.ConcurrentGraph):
//
//   - The write plane (POST /v1/events → writer) admits batches of
//     validated events into bounded per-shard queues and acknowledges with
//     202 before any store work happens; dedicated drainer goroutines apply
//     the events through the store's sharded ingest enqueue (AddTrust /
//     SetTrust — O(1) per-shard mutex sections). Events shard by their
//     *source peer* (the statement's author) at both layers, so each
//     source's statement order is preserved end to end — the precondition
//     of the store's serial-reference guarantee: any concurrent schedule
//     that preserves per-source order compacts bit-identical to a serial
//     LogGraph replay. Admission is all or nothing per request: when the
//     queue of any shard the request touches is full, the whole request is
//     refused with 429 and none of it is applied (so a retry of the
//     identical batch never duplicates or reorders a statement), which is
//     the admission-control/backpressure boundary.
//
//     The decode contract: the body is read once, and the canonical wire
//     form — {"events":[{…},…]} with the five lower-case keys in any order,
//     "trust"/"contrib", unsigned decimal integers for from/to, a JSON
//     number for w, true/false for set, JSON whitespace; what json.Marshal
//     of the request writes — is decoded by a one-pass scanner (decode.go)
//     without reflection. The scanner has no error of its own: on anything
//     else it declines, and the same bytes (followed by the read error, if
//     the read failed) go through encoding/json, which alone defines the
//     accepted language and every 400. FuzzScanEvents pins that whatever
//     the scanner accepts, encoding/json decodes to the same events,
//     weights bit for bit (both convert with strconv.ParseFloat).
//
//   - The read plane (GET /v1/reputation, /v1/top, /v1/alloc, /v1/trust)
//     serves from the last published reputation.TrustSnapshot — one atomic
//     load — and from epoch-pinned CSR reads (Acquire/Release). Both are
//     lock-free and allocation-light, and neither can be blocked by the
//     write plane or by an in-flight solve: readers pin epochs, they never
//     wait for the publisher. This is what keeps query tail latency flat
//     while EigenTrust refreshes.
//
//   - The solve plane (a single refresh goroutine) recomputes the
//     eigenvector on a wall-clock cadence through
//     incentive.GlobalTrust{Concurrent: true}: RefreshIfStale skips solves
//     while the store is idle; a solve runs under the store's maintenance
//     lock (Exclusive) against the exact merged log and republishes the
//     vector as an immutable snapshot stamped with the epoch it was
//     computed from. Readers holding older snapshots are unaffected;
//     writers keep enqueueing throughout (their statements fold into the
//     next publish). All solver state lives on this one goroutine, so the
//     scheme's single-threaded contract is never violated.
//
// # Quiescence and warm restart
//
// The maintenance surface (POST /v1/flush, server shutdown) uses writer
// barriers: a sentinel batch per shard whose completion proves every
// earlier event has reached the store, followed by a store Flush that
// publishes the folded state. Stop drains the writer and then lets the
// solve plane refresh once more if the drain left it stale, so the vector
// in memory is the one that belongs to the drained edges. Shutdown then
// snapshots the scheme state (canonical compacted edge list + trust
// vector) through the binary codec in snapshot.go; a restart checks the
// file's length against its header before sizing anything from it, loads
// it, republishes graph epoch and trust snapshot, and resumes
// bit-identical to a serial replay of everything the dead process had
// acknowledged and drained.
package serve
