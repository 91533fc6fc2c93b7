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
//   - The write plane (POST /v1/events) validates a whole batch, then,
//     under one admission lock, appends every event in request order to
//     the store's ingest shards (AddTrust / SetTrust — an O(1) per-shard
//     mutex section each, keyed by the statement's *source peer*) and
//     acknowledges with 202. The shards keep each source's statements in
//     order, and the lock keeps two requests from interleaving across
//     shards, so the served edges equal a serial replay of exactly the
//     acknowledged requests in acknowledgement order — the store's
//     serial-reference guarantee, end to end. Admission is all or nothing
//     per request: when the statements not yet folded into the store plus
//     the request would exceed 256·MaxBatch, the whole request is refused
//     with 429 and none of it is applied (so a retry of the identical batch
//     never duplicates or reorders a statement), which is the
//     admission-control/backpressure boundary. Ingest never publishes:
//     every admitted request wakes the solve plane, which solves soon after
//     (and flushes at once when pending statements reach
//     Config.Watermark).
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
//     eigenvector through incentive.GlobalTrust{Concurrent: true} when
//     ingest has made the store dirty, paced by what the last refresh
//     cost: the next one starts three times its wall time after it ended,
//     and never later than Config.Refresh, the ceiling on staleness, after
//     it started. While pending statements sit at or above
//     Config.Watermark (ingest outrunning the solve) it flushes at once and
//     solves at the ceiling. An idle server arms no timer and never wakes;
//     RefreshIfStale skips a solve that finds nothing new. A solve runs
//     under the store's maintenance lock (Exclusive) against the exact
//     merged log and republishes the vector as an immutable snapshot
//     stamped with the epoch it was computed from. Readers holding older
//     snapshots are unaffected; writers keep appending throughout (their
//     statements fold into the next publish). Because the same goroutine
//     runs those watermark flushes, no ingest request ever compacts, copies
//     or waits on a pinned epoch. All solver state lives on this one
//     goroutine, so the scheme's single-threaded contract is never
//     violated.
//
// # Quiescence and warm restart
//
// There is no queue in front of the store: a 202 means the events are
// already in its ingest shards. POST /v1/flush is therefore a plain store
// Flush — it folds every acknowledged event into the log and publishes —
// and /v1/edges flushes the same way before it dumps. Stop lets the solve
// plane refresh once more if acknowledged events left it stale (the solve
// folds them in), so the vector in memory is the one that belongs to the
// edges, and publishes the folded state. Shutdown then snapshots the
// scheme state (canonical compacted edge list + trust vector) in
// incentive.State's layout, written by package wire to a temporary file
// that is fsynced and renamed into place. A restart decodes it through the
// same layout, refusing a length word the rest of the file cannot hold
// before sizing anything from it, and refusing trailing bytes or another
// version; it then loads the state, republishes graph epoch and trust
// snapshot, and resumes bit-identical to a serial replay of everything the
// dead process had acknowledged.
package serve
