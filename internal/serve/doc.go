// Package serve is the long-running generation service built on the
// paper's central property: any shard of any registered graph is
// recomputable from (seed, chunk id) alone, so a generator's canonical
// spec string — the stable Name() every pipeline Source carries — is a
// complete content address for its canonical arc stream. The service
// turns that address into a system:
//
//   - Store is a content-addressed shard cache keyed by
//     sha256(format, Name()). Each entry is a WriteShards output
//     directory (shard files plus manifest.json) committed by atomic
//     rename-into-place; the manifest is written last inside the
//     staging directory and the rename publishes it as one unit, so a
//     partially generated job is never visible under the cache root.
//     Entries are evicted least-recently-used against a byte budget,
//     manifest removed first so a torn eviction degrades to the same
//     "no manifest = no entry" state the abort contract guarantees.
//
//   - Manager schedules generation jobs on a bounded worker pool with
//     per-job context cancellation, queue-depth admission control, and
//     singleflight deduplication: concurrent submissions of the same
//     content address attach to one job. Job progress (arcs emitted,
//     shards done) is published through atomics because the HTTP
//     status handler reads it while the generation pipeline's
//     Progress callback writes it.
//
//   - Server exposes the JSON/HTTP API: submit, status (with optional
//     long-poll), cancel, result download (the canonical concatenated
//     stream served straight from cached shard files), manifest,
//     Count and Digest fast paths, cache introspection, Prometheus
//     text /metrics, and /healthz.
//
// A result download reaches the socket by sendfile(2). Each shard's
// *os.File goes to the response writer's ReadFrom; net/http copies its
// 512-byte sniff prefix and hands the rest to the TCP connection, which
// sendfiles a bare *os.File from its current offset. io.Copy(w, f)
// does not get there: since Go 1.22 it calls f.WriteTo, which on a
// writer that is not itself a socket re-wraps f in a type without
// WriteTo, so the connection sees no *os.File and every byte crosses a
// 32 KiB user buffer, a read and a write per chunk. The Content-Length
// of a download is the shard payload the entry recorded when it was
// committed or recovered, so a download costs no stat.
//
// The package deliberately imports only internal packages (model,
// distgen, stream, gio) and not the public kronvalid root, so the root
// package can re-export the service without an import cycle.
package serve
