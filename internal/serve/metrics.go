package serve

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Metrics is the service's counter set, exposed in Prometheus text
// format by the /metrics endpoint. All fields are atomics: they are
// bumped from request handlers and worker goroutines concurrently.
type Metrics struct {
	Submits       atomic.Int64 // valid submissions (hits + dedups + misses)
	BadSpecs      atomic.Int64 // submissions rejected by spec validation
	Hits          atomic.Int64 // submissions answered from the shard cache
	Dedups        atomic.Int64 // submissions attached to an in-flight job
	Misses        atomic.Int64 // submissions that enqueued a new job
	Rejected      atomic.Int64 // submissions rejected by admission control
	JobsDone      atomic.Int64
	JobsFailed    atomic.Int64
	JobsCancelled atomic.Int64
	Running       atomic.Int64 // gauge: jobs generating right now
	ArcsGenerated atomic.Int64 // arcs committed into the cache
	ArcsServed    atomic.Int64 // arcs streamed out of result downloads
	BytesServed   atomic.Int64 // bytes streamed out of result downloads
	Downloads     atomic.Int64 // completed result downloads
	// DownloadErrors counts result downloads cut short after the headers
	// went out: a shard file failed to open or to copy to the client.
	DownloadErrors atomic.Int64
}

// HitRatio returns hits / (hits + misses), counting dedup attaches as
// hits: they were served without a new generation.
func (m *Metrics) HitRatio() float64 {
	h := m.Hits.Load() + m.Dedups.Load()
	total := h + m.Misses.Load()
	if total == 0 {
		return 0
	}
	return float64(h) / float64(total)
}

// WritePrometheus renders the counters plus the store and queue gauges
// in Prometheus text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer, store *Store, queueDepth int) {
	entries, bytes, maxBytes, evictions := store.Stats()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("genserve_submits_total", "Valid job submissions.", m.Submits.Load())
	counter("genserve_bad_spec_total", "Submissions rejected by spec validation.", m.BadSpecs.Load())
	counter("genserve_cache_hits_total", "Submissions answered from the shard cache.", m.Hits.Load())
	counter("genserve_dedup_total", "Submissions attached to an in-flight identical job.", m.Dedups.Load())
	counter("genserve_cache_misses_total", "Submissions that enqueued a new generation job.", m.Misses.Load())
	counter("genserve_rejected_total", "Submissions rejected by queue admission control.", m.Rejected.Load())
	counter("genserve_jobs_done_total", "Jobs completed successfully.", m.JobsDone.Load())
	counter("genserve_jobs_failed_total", "Jobs that failed.", m.JobsFailed.Load())
	counter("genserve_jobs_cancelled_total", "Jobs cancelled.", m.JobsCancelled.Load())
	counter("genserve_arcs_generated_total", "Arcs generated and committed into the cache.", m.ArcsGenerated.Load())
	counter("genserve_arcs_served_total", "Arcs streamed out of result downloads.", m.ArcsServed.Load())
	counter("genserve_bytes_served_total", "Bytes streamed out of result downloads.", m.BytesServed.Load())
	counter("genserve_downloads_total", "Completed result downloads.", m.Downloads.Load())
	counter("genserve_download_errors_total", "Result downloads cut short by a shard open or copy failure.", m.DownloadErrors.Load())
	counter("genserve_evictions_total", "Cache entries evicted by the byte budget.", evictions)
	gauge("genserve_jobs_running", "Jobs generating right now.", m.Running.Load())
	gauge("genserve_queue_depth", "Queued jobs awaiting a worker.", int64(queueDepth))
	gauge("genserve_cache_entries", "Committed cache entries.", int64(entries))
	gauge("genserve_cache_bytes", "Resident cache bytes.", bytes)
	gauge("genserve_cache_max_bytes", "Cache byte budget (0 = unlimited).", maxBytes)
}
