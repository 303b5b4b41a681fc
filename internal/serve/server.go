package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"kronvalid/internal/model"
)

// Server is the HTTP face of the generation service. Create one with
// NewServer, mount Handler() on any mux or http.Server, and Close it on
// shutdown (Close also closes the Manager and its worker pool).
//
// The API is JSON over HTTP:
//
//	POST /v1/jobs                {"spec": "...", "format": "tsv"|"binary"}
//	GET  /v1/jobs                ?limit=N
//	GET  /v1/jobs/{id}           ?wait=2s  (long-poll until terminal or timeout)
//	POST /v1/jobs/{id}/cancel
//	GET  /v1/jobs/{id}/result    canonical concatenated stream from cache
//	GET  /v1/jobs/{id}/manifest  the entry's manifest.json
//	GET  /v1/count               ?spec=...&exact=true
//	GET  /v1/digest              ?spec=...
//	GET  /v1/models              registered model kinds
//	GET  /v1/cache               entries + stats
//	GET  /metrics                Prometheus text format
//	GET  /healthz
type Server struct {
	m       *Manager
	mux     *http.ServeMux
	started time.Time
}

// NewServer builds the service: opens the store, starts the worker
// pool, and wires the routes.
func NewServer(cfg Config) (*Server, error) {
	m, err := NewManager(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{m: m, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/manifest", s.handleManifest)
	s.mux.HandleFunc("GET /v1/count", s.handleCount)
	s.mux.HandleFunc("GET /v1/digest", s.handleDigest)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("GET /v1/cache", s.handleCache)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager returns the underlying job manager.
func (s *Server) Manager() *Manager { return s.m }

// Close shuts the service down: admission stops, in-flight jobs are
// cancelled, workers are joined.
func (s *Server) Close() error { return s.m.Close() }

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// httpStatus maps service errors onto status codes.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrEvicted):
		return http.StatusGone
	case errors.Is(err, ErrNotDone):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, httpStatus(err), errorBody{Error: err.Error()})
}

type submitRequest struct {
	Spec   string `json:"spec"`
	Format string `json:"format,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("serve: request body: %w", err))
		return
	}
	if req.Spec == "" {
		writeError(w, errors.New("serve: \"spec\" is required"))
		return
	}
	v, err := s.m.Submit(req.Spec, req.Format)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if v.State == StateDone.String() {
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	limit := 100
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("serve: limit %q is not a non-negative integer", q))
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.m.Jobs(limit)})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if q := r.URL.Query().Get("wait"); q != "" {
		d, perr := time.ParseDuration(q)
		if perr != nil {
			writeError(w, fmt.Errorf("serve: wait %q: %w", q, perr))
			return
		}
		// Long-poll: return at terminal state, timeout, or client gone —
		// whichever is first. The job itself is unaffected.
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-j.Done():
		case <-t.C:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, j.view(false))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleResult streams the job's canonical concatenated arc stream
// straight from the cached shard files. The entry is pinned for the
// duration of the copy, so a concurrent eviction can never truncate a
// download mid-stream. Each shard goes out through sendFile, so on a
// TCP connection the kernel copies it to the socket.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if j.State() != StateDone {
		writeError(w, fmt.Errorf("%w: job %s is %s", ErrNotDone, j.id, j.State()))
		return
	}
	e, ok := s.m.store.Acquire(j.key)
	if !ok {
		writeError(w, fmt.Errorf("%w: resubmit %q to regenerate", ErrEvicted, j.spec))
		return
	}
	defer s.m.store.Release(e)

	if e.format == "binary" {
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		w.Header().Set("Content-Type", "text/tab-separated-values")
	}
	w.Header().Set("Content-Length", strconv.FormatInt(e.payload, 10))
	w.Header().Set("X-Genserve-Key", e.key)
	w.Header().Set("X-Genserve-Spec", e.name)
	w.Header().Set("X-Genserve-Arcs", strconv.FormatInt(e.arcs, 10))
	var sent int64
	for _, path := range e.ShardPaths() {
		f, err := os.Open(path)
		if err != nil {
			// Headers are gone; the short body (Content-Length mismatch)
			// surfaces the failure to the client, the counter to /metrics.
			s.m.met.DownloadErrors.Add(1)
			return
		}
		n, err := sendFile(w, f)
		f.Close()
		sent += n
		if err != nil {
			s.m.met.DownloadErrors.Add(1)
			return
		}
	}
	s.m.met.Downloads.Add(1)
	s.m.met.ArcsServed.Add(e.arcs)
	s.m.met.BytesServed.Add(sent)
}

// sendFile copies f to w through w's ReadFrom. On a net/http response
// writer that copies the 512-byte sniff prefix and hands the rest of f
// to the connection, which sendfile(2)s an *os.File from its current
// offset. io.Copy(w, f) never gets there: it prefers f.WriteTo, which
// on a writer that is not a socket re-wraps f in a type without
// WriteTo, so the connection sees no *os.File and every byte crosses
// a 32 KiB user buffer. Writers without ReadFrom get io.Copy.
func sendFile(w io.Writer, f *os.File) (int64, error) {
	if rf, ok := w.(io.ReaderFrom); ok {
		return rf.ReadFrom(f)
	}
	return io.Copy(w, f)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if j.State() != StateDone {
		writeError(w, fmt.Errorf("%w: job %s is %s", ErrNotDone, j.id, j.State()))
		return
	}
	e, ok := s.m.store.Acquire(j.key)
	if !ok {
		writeError(w, fmt.Errorf("%w: resubmit %q to regenerate", ErrEvicted, j.spec))
		return
	}
	defer s.m.store.Release(e)
	w.Header().Set("Content-Type", "application/json")
	f, err := os.Open(e.ManifestPath())
	if err != nil {
		writeError(w, err)
		return
	}
	defer f.Close()
	sendFile(w, f)
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	spec := r.URL.Query().Get("spec")
	if spec == "" {
		writeError(w, errors.New("serve: \"spec\" query parameter is required"))
		return
	}
	exact := r.URL.Query().Get("exact") == "true"
	info, err := s.m.Count(r.Context(), spec, exact)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	spec := r.URL.Query().Get("spec")
	if spec == "" {
		writeError(w, errors.New("serve: \"spec\" query parameter is required"))
		return
	}
	info, err := s.m.Digest(r.Context(), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	kinds := model.Kinds()
	sort.Strings(kinds)
	writeJSON(w, http.StatusOK, map[string]any{"models": kinds})
}

func (s *Server) handleCache(w http.ResponseWriter, _ *http.Request) {
	entries, bytes, maxBytes, evictions := s.m.store.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"entries":   s.m.store.Entries(),
		"count":     entries,
		"bytes":     bytes,
		"max_bytes": maxBytes,
		"evictions": evictions,
		"hit_ratio": s.m.met.HitRatio(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.met.WritePrometheus(w, s.m.store, s.m.QueueDepth())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_sec": time.Since(s.started).Seconds(),
	})
}
