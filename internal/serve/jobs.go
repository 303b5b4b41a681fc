package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kronvalid/internal/distgen"
	"kronvalid/internal/gio"
	"kronvalid/internal/model"
	"kronvalid/internal/stream"
)

// State is a job's lifecycle position. Transitions are monotone:
// queued → running → {done, failed, cancelled}, with queued → cancelled
// for jobs cancelled before a worker claims them and a synthetic
// immediate done for cache hits.
type State int32

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is admission control: the queued backlog is at its
	// configured cap (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrClosed reports a submission to a shutting-down manager (503).
	ErrClosed = errors.New("serve: manager closed")
	// ErrNotFound reports an unknown job id (404).
	ErrNotFound = errors.New("serve: no such job")
	// ErrEvicted reports a done job whose cached result was evicted
	// before download (410; resubmitting regenerates it).
	ErrEvicted = errors.New("serve: result evicted from cache")
	// ErrNotDone reports a result download for an unfinished job (409).
	ErrNotDone = errors.New("serve: job has not completed")
)

// Config tunes the generation service.
type Config struct {
	// Dir is the cache root (required).
	Dir string
	// CacheBytes is the shard-store byte budget (0 = unlimited).
	CacheBytes int64
	// Workers is the number of jobs generating concurrently (0 = 2).
	Workers int
	// GenWorkers bounds each job's internal generation parallelism
	// (0 = GOMAXPROCS).
	GenWorkers int
	// QueueDepth caps the queued (not yet running) backlog; submissions
	// beyond it are rejected with ErrQueueFull (0 = 64).
	QueueDepth int
	// ShardsPerJob is the number of shard files each cache entry is
	// written as (0 = GOMAXPROCS). It is a file-layout knob only: the
	// concatenated stream — what result downloads serve and digests
	// fingerprint — is byte-identical for every value, which is why it
	// is not part of the content address.
	ShardsPerJob int
	// BatchSize is the pipeline batch size for generation jobs
	// (0 = stream default). Small values tighten cancellation latency;
	// tests use them to make mid-job cancels land deterministically.
	BatchSize int
	// JobHistory bounds how many finished jobs stay queryable (0 = 4096).
	JobHistory int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ShardsPerJob <= 0 {
		c.ShardsPerJob = runtime.GOMAXPROCS(0)
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 4096
	}
	return c
}

// Job is one generation request. Identity fields are immutable after
// creation; progress counters are atomics because the generation
// pipeline's Progress callback writes them while status handlers read
// them concurrently; the remaining mutable fields are guarded by mu.
type Job struct {
	id     string
	key    string
	spec   string // canonical Name()
	format string
	cached bool // resolved as a cache hit at submission

	src       *model.Plan
	vertices  int64
	totalArcs int64 // -1 when only known in expectation
	shards    int

	state      atomic.Int32
	arcs       atomic.Int64
	shardsDone atomic.Int64

	mu       sync.Mutex
	errMsg   string
	bytes    int64
	created  time.Time
	started  time.Time
	finished time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// State returns the job's current lifecycle state.
func (j *Job) State() State { return State(j.state.Load()) }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// ID returns the job id.
func (j *Job) ID() string { return j.id }

// Key returns the job's content address.
func (j *Job) Key() string { return j.key }

// JobView is the JSON representation of a job.
type JobView struct {
	ID         string  `json:"id"`
	Spec       string  `json:"spec"`
	Format     string  `json:"format"`
	Key        string  `json:"key"`
	State      string  `json:"state"`
	Cached     bool    `json:"cached"`
	Deduped    bool    `json:"deduped,omitempty"`
	Vertices   int64   `json:"vertices"`
	TotalArcs  int64   `json:"total_arcs"` // -1 when only known in expectation
	ArcsDone   int64   `json:"arcs_done"`
	Shards     int     `json:"shards"`
	ShardsDone int64   `json:"shards_done"`
	Bytes      int64   `json:"bytes,omitempty"`
	Error      string  `json:"error,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Result     string  `json:"result,omitempty"`
}

// view snapshots the job for the HTTP layer. deduped marks views
// returned from a submission that attached to an in-flight job.
func (j *Job) view(deduped bool) JobView {
	st := j.State()
	j.mu.Lock()
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	v := JobView{
		ID: j.id, Spec: j.spec, Format: j.format, Key: j.key,
		State: st.String(), Cached: j.cached, Deduped: deduped,
		Vertices: j.vertices, TotalArcs: j.totalArcs,
		ArcsDone: j.arcs.Load(), Shards: j.shards, ShardsDone: j.shardsDone.Load(),
		Bytes: j.bytes, Error: j.errMsg,
		ElapsedMS: float64(end.Sub(j.created)) / float64(time.Millisecond),
	}
	j.mu.Unlock()
	if st == StateDone {
		v.Result = "/v1/jobs/" + j.id + "/result"
	}
	return v
}

// Manager owns the store, the job table, and the worker pool.
type Manager struct {
	cfg   Config
	store *Store
	met   *Metrics

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string        // submission order, for listing and history pruning
	active map[string]*Job // queued/running job per content address (singleflight)
	closed bool

	queue chan *Job

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	nextID atomic.Int64

	digestMu sync.Mutex
	digests  map[string]digestInfo // memo for streams not (or not yet) cached
}

type digestInfo struct {
	digest string
	arcs   int64
}

// NewManager opens the store and starts the worker pool.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("serve: Config.Dir is required")
	}
	store, err := NewStore(cfg.Dir, cfg.CacheBytes)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		store:      store,
		met:        &Metrics{},
		jobs:       make(map[string]*Job),
		active:     make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		digests:    make(map[string]digestInfo),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m, nil
}

// Store returns the manager's shard cache.
func (m *Manager) Store() *Store { return m.store }

// Metrics returns the manager's counters.
func (m *Manager) Metrics() *Metrics { return m.met }

// Close stops admission, cancels every in-flight job, and joins the
// workers. Idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
	return nil
}

// resolve validates a spec through the params grammar (via the model
// registry) and binds it to a plan and content address.
func (m *Manager) resolve(spec, format string) (*model.Plan, string, string, error) {
	switch format {
	case "":
		format = "binary"
	case "tsv", "binary":
	default:
		return nil, "", "", fmt.Errorf("serve: format %q is not \"tsv\" or \"binary\"", format)
	}
	g, err := model.New(spec)
	if err != nil {
		return nil, "", "", err
	}
	pl := model.NewPlan(g, m.cfg.ShardsPerJob)
	return pl, format, CacheKey(pl.Name(), format), nil
}

// Submit validates spec, then resolves it against the cache and the
// in-flight job table: a committed entry yields an immediately-done job
// (cached=true), an in-flight job for the same content address is
// returned as-is (singleflight; deduped=true in the view), and
// otherwise a new job is admitted — or rejected with ErrQueueFull when
// the queued backlog is at its cap.
func (m *Manager) Submit(spec, format string) (JobView, error) {
	pl, format, key, err := m.resolve(spec, format)
	if err != nil {
		m.met.BadSpecs.Add(1)
		return JobView{}, err
	}
	m.met.Submits.Add(1)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobView{}, ErrClosed
	}
	if e, ok := m.store.Contains(key); ok {
		j := m.newJobLocked(pl, format, key)
		j.cached = true
		j.state.Store(int32(StateDone))
		j.bytes = e.bytes
		j.arcs.Store(e.arcs)
		j.shardsDone.Store(int64(len(e.files)))
		j.finished = j.created
		close(j.done)
		m.mu.Unlock()
		m.met.Hits.Add(1)
		return j.view(false), nil
	}
	if j, ok := m.active[key]; ok {
		m.mu.Unlock()
		m.met.Dedups.Add(1)
		return j.view(true), nil
	}
	if len(m.queue) == cap(m.queue) {
		m.mu.Unlock()
		m.met.Rejected.Add(1)
		return JobView{}, ErrQueueFull
	}
	j := m.newJobLocked(pl, format, key)
	m.active[key] = j
	// The capacity check above ran under mu and every sender holds mu,
	// so this send cannot block.
	m.queue <- j
	m.mu.Unlock()
	m.met.Misses.Add(1)
	return j.view(false), nil
}

// newJobLocked allocates and registers a job; the caller holds m.mu.
func (m *Manager) newJobLocked(pl *model.Plan, format, key string) *Job {
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		id:        fmt.Sprintf("j-%06d", m.nextID.Add(1)),
		key:       key,
		spec:      pl.Name(),
		format:    format,
		src:       pl,
		vertices:  pl.NumVertices(),
		totalArcs: pl.TotalArcs(),
		shards:    pl.Shards(),
		created:   time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.pruneHistoryLocked()
	return j
}

// pruneHistoryLocked drops the oldest finished jobs beyond the history
// cap; in-flight jobs are never dropped.
func (m *Manager) pruneHistoryLocked() {
	excess := len(m.order) - m.cfg.JobHistory
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if excess > 0 && j != nil && j.State() >= StateDone {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Job returns the job for id.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Jobs lists up to limit jobs, most recent first (0 = all retained).
func (m *Manager) Jobs(limit int) []JobView {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if j, ok := m.jobs[ids[i]]; ok {
			jobs = append(jobs, j)
			if limit > 0 && len(jobs) == limit {
				break
			}
		}
	}
	m.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view(false)
	}
	return views
}

// Cancel requests cancellation of a job. Queued jobs finalize
// immediately; running jobs abort within one pipeline batch, and their
// staging directory is removed (the abort contract: no manifest, no
// cache entry). Cancelling a finished job is a no-op.
func (m *Manager) Cancel(id string) (JobView, error) {
	j, err := m.Job(id)
	if err != nil {
		return JobView{}, err
	}
	j.cancel()
	// If no worker has claimed the job yet, finalize it here; the CAS
	// loser (this call or the claiming worker) defers to the winner.
	if j.state.CompareAndSwap(int32(StateQueued), int32(StateCancelled)) {
		m.finalize(j, StateCancelled, context.Canceled)
	}
	return j.view(false), nil
}

// worker claims queued jobs until the queue closes on shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		if !j.state.CompareAndSwap(int32(StateQueued), int32(StateRunning)) {
			continue // cancelled while queued; Cancel finalized it
		}
		m.run(j)
	}
}

// run executes one generation job: stage with WriteShards (manifest
// last), then commit the staged directory into the content-addressed
// store. Any error — including cancellation — removes the staging
// directory, so a failed or cancelled job leaves no cache entry.
func (m *Manager) run(j *Job) {
	j.mu.Lock()
	j.started = time.Now()
	j.mu.Unlock()
	m.met.Running.Add(1)
	defer m.met.Running.Add(-1)

	staged, err := m.store.TempDir(j.id)
	if err != nil {
		m.finalizeState(j, StateFailed, err)
		return
	}
	opts := m.genOptions()
	// The callback publishes through atomics: the per-shard driver
	// serializes its calls, but status handlers read concurrently.
	opts.Progress = func(arcs, shardsDone int64) {
		j.arcs.Store(arcs)
		j.shardsDone.Store(shardsDone)
	}
	_, err = distgen.WriteShards(j.ctx, staged, j.src,
		distgen.Manifest{Model: j.spec}, j.format == "binary", opts)
	if err != nil {
		os.RemoveAll(staged)
		if j.ctx.Err() != nil {
			m.finalizeState(j, StateCancelled, j.ctx.Err())
		} else {
			m.finalizeState(j, StateFailed, err)
		}
		return
	}
	e, err := m.store.Commit(j.key, staged)
	if err != nil {
		m.finalizeState(j, StateFailed, err)
		return
	}
	j.mu.Lock()
	j.bytes = e.bytes
	j.mu.Unlock()
	m.met.ArcsGenerated.Add(e.arcs)
	m.finalizeState(j, StateDone, nil)
}

// finalizeState moves a running job to its terminal state and finalizes.
func (m *Manager) finalizeState(j *Job, st State, err error) {
	j.state.Store(int32(st))
	m.finalize(j, st, err)
}

// finalize records the terminal bookkeeping shared by worker and
// queued-cancel paths: timestamps, error text, metrics, singleflight
// table removal, and the done broadcast.
func (m *Manager) finalize(j *Job, st State, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil && st != StateDone {
		j.errMsg = err.Error()
	}
	j.mu.Unlock()
	switch st {
	case StateDone:
		m.met.JobsDone.Add(1)
	case StateFailed:
		m.met.JobsFailed.Add(1)
	case StateCancelled:
		m.met.JobsCancelled.Add(1)
	}
	m.mu.Lock()
	if m.active[j.key] == j {
		delete(m.active, j.key)
	}
	m.mu.Unlock()
	j.cancel() // release the context's resources on every path
	close(j.done)
}

// QueueDepth returns the current queued backlog.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// ---- Count and Digest fast paths ----

// CountInfo is the JSON response of the count endpoint.
type CountInfo struct {
	Spec     string `json:"spec"`
	Vertices int64  `json:"vertices"`
	Arcs     int64  `json:"arcs"` // -1 when unknown without generating
	Exact    bool   `json:"exact"`
	Shards   int    `json:"shards"`
	// Source says where the count came from: "closed-form" (the model
	// fixes it), "cache" (a committed entry's manifest), "generated"
	// (streamed through a counting sink), or "expectation" (unknown
	// without generating and exact counting was not requested).
	Source string `json:"source"`
}

// Count resolves a spec's size: the model's closed form when it has
// one, the cached manifest when the stream is committed, a streamed
// counting pass when exact is set, and otherwise -1.
func (m *Manager) Count(ctx context.Context, spec string, exact bool) (CountInfo, error) {
	pl, _, key, err := m.resolve(spec, "")
	if err != nil {
		return CountInfo{}, err
	}
	info := CountInfo{
		Spec:     pl.Name(),
		Vertices: pl.NumVertices(),
		Arcs:     pl.TotalArcs(),
		Shards:   pl.Shards(),
		Exact:    true,
		Source:   "closed-form",
	}
	if info.Arcs >= 0 {
		return info, nil
	}
	if e, ok := m.store.Contains(key); ok {
		info.Arcs = e.arcs
		info.Source = "cache"
		return info, nil
	}
	if !exact {
		info.Exact = false
		info.Source = "expectation"
		return info, nil
	}
	if info.Arcs, err = stream.CountSource(ctx, pl, m.genOptions()); err != nil {
		return CountInfo{}, err
	}
	info.Source = "generated"
	return info, nil
}

// genOptions is the driver configuration every generation this manager
// starts runs under.
func (m *Manager) genOptions() stream.Options {
	return stream.Options{Workers: m.cfg.GenWorkers, BatchSize: m.cfg.BatchSize}
}

// DigestInfo is the JSON response of the digest endpoint.
type DigestInfo struct {
	Spec   string `json:"spec"`
	Digest string `json:"digest"`
	Arcs   int64  `json:"arcs"`
	// Source says what the digest was derived from: "memo" (previously
	// derived), "cache" (re-read from committed shard bytes — no
	// generation), or "generated" (streamed from the generator).
	Source string `json:"source"`
}

// Digest fingerprints a spec's canonical stream with the pipeline's
// CSRDigest scheme. Fast paths in order: a memoized digest, a committed
// cache entry (the digest is derived by re-reading the shard bytes —
// IO-bound, no generation), and only then a full generation stream. The
// derived digest is memoized on the entry (sidecar file) or in memory.
func (m *Manager) Digest(ctx context.Context, spec string) (DigestInfo, error) {
	pl, _, _, err := m.resolve(spec, "")
	if err != nil {
		return DigestInfo{}, err
	}
	name := pl.Name()
	m.digestMu.Lock()
	memo, ok := m.digests[name]
	m.digestMu.Unlock()
	if ok {
		return DigestInfo{Spec: name, Digest: memo.digest, Arcs: memo.arcs, Source: "memo"}, nil
	}
	// The arc digest is format-independent (it fingerprints the decoded
	// stream), so either format's entry can supply it.
	for _, format := range []string{"binary", "tsv"} {
		e, ok := m.store.Acquire(CacheKey(name, format))
		if !ok {
			continue
		}
		if d := m.store.Digest(e); d != "" {
			m.store.Release(e)
			m.memoizeDigest(name, d, e.arcs)
			return DigestInfo{Spec: name, Digest: d, Arcs: e.arcs, Source: "memo"}, nil
		}
		d, err := digestEntry(ctx, e)
		if err != nil {
			m.store.Release(e)
			return DigestInfo{}, err
		}
		m.store.SetDigest(e, d)
		arcs := e.arcs
		m.store.Release(e)
		m.memoizeDigest(name, d, arcs)
		return DigestInfo{Spec: name, Digest: d, Arcs: arcs, Source: "cache"}, nil
	}
	d, arcs, err := gio.DigestSource(ctx, pl, m.genOptions())
	if err != nil {
		return DigestInfo{}, err
	}
	m.memoizeDigest(name, d, arcs)
	return DigestInfo{Spec: name, Digest: d, Arcs: arcs, Source: "generated"}, nil
}

func (m *Manager) memoizeDigest(name, digest string, arcs int64) {
	m.digestMu.Lock()
	m.digests[name] = digestInfo{digest, arcs}
	m.digestMu.Unlock()
}
