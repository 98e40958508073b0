package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/store"
)

// ErrQueueFull is returned by SubmitJobCtx when the bounded job queue is at
// capacity — the service's backpressure signal (HTTP 503 + Retry-After).
var ErrQueueFull = errors.New("job queue full")

// ErrClosed is returned by SubmitJobCtx after Close.
var ErrClosed = errors.New("service closed")

// ErrBusy is returned by SimulateCtx when the sync path already has
// Workers+QueueDepth requests admitted — the sync counterpart of
// ErrQueueFull (HTTP 503), so a burst of distinct-spec sync requests
// cannot park unboundedly many goroutines on the execution semaphore.
var ErrBusy = errors.New("server busy: too many simulations in flight")

// ErrDraining is returned for work that would start a new computation while
// the service is shutting down. Cache and durable-store hits are still
// served — degraded mode reads, but does not compute (DESIGN.md §8).
var ErrDraining = errors.New("service draining: serving cached results only")

// ErrJobDeadline is the terminal error of a job whose Config.JobTimeout
// expired; it is not retried.
var ErrJobDeadline = errors.New("job deadline exceeded")

// Config sizes a Service.
type Config struct {
	// Workers bounds concurrently executing simulations — async queue
	// consumers, and a shared semaphore that sync requests also respect
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued-but-not-running async jobs (default 64).
	QueueDepth int
	// CacheEntries bounds the result LRU (default 256).
	CacheEntries int
	// Parallel caps each job's trial-runner workers (default 1, so
	// cross-job concurrency — not intra-job — uses the cores; results are
	// identical either way by the runner contract).
	Parallel int
	// MaxJobs bounds retained job records (default 4096). Past the bound,
	// the oldest *terminal* (done/failed) records are evicted FIFO, so a
	// long-lived server's memory stays bounded; a 404 on a previously-done
	// job means "fetch the result by its hash instead".
	MaxJobs int
	// DataDir, when non-empty, makes the service crash-safe (DESIGN.md §8):
	// results persist to a content-addressed store under DataDir/store and
	// async jobs are journaled to DataDir/journal.jsonl. On Open the journal
	// is replayed — terminal jobs keep their IDs and interrupted jobs are
	// re-enqueued with completed trials prefilled and the last engine
	// checkpoint resumed. Empty (the default) keeps the service ephemeral.
	DataDir string
	// JobRetries is how many times a failed job execution is retried with
	// exponential backoff before the job turns terminally failed
	// (default 2; negative disables retry).
	JobRetries int
	// JobTimeout, when positive, bounds each job's wall-clock execution
	// (all attempts together); past it the job fails terminally with
	// ErrJobDeadline. Zero means no deadline.
	JobTimeout time.Duration
	// RetryBackoff is the first retry's delay, doubling per attempt
	// (default 100ms).
	RetryBackoff time.Duration
	// Logger receives the service's structured logs (job lifecycle at info,
	// spans at debug). Nil discards them — tests and embedders that do not
	// care stay quiet; radionet-serve installs a JSON handler at -log-level.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.Parallel <= 0 {
		c.Parallel = 1
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.JobRetries == 0 {
		c.JobRetries = 2
	} else if c.JobRetries < 0 {
		c.JobRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	return c
}

// JobState is the lifecycle of an async job.
type JobState string

// Job lifecycle states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// job is the service-internal record; mutable fields are guarded by
// Service.mu.
type job struct {
	id   string
	spec Spec
	hash string

	state    JobState
	done     int
	total    int
	errMsg   string
	cacheHit bool

	// trace is the submitting request's trace ID (empty when the caller had
	// none); enqueuedAt feeds the queue-wait histogram and is zero for
	// cache-hit and journal-recovered jobs.
	trace      string
	enqueuedAt time.Time

	// Recovery state from the journal (nil/zero for fresh jobs): completed
	// trials to prefill and the checkpoint of the trial that was mid-flight.
	recTrials map[int]exp.Sample
	ckptTrial int
	ckpt      *exp.FloodCheckpoint
	recovered bool
}

// JobView is the externally visible snapshot of a job (the GET
// /v1/jobs/{id} body).
type JobView struct {
	ID          string   `json:"id"`
	SpecHash    string   `json:"spec_hash"`
	State       JobState `json:"state"`
	TrialsDone  int      `json:"trials_done"`
	TrialsTotal int      `json:"trials_total"`
	// CacheHit marks jobs satisfied from the cache without executing.
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
	// Result is the relative URL of the result once the job is done.
	Result string `json:"result,omitempty"`
	// Recovered marks jobs restored from the journal after a restart.
	Recovered bool `json:"recovered,omitempty"`
}

// Stats is the service-wide counter snapshot (GET /v1/stats).
type Stats struct {
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	// Executions counts simulations actually run (cache misses that
	// computed); Coalesced counts requests served by piggybacking on an
	// in-flight identical execution.
	Executions uint64 `json:"executions"`
	Coalesced  uint64 `json:"coalesced"`
	// PrefixHits counts computations that resumed from cached prefix
	// snapshots (X-Cache: HIT-PREFIX); PrefixEpochsSaved totals the epochs
	// those resumes skipped, summed over trials (DESIGN.md §9).
	PrefixHits        uint64 `json:"prefix_hits,omitempty"`
	PrefixEpochsSaved uint64 `json:"prefix_epochs_saved,omitempty"`
	Jobs              int    `json:"jobs"`
	// InFlightJobs counts jobs currently executing; with QueueLen and Jobs
	// it is read under one lock acquisition, so the three are mutually
	// consistent (a job is never visible as both queued and running).
	InFlightJobs int `json:"in_flight_jobs"`
	QueueLen     int `json:"queue_len"`
	QueueCap     int `json:"queue_cap"`
	Workers      int `json:"workers"`
	// UptimeSeconds is the time since Open.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Durable reports whether a DataDir backs the service; the Store*
	// counters mirror the durable tier (store.Counters) when it does.
	Durable          bool   `json:"durable"`
	StoreHits        uint64 `json:"store_hits,omitempty"`
	StoreMisses      uint64 `json:"store_misses,omitempty"`
	StorePuts        uint64 `json:"store_puts,omitempty"`
	StoreQuarantined uint64 `json:"store_quarantined,omitempty"`
	StoreEntries     int    `json:"store_entries,omitempty"`
	// Snap* mirror the prefix-snapshot keyspace (DataDir/snap): puts are
	// publications, hits are probe finds, quarantined are corrupt entries
	// degraded to cold runs. SnapErrors counts failed publications
	// (advisory — the run proceeds).
	SnapHits        uint64 `json:"snap_hits,omitempty"`
	SnapMisses      uint64 `json:"snap_misses,omitempty"`
	SnapPuts        uint64 `json:"snap_puts,omitempty"`
	SnapQuarantined uint64 `json:"snap_quarantined,omitempty"`
	SnapEntries     int    `json:"snap_entries,omitempty"`
	SnapErrors      uint64 `json:"snap_errors,omitempty"`
	// RecoveredJobs / RecoveredTrials count journal-replay work at the last
	// Open: interrupted jobs re-enqueued and completed trials prefilled.
	RecoveredJobs   uint64 `json:"recovered_jobs,omitempty"`
	RecoveredTrials uint64 `json:"recovered_trials,omitempty"`
	// Retries counts job execution retry attempts; JournalErrors counts
	// non-fatal journal append failures (durability degraded, service up).
	Retries       uint64 `json:"retries,omitempty"`
	JournalErrors uint64 `json:"journal_errors,omitempty"`
	// Draining is true once shutdown began: reads are served, computation
	// is refused.
	Draining bool `json:"draining"`
}

// Service ties the pieces together: the LRU + durable store + singleflight
// group in front, the bounded queue and worker pool behind, and the job
// journal underneath. One Service instance backs the whole HTTP API.
type Service struct {
	cfg          Config
	cache        *Cache
	st           *store.Store // nil when ephemeral
	snaps        *store.Store // prefix-snapshot keyspace; nil when ephemeral
	jr           *journal     // nil when ephemeral
	sf           flightGroup
	pf           flightGroup   // prefix leaders, keyed by PrefixHash
	scheds       *scheduleMemo // prefix trials' schedule generators; nil when ephemeral
	slots        chan struct{} // execution semaphore, capacity cfg.Workers
	queue        chan *job
	syncPending  atomic.Int64 // admitted non-cache-hit sync requests
	execs        atomic.Uint64
	coalesced    atomic.Uint64
	prefixHits   atomic.Uint64
	prefixEpochs atomic.Uint64
	snapErrs     atomic.Uint64
	retries      atomic.Uint64
	timeouts     atomic.Uint64
	journalErrs  atomic.Uint64
	recJobs      atomic.Uint64
	recTrials    atomic.Uint64
	draining     atomic.Bool
	killed       atomic.Bool

	log     *slog.Logger
	met     *metrics
	started time.Time

	mu       sync.Mutex
	jobs     map[string]*job
	jobOrder []string // insertion order, for bounded FIFO retention
	seq      int
	closed   bool
	wg       sync.WaitGroup

	// testHookExecuting, when non-nil, is called after an execution slot is
	// acquired and before the simulation runs — tests use it to hold
	// executions open deterministically.
	testHookExecuting func(sp Spec)
}

// New starts an ephemeral Service (no DataDir persistence errors are
// possible, so no error to return); use Open for a durable one.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		// Only reachable with a DataDir that failed to open; callers who
		// set one should use Open and handle the error.
		panic(err)
	}
	return s
}

// Open starts a Service with cfg's workers running. With cfg.DataDir set it
// opens the durable store, replays and compacts the job journal, re-registers
// finished jobs, and re-enqueues interrupted ones before accepting traffic.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheEntries),
		slots:   make(chan struct{}, cfg.Workers),
		jobs:    make(map[string]*job),
		started: time.Now(),
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// The metric registry's scrape-time closures read s; it must exist
	// before the durable layers below borrow instruments from it.
	s.met = newMetrics(s)
	var recovered []*recoveredJob
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: data dir: %w", err)
		}
		st, err := store.Open(filepath.Join(cfg.DataDir, "store"))
		if err != nil {
			return nil, err
		}
		// The snapshot keyspace gets its own store root (DataDir/snap) with
		// the same atomic-write + hash-verified-read + quarantine discipline
		// as results, but separate counters and no entanglement with the
		// result namespace.
		snaps, err := store.Open(filepath.Join(cfg.DataDir, "snap"))
		if err != nil {
			return nil, err
		}
		jr, jobs, maxSeq, err := openJournal(filepath.Join(cfg.DataDir, "journal.jsonl"))
		if err != nil {
			return nil, err
		}
		st.SetMetrics(s.met.storeMetrics(keyspaceResult))
		snaps.SetMetrics(s.met.storeMetrics(keyspaceSnap))
		jr.met = s.met.journalMetrics()
		s.st, s.snaps, s.jr, s.seq = st, snaps, jr, maxSeq
		s.scheds = newScheduleMemo(scheduleMemoBytes)
		recovered = jobs
	}
	interrupted := 0
	for _, r := range recovered {
		if r.state == JobQueued {
			interrupted++
		}
	}
	// The queue must absorb every re-enqueued job even when it exceeds
	// QueueDepth — recovery cannot drop work the journal promised.
	s.queue = make(chan *job, cfg.QueueDepth+interrupted)
	for _, r := range recovered {
		j := &job{
			id: r.id, spec: r.spec, hash: r.spec.Hash(),
			state: r.state, total: r.spec.Reps, errMsg: r.errMsg,
			trace: r.trace, recovered: true,
		}
		switch r.state {
		case JobDone:
			j.done = j.total
		case JobFailed:
			// Terminal failure: error preserved across the restart.
		default:
			j.state = JobQueued
			j.done = len(r.trials)
			j.recTrials = r.trials
			j.ckptTrial, j.ckpt = r.ckptIdx, r.ckpt
			s.recJobs.Add(1)
			s.recTrials.Add(uint64(len(r.trials)))
			s.queue <- j
			s.log.Info("job recovered", slog.String("job", j.id),
				slog.String("trace", j.trace), slog.Int("trials_prefilled", j.done))
		}
		s.mu.Lock()
		s.registerLocked(j)
		s.mu.Unlock()
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// SetFaults installs a chaos fault registry on the durable layers (the
// "store.get"/"store.put"/"serve.journal" sites). Call before serving
// traffic; test-only by convention.
func (s *Service) SetFaults(f *chaos.Faults) {
	if s.st != nil {
		s.st.SetFaults(f)
	}
	if s.jr != nil {
		s.jr.faults = f
	}
}

// Close stops accepting new work, fails queued-but-unstarted jobs in
// memory (the journal keeps them resumable for the next Open), waits for
// in-flight executions, and closes the journal. In-flight sync SimulateCtx
// calls are unaffected.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.draining.Store(true)
	close(s.queue)
	s.wg.Wait()
	s.jr.close()
}

// Kill simulates kill -9 for the chaos suite: the journal is frozen (every
// later append fails, aborting checkpointed runs exactly the way a dead
// process would), in-flight grids are cancelled, and nothing is marked
// failed on disk — the data dir is left precisely as a crash would leave
// it, for the next Open to recover.
func (s *Service) Kill() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.draining.Store(true)
	s.killed.Store(true)
	s.jr.freeze()
	close(s.queue)
	s.wg.Wait()
	s.jr.close()
}

// CacheStatus classifies how a sync request was satisfied.
type CacheStatus string

// Sync outcomes: served from the in-memory cache, from the durable
// store (populating the cache), computed fresh, or coalesced onto a
// concurrent identical execution.
const (
	StatusHit        CacheStatus = "hit"
	StatusDurableHit CacheStatus = "durable"
	StatusMiss       CacheStatus = "miss"
	StatusCoalesced  CacheStatus = "coalesced"
	// StatusPrefixHit marks a computation that resumed from cached
	// prefix snapshots instead of running every epoch cold (DESIGN.md §9).
	StatusPrefixHit CacheStatus = "prefix"
)

// simulate is the sync path: canonicalize, consult the cache, then the
// durable store, otherwise execute exactly once across all concurrent
// identical requests. The returned bytes are the deterministic Result
// JSON; callers must not mutate them. ctx carries the caller's trace ID
// for span propagation (DESIGN.md §10); it does NOT cancel the
// computation — SimulateCtx detaches it deliberately.
func (s *Service) simulate(ctx context.Context, raw Spec) (data []byte, hash string, status CacheStatus, err error) {
	sp, err := raw.Canonicalize()
	if err != nil {
		return nil, "", "", err
	}
	hash = sp.Hash()
	lookup := obs.StartSpan(ctx, s.log, "cache.lookup")
	if b, ok := s.cache.Get(hash); ok {
		lookup.SetAttr("tier", "memory")
		lookup.End()
		return b, hash, StatusHit, nil
	}
	if b, ok := s.storeGet(hash); ok {
		s.cache.Put(hash, b)
		lookup.SetAttr("tier", "durable")
		lookup.End()
		return b, hash, StatusDurableHit, nil
	}
	lookup.SetAttr("tier", "miss")
	lookup.End()
	// Degraded mode: once shutdown begins, reads above still work but new
	// computations are refused with a retryable signal.
	if s.draining.Load() {
		return nil, hash, "", ErrDraining
	}
	// Admission control for the sync path: cache hits above cost nothing,
	// but every admitted request below parks on the execution semaphore
	// (or a flight), so the count of them must be bounded like every other
	// server-side store.
	limit := int64(s.cfg.Workers + s.cfg.QueueDepth)
	if s.syncPending.Add(1) > limit {
		s.syncPending.Add(-1)
		return nil, hash, "", ErrBusy
	}
	defer s.syncPending.Add(-1)
	// fromCache/viaPrefix are written only when this caller is the executor
	// (the closure runs synchronously inside Do then), covering the race
	// where an identical in-flight execution completed between the Get
	// above and the flight registration: the response was really served
	// from cache and must not be labeled a miss.
	var fromCache, viaPrefix bool
	flight := obs.StartSpan(ctx, s.log, "flight")
	b, err, shared := s.sf.Do(hash, nil, func(report func(done, total int)) ([]byte, error) {
		eb, hit, via, eerr := s.execute(ctx, sp, hash, "", ExecOptions{OnTrial: report})
		fromCache, viaPrefix = hit, via
		return eb, eerr
	})
	flight.SetAttr("shared", shared)
	flight.End()
	// Count coalescing before the error check so the counter means the
	// same thing ("waited on someone else's execution") on the sync and
	// async paths, failures included.
	if shared {
		s.coalesced.Add(1)
	}
	if err != nil {
		return nil, hash, "", err
	}
	switch {
	case shared:
		return b, hash, StatusCoalesced, nil
	case fromCache:
		return b, hash, StatusHit, nil
	case viaPrefix:
		return b, hash, StatusPrefixHit, nil
	default:
		return b, hash, StatusMiss, nil
	}
}

// SimulateCtx is the sync entry point: simulate bounded by ctx (the
// per-request deadline). On expiry it returns ctx's error; the underlying
// computation — shared with every coalesced waiter — is NOT abandoned: it
// finishes, lands in the cache and store, and a retried request becomes a
// cheap hit. Admission control bounds how many such detached computations
// can exist.
func (s *Service) SimulateCtx(ctx context.Context, raw Spec) (data []byte, hash string, status CacheStatus, err error) {
	if err := ctx.Err(); err != nil {
		return nil, "", "", err
	}
	type outcome struct {
		data   []byte
		hash   string
		status CacheStatus
		err    error
	}
	ch := make(chan outcome, 1)
	// WithoutCancel: the computation outlives the request deadline by design
	// (coalesced waiters and the cache collect it), but the trace ID still
	// flows so its spans stay attributable to the originating request.
	dctx := context.WithoutCancel(ctx)
	go func() {
		d, h, st, e := s.simulate(dctx, raw)
		ch <- outcome{d, h, st, e}
	}()
	select {
	case o := <-ch:
		return o.data, o.hash, o.status, o.err
	case <-ctx.Done():
		return nil, "", "", fmt.Errorf("%w (the computation continues; retry to collect the cached result)", ctx.Err())
	}
}

// storeGet reads the durable tier; errors (I/O, injected faults, corrupt
// entries) degrade to a miss — the caller recomputes.
func (s *Service) storeGet(hash string) ([]byte, bool) {
	if s.st == nil {
		return nil, false
	}
	b, ok, err := s.st.Get(hash)
	if err != nil || !ok {
		return nil, false
	}
	return b, true
}

// storePut writes the durable tier. A write failure is a real error: the
// service must not report a durable job done when its result is not on
// disk (the job layer retries).
func (s *Service) storePut(hash string, b []byte) error {
	if s.st == nil {
		return nil
	}
	return s.st.Put(hash, b)
}

// execute runs one simulation of sp through the prefix-cache protocol and
// the worker semaphore, publishing the result bytes to the store and cache;
// fromCache reports that the result had already landed and nothing ran,
// viaPrefix that the computation resumed from prefix snapshots. It is the
// one execution path of sync requests and jobs alike: o carries the
// caller's hooks (a sync request's progress listener; a job's journal,
// prefill, cancellation and resume checkpoint), and job names the job in
// the execute span ("" for a sync request). Callers hold the singleflight
// slot for hash.
func (s *Service) execute(ctx context.Context, sp Spec, hash, job string, o ExecOptions) (b []byte, fromCache, viaPrefix bool, err error) {
	o.Parallel, o.OnProbe = s.cfg.Parallel, s.onProbe
	return s.runPrefixed(sp, func(plan *prefixPlan) ([]byte, bool, error) {
		wait := obs.StartSpan(ctx, s.log, "slot.wait")
		s.slots <- struct{}{}
		wait.End()
		defer func() { <-s.slots }()
		// The result may have landed while this request waited in the queue
		// or for a slot (e.g. a sync request computed the same spec) — serve
		// it. peek, not Get: this internal re-check must not distort the
		// stats.
		if b, ok := s.cache.peek(hash); ok {
			return b, true, nil
		}
		if b, ok := s.storeGet(hash); ok {
			s.cache.Put(hash, b)
			return b, true, nil
		}
		if hook := s.testHookExecuting; hook != nil {
			hook(sp)
		}
		s.execs.Add(1)
		o := o // runPrefixed may run this twice; arm each run's own copy
		s.armPrefix(sp, plan, &o)
		run := obs.StartSpan(ctx, s.log, "execute")
		if job != "" {
			run.SetAttr("job", job)
		}
		run.SetAttr("hash", hash)
		res, err := ExecuteWith(sp, o)
		run.End()
		if errors.Is(err, exp.ErrCancelled) {
			// Only a job sets Cancelled: a kill or its deadline stopped it.
			if s.killed.Load() {
				return nil, false, errJournalFrozen
			}
			return nil, false, fmt.Errorf("%w after %v", ErrJobDeadline, s.cfg.JobTimeout)
		}
		if err != nil {
			return nil, false, err
		}
		b, err := res.JSON()
		if err != nil {
			return nil, false, err
		}
		put := obs.StartSpan(ctx, s.log, "store.put")
		err = s.storePut(hash, b)
		put.End()
		if err != nil {
			return nil, false, err
		}
		s.cache.Put(hash, b)
		return b, false, nil
	})
}

// onProbe forwards engine probe samples (epoch boundaries + run ends) to
// the metric registry; armed on every execution.
func (s *Service) onProbe(trial int, smp *radio.ProbeSample) {
	s.met.observeProbe(smp)
}

// SubmitJobCtx is the async path: canonicalize, register and journal a
// job, and either satisfy it from the cache or the durable store
// immediately or enqueue it. ErrQueueFull signals backpressure; the caller
// should retry later or fall back to the sync endpoint. The caller's trace
// ID is recorded on the job, journaled with the submit record, and
// attached to every log line the job's lifecycle emits — the async half of
// the trace-propagation contract (DESIGN.md §10).
func (s *Service) SubmitJobCtx(ctx context.Context, raw Spec) (JobView, error) {
	sp, err := raw.Canonicalize()
	if err != nil {
		return JobView{}, err
	}
	hash := sp.Hash()
	// The same two tiers as simulate, so a result that is on disk but not
	// in memory completes the job here instead of queueing it behind a
	// worker slot. The store read happens before s.mu is taken.
	_, cached := s.cache.Get(hash)
	if !cached {
		if b, ok := s.storeGet(hash); ok {
			s.cache.Put(hash, b)
			cached = true
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, ErrClosed
	}
	s.seq++
	j := &job{
		id:    fmt.Sprintf("job-%d", s.seq),
		spec:  sp,
		hash:  hash,
		state: JobQueued,
		total: sp.Reps,
		trace: obs.TraceID(ctx),
	}
	if cached {
		j.state, j.done, j.cacheHit = JobDone, sp.Reps, true
		s.registerLocked(j)
		s.journalSubmit(j)
		s.journalAppend(journalRecord{Op: opDone, Job: j.id})
		return s.viewLocked(j), nil
	}
	j.enqueuedAt = time.Now()
	select {
	case s.queue <- j:
		s.registerLocked(j)
		s.journalSubmit(j)
		s.log.Debug("job queued", slog.String("job", j.id),
			slog.String("trace", j.trace), slog.String("hash", j.hash))
		return s.viewLocked(j), nil
	default:
		return JobView{}, ErrQueueFull
	}
}

// journalSubmit appends j's submit record. Journal append failures outside
// checkpoints are non-fatal (counted; the service keeps working with
// degraded durability) — only a checkpointed run must not outpace its
// journal, and that path aborts through the checkpoint hook instead.
func (s *Service) journalSubmit(j *job) {
	spec := j.spec
	s.journalAppend(journalRecord{Op: opSubmit, Job: j.id, Spec: &spec, Trace: j.trace})
}

func (s *Service) journalAppend(rec journalRecord) {
	if err := s.jr.append(rec); err != nil {
		s.journalErrs.Add(1)
	}
}

// registerLocked records j and evicts the oldest terminal records past
// cfg.MaxJobs; s.mu must be held. Non-terminal jobs are never evicted —
// they are already bounded by QueueDepth + Workers.
func (s *Service) registerLocked(j *job) {
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	if len(s.jobs) <= s.cfg.MaxJobs {
		return
	}
	kept := s.jobOrder[:0] // in-place filter; kept never outruns the read index
	for _, id := range s.jobOrder {
		old, ok := s.jobs[id]
		if !ok {
			continue
		}
		if len(s.jobs) > s.cfg.MaxJobs && old != j && (old.state == JobDone || old.state == JobFailed) {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// worker drains the queue until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		// After Close, fail queued-but-unstarted jobs in memory instead of
		// draining them: shutdown must be bounded by in-flight work only,
		// not by a full queue of heavy simulations (a supervisor would
		// SIGKILL long before a 64-deep queue drains). No failed record is
		// journaled — on disk they stay interrupted, so the next Open
		// resumes them.
		if s.isClosed() {
			s.updateJob(j, func(j *job) { j.state, j.errMsg = JobFailed, ErrClosed.Error() })
			continue
		}
		s.runJob(j)
	}
}

// runJob is one job's full lifecycle: attempts with exponential backoff up
// to cfg.JobRetries retries, a terminal deadline, and journaled completion.
func (s *Service) runJob(j *job) {
	if !j.enqueuedAt.IsZero() {
		s.met.queueWait.ObserveSince(j.enqueuedAt)
	}
	// The job carries its submitting request's trace ID across the queue;
	// rebuild a context from it so spans and logs below stay attributable.
	ctx := obs.WithTrace(context.Background(), j.trace)
	t0 := time.Now()
	s.updateJob(j, func(j *job) { j.state = JobRunning })
	var deadline time.Time
	if s.cfg.JobTimeout > 0 {
		deadline = time.Now().Add(s.cfg.JobTimeout)
	}
	var lastErr error
	for attempt := 0; attempt <= s.cfg.JobRetries; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
			time.Sleep(s.cfg.RetryBackoff << (attempt - 1))
		}
		err := s.attemptJob(ctx, j, deadline)
		if err == nil {
			s.journalAppend(journalRecord{Op: opDone, Job: j.id})
			s.log.Info("job done", slog.String("job", j.id),
				slog.String("trace", j.trace), slog.String("hash", j.hash),
				slog.Int("attempts", attempt+1), slog.Duration("dur", time.Since(t0)))
			return
		}
		lastErr = err
		if errors.Is(err, errJournalFrozen) || s.killed.Load() {
			// Simulated crash: leave the job exactly as the journal has it;
			// the next Open recovers it.
			return
		}
		if errors.Is(err, ErrJobDeadline) || errors.Is(err, ErrBadSpec) {
			break // terminal: retrying cannot help
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			lastErr = fmt.Errorf("%w: %w", ErrJobDeadline, err)
			break
		}
	}
	if errors.Is(lastErr, ErrJobDeadline) {
		s.timeouts.Add(1)
	}
	s.updateJob(j, func(j *job) { j.state, j.errMsg = JobFailed, lastErr.Error() })
	s.journalAppend(journalRecord{Op: opFailed, Job: j.id, Error: lastErr.Error()})
	s.log.Warn("job failed", slog.String("job", j.id),
		slog.String("trace", j.trace), slog.String("hash", j.hash),
		slog.Duration("dur", time.Since(t0)), slog.String("error", lastErr.Error()))
}

// attemptJob runs one execution attempt through the singleflight group,
// updating the job on success.
func (s *Service) attemptJob(ctx context.Context, j *job, deadline time.Time) error {
	// The progress listener is attached whether this worker executes or
	// coalesces onto an in-flight identical execution, so polling clients
	// see trial progress either way. Completion counts arrive from
	// concurrent runner goroutines (and the coalescing catch-up replay)
	// out of order, so the write is kept monotone.
	onProgress := func(done, total int) {
		s.updateJob(j, func(j *job) {
			if done > j.done {
				j.done = done
			}
			j.total = total
		})
	}
	// The job's crash-safety hooks: recovered trials prefilled, cancellation
	// on kill or deadline, and, on a durable service, journaled trial
	// samples and flood checkpoints plus the resume of the trial that was
	// mid-flight at the crash.
	o := ExecOptions{
		Prefilled: j.recTrials,
		Cancelled: func() bool {
			return s.killed.Load() || (!deadline.IsZero() && time.Now().After(deadline))
		},
	}
	if s.jr != nil {
		o.OnSample = func(i int, smp exp.Sample) {
			sample := smp
			s.journalAppend(journalRecord{Op: opTrial, Job: j.id, Index: i, Sample: &sample})
		}
		o.OnCheckpoint = func(trial int, cp *exp.FloodCheckpoint) error {
			// A checkpointed run must not outpace its journal: the append
			// error aborts the run (and the chaos suite injects worker
			// death here).
			return s.jr.append(journalRecord{Op: opCkpt, Job: j.id, Index: trial, Ckpt: cp})
		}
		if j.ckpt != nil {
			o.ResumeFrom = map[int]*exp.FloodCheckpoint{j.ckptTrial: j.ckpt}
		}
	}
	var fromCache bool
	_, err, shared := s.sf.Do(j.hash, onProgress, func(report func(done, total int)) ([]byte, error) {
		o.OnTrial = report
		b, hit, _, eerr := s.execute(ctx, j.spec, j.hash, j.id, o)
		fromCache = hit
		return b, eerr
	})
	if shared {
		s.coalesced.Add(1)
	}
	if err != nil {
		return err
	}
	s.updateJob(j, func(j *job) {
		j.state, j.done = JobDone, j.total
		// The result may have landed (via a sync request for the same
		// spec) while this job sat in the queue; keep CacheHit honest.
		j.cacheHit = j.cacheHit || fromCache
	})
	return nil
}

// updateJob applies fn to j under the service lock.
func (s *Service) updateJob(j *job, fn func(*job)) {
	s.mu.Lock()
	fn(j)
	s.mu.Unlock()
}

// isClosed reports whether Close has begun.
func (s *Service) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Job returns the snapshot of the job with the given ID.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return s.viewLocked(j), true
}

// viewLocked snapshots j; s.mu must be held.
func (s *Service) viewLocked(j *job) JobView {
	v := JobView{
		ID:          j.id,
		SpecHash:    j.hash,
		State:       j.state,
		TrialsDone:  j.done,
		TrialsTotal: j.total,
		CacheHit:    j.cacheHit,
		Error:       j.errMsg,
		Recovered:   j.recovered,
	}
	if j.state == JobDone {
		v.Result = "/v1/results/" + j.hash
	}
	return v
}

// ResultByHash serves the content-addressed endpoint: the in-memory cache
// first, then the durable store (read-through — a store hit repopulates
// the cache). A miss means "not computed yet, or evicted and not durable —
// request it again".
func (s *Service) ResultByHash(hash string) ([]byte, bool) {
	if b, ok := s.cache.Get(hash); ok {
		return b, true
	}
	if b, ok := s.storeGet(hash); ok {
		s.cache.Put(hash, b)
		return b, true
	}
	return nil, false
}

// runningLocked counts jobs currently executing; s.mu must be held.
func (s *Service) runningLocked() int {
	n := 0
	for _, j := range s.jobs {
		if j.state == JobRunning {
			n++
		}
	}
	return n
}

// Registry exposes the service's metric registry (the GET /metrics body;
// tests and the loadgen scrape it through WritePrometheus).
func (s *Service) Registry() *obs.Registry { return s.met.reg }

// Stats snapshots the service counters. The job-facing fields (Jobs,
// InFlightJobs, QueueLen) are read under a single s.mu acquisition so the
// snapshot is mutually consistent — a job transitioning queued→running
// between field reads cannot be counted in both.
func (s *Service) Stats() Stats {
	hits, misses := s.cache.Counters()
	s.mu.Lock()
	jobs := len(s.jobs)
	inFlight := s.runningLocked()
	queueLen := len(s.queue)
	s.mu.Unlock()
	st := Stats{
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEntries:      s.cache.Len(),
		Executions:        s.execs.Load(),
		Coalesced:         s.coalesced.Load(),
		PrefixHits:        s.prefixHits.Load(),
		PrefixEpochsSaved: s.prefixEpochs.Load(),
		Jobs:              jobs,
		InFlightJobs:      inFlight,
		QueueLen:          queueLen,
		QueueCap:          cap(s.queue),
		Workers:           s.cfg.Workers,
		UptimeSeconds:     time.Since(s.started).Seconds(),
		RecoveredJobs:     s.recJobs.Load(),
		RecoveredTrials:   s.recTrials.Load(),
		Retries:           s.retries.Load(),
		JournalErrors:     s.journalErrs.Load(),
		Draining:          s.draining.Load(),
	}
	if s.st != nil {
		st.Durable = true
		c := s.st.Counters()
		st.StoreHits, st.StoreMisses = c.Hits, c.Misses
		st.StorePuts, st.StoreQuarantined = c.Puts, c.Quarantined
		if n, err := s.st.Len(); err == nil {
			st.StoreEntries = n
		}
	}
	if s.snaps != nil {
		c := s.snaps.Counters()
		st.SnapHits, st.SnapMisses = c.Hits, c.Misses
		st.SnapPuts, st.SnapQuarantined = c.Puts, c.Quarantined
		st.SnapErrors = s.snapErrs.Load()
		if n, err := s.snaps.Len(); err == nil {
			st.SnapEntries = n
		}
	}
	return st
}
