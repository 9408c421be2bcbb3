package stream

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/engine"
)

// ErrNotInferred is returned by query methods before the first inference
// epoch has published a result.
var ErrNotInferred = errors.New("stream: no inference result published yet — ingest answers and refresh")

// ErrClosed is returned by Ingest and Refresh on a service that has been
// (or is being) closed — e.g. a multi-tenant project deleted while a
// request for it was in flight. Reads keep serving the last published
// result; only mutation and epoch work is rejected.
var ErrClosed = errors.New("stream: service is closed")

// Config parameterizes a Service.
type Config struct {
	// Method is the truth-inference method to serve.
	Method core.Method
	// Options is the base inference configuration applied every epoch
	// (seed, iteration cap, tolerance, parallelism). Pool and WarmStart
	// are managed by the service and must be left unset.
	Options core.Options
	// AutoRefresh triggers a background re-inference after every ingested
	// batch (coalesced: at most one inference runs at a time, and a batch
	// arriving mid-run schedules exactly one follow-up). When false the
	// caller drives refreshes explicitly.
	AutoRefresh bool
	// Persist, when non-nil, receives every committed batch in ingestion
	// order (a write-ahead log — see internal/stream/wal) and is flushed
	// on epoch boundaries and on Close; nil means no WAL. A Record
	// failure is fail-stop: the failing Ingest returns the error (the
	// batch is applied in memory but not durably logged) and every later
	// Ingest is rejected, because recording any further batch would leave
	// a version gap in the log that recovery must treat as corruption.
	Persist Persister
	// Limits is the ingest admission policy the HTTP handlers enforce
	// (rate and quota rejections shed load with 429 + Retry-After). The
	// zero value admits everything. Direct Ingest calls bypass it: WAL
	// replay and in-process pipelines are not tenant traffic.
	Limits Limits
	// Metrics, when non-nil, receives admission, epoch, and incremental
	// fold observations (see NewMetrics). Nil disables instrumentation
	// at the cost of one branch per event.
	Metrics *Metrics
}

// Persister is the write-ahead log a Service drives; wal.Persister is the
// file-backed implementation. Record appends one committed batch, tagged
// with the store version it produced, so recovery can replay the log on
// top of a compacted snapshot idempotently. Sync makes everything
// recorded so far durable. SyncTo blocks until every record through
// version is on stable storage — concurrent callers coalesce into one
// fsync — and DurableVersion reports the watermark already durable, so
// ingest responses state exactly how much of what they acknowledged
// would survive a crash. PersistStats reports the live durability state
// under the "wal" key of Stats.
type Persister interface {
	Record(version uint64, b Batch) error
	Sync() error
	SyncTo(version uint64) error
	DurableVersion() uint64
	PersistStats() PersistStats
}

// Service multiplexes concurrent readers against streaming ingestion and
// background re-inference for one method over one Store. Reads always
// serve the last published core.Result — possibly a few versions stale
// while an EM run is in flight — and report the exact store version it
// reflects. Methods with an exact incremental path (MV, Mean, Median)
// bypass re-inference entirely: ingestion folds each delta into their
// maintained result in O(delta), so it is always fresh.
type Service struct {
	store   *Store
	method  core.Method
	cfg     Config
	pool    *engine.Pool // persistent; reused by every epoch's hot loops
	inc     *incremental // non-nil for MV/Mean/Median; its result is res
	limiter *Limiter     // nil unless cfg.Limits configures a rate

	ingestMu   sync.Mutex // serializes Ingest (store append + incremental fold + WAL record)
	persistErr error      // first Record failure; halts ingestion (guarded by ingestMu)

	inferMu  sync.Mutex // serializes Refresh epochs
	needSync bool       // an epoch-boundary WAL flush is outstanding (guarded by inferMu)
	queued   atomic.Bool
	bg       sync.WaitGroup // tracks in-flight background refreshes so Close can drain them

	// snap is the last epoch's store snapshot, which the next epoch
	// extends by the answers that arrived since (guarded by inferMu;
	// dropped on Close).
	snap *dataset.Dataset

	// closing flips before Close drains: Ingest and Refresh reject with
	// ErrClosed from that point on, so no new epoch can be scheduled onto
	// the worker pool Close is about to release.
	closing atomic.Bool

	mu         sync.RWMutex // guards the published state below
	res        *core.Result
	resVersion uint64
	epochs     int
	lastInfer  time.Duration
	lastErr    error // most recent epoch failure; nil after a success
	closed     bool

	// entropies caches per-task posterior entropies for the result at
	// entVersion; Entropies recomputes it lazily when a newer result
	// publishes (the epoch-boundary invalidation — see source.go).
	entropies  []float64
	entVersion uint64

	// qualityHist retains the worker-quality vector of each of the last
	// QualityHistoryEpochs published epochs, oldest first (guarded by
	// mu). The assignment ledger's change-detection defense reads it
	// through QualityHistory to spot sleepers — workers whose estimated
	// quality collapses mid-stream after a trustworthy start — and the
	// query plane's worker-quality-drop view compares its last two.
	qualityHist [][]float64

	// quotaReserved is headroom claimed against Limits.MaxAnswers by
	// admitted-but-not-yet-committed requests. Admission reserves it
	// atomically and releases it once the ingest's outcome is in the
	// store's answer count (or the ingest failed), so concurrent
	// requests can never jointly commit past the quota. See admit.
	quotaReserved atomic.Int64
}

// NewService builds a service for the given method over the store. The
// service owns a persistent worker pool sized from cfg.Options and keeps
// it across epochs; Close releases it.
func NewService(store *Store, cfg Config) (*Service, error) {
	if cfg.Method == nil {
		return nil, errors.New("stream: Config.Method is required")
	}
	if cfg.Options.Pool != nil || cfg.Options.WarmStart != nil {
		return nil, errors.New("stream: Config.Options.Pool and WarmStart are service-managed")
	}
	// Reject method/store type mismatches up front. The batch path would
	// surface this through core.CheckSupport on the first epoch, but the
	// incremental path never calls Infer — MV over a numeric store would
	// otherwise blow up mid-ingest instead of failing at construction.
	if typ := store.TaskType(); !cfg.Method.Capabilities().SupportsType(typ) {
		return nil, fmt.Errorf("stream: %s does not support %s stores", cfg.Method.Name(), typ)
	}
	s := &Service{
		store:   store,
		method:  cfg.Method,
		cfg:     cfg,
		pool:    engine.NewPersistent(cfg.Options.Workers()),
		limiter: NewLimiter(cfg.Limits),
	}
	if incrementalMethods[cfg.Method.Name()] {
		// Fold whatever the store already holds (a preloaded benchmark
		// file, or a recovered snapshot+WAL replay) into the incremental
		// result and publish it: one pass over the pinned log at
		// construction, O(delta) forever after. Dims read after the pin
		// cover every answer in it.
		version, answers := store.Pin()
		tasks, workers, _ := store.Dims()
		s.inc = newIncremental(cfg.Method.Name(), cfg.Options.Seed, store.NumChoices())
		s.inc.apply(version, answers, tasks, workers)
		s.res, s.resVersion = s.inc.res, version
	}
	return s, nil
}

// Ingest applies one batch to the store, records it in the write-ahead
// log when one is configured, and, for incremental methods, folds it
// into the published result in O(delta). With AutoRefresh set,
// iterative methods schedule a coalesced background re-inference.
func (s *Service) Ingest(b Batch) (uint64, error) {
	s.ingestMu.Lock()
	if s.closing.Load() {
		s.ingestMu.Unlock()
		return 0, ErrClosed
	}
	if s.persistErr != nil {
		// A batch is in memory but missing from the WAL; logging any
		// further batch would leave a version gap recovery reads as
		// corruption, so the stream is halted.
		err := fmt.Errorf("stream: ingestion halted, write-ahead log has a gap: %w", s.persistErr)
		s.ingestMu.Unlock()
		return 0, err
	}
	version, _, err := s.store.Ingest(b)
	if err != nil {
		s.ingestMu.Unlock()
		return 0, err
	}
	if s.inc != nil {
		// Fold the delta under the published-state lock so readers never
		// observe counts and labels from different points in the stream;
		// resVersion advances in the same critical section, so a served
		// version always has its delta folded in. The delta is exactly
		// this batch's answers (ingestMu serializes service writes).
		tasks, workers, _ := s.store.Dims()
		s.mu.Lock()
		s.inc.apply(version, b.Answers, tasks, workers)
		s.resVersion = version
		s.mu.Unlock()
		s.cfg.Metrics.observeFolded(len(b.Answers))
	}
	if s.cfg.Persist != nil {
		// Recorded under ingestMu so WAL order always matches version
		// order — recovery replays records sequentially.
		if err := s.cfg.Persist.Record(version, b); err != nil {
			s.persistErr = err
			s.ingestMu.Unlock()
			return version, fmt.Errorf("stream: batch at version %d applied in memory but not durably logged: %w", version, err)
		}
	}
	if s.inc == nil && s.cfg.AutoRefresh {
		// Scheduled while ingestMu is still held: Close flips closing
		// under the same lock, so every bg.Add here is strictly ordered
		// before Close's bg.Wait — the Add-concurrent-with-Wait panic
		// cannot happen.
		s.refreshAsync()
	}
	s.ingestMu.Unlock()
	return version, nil
}

// DurableTo blocks until every committed batch through version is on
// stable storage and returns the durable watermark. durable is false
// when no Persister is configured — there is no stable storage to wait
// for, and the caller must report that honestly.
func (s *Service) DurableTo(version uint64) (durableVersion uint64, durable bool, err error) {
	p := s.cfg.Persist
	if p == nil {
		return 0, false, nil
	}
	err = p.SyncTo(version)
	return p.DurableVersion(), true, err
}

// refreshAsync schedules a coalesced background refresh: at most one
// epoch runs at a time, and any number of batches arriving during a
// running epoch collapse into exactly one follow-up (the queued flag is
// held until the follow-up owns inferMu, so its snapshot covers them
// all). Epoch errors are retained in Stats.LastError and counted in
// truthserve_epoch_failures_total.
func (s *Service) refreshAsync() {
	if !s.queued.CompareAndSwap(false, true) {
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		s.inferMu.Lock()
		s.queued.Store(false)
		if s.closing.Load() {
			// Close won the inferMu race; the pool is (about to be)
			// released, so this late refresh must not run an epoch.
			s.inferMu.Unlock()
			return
		}
		err := s.refreshLocked()
		s.inferMu.Unlock()
		s.setLastErr(err)
	}()
}

// Refresh runs one inference epoch over a snapshot of the store and
// publishes the result. Iterative methods resume from the previous
// epoch's posterior; MV/Mean/Median are always fresh and return
// immediately. Refresh is a no-op when the published result already
// reflects the latest store version.
func (s *Service) Refresh() error {
	if s.closing.Load() {
		return ErrClosed
	}
	if s.inc != nil {
		// No epochs to run, but an explicit refresh is still a durability
		// boundary: flush the WAL so everything served is also on disk.
		// The flush deliberately runs without ingestMu (an fsync must not
		// stall the O(delta) ingest hot path); if it fails because Close
		// won the race and closed the persister, report ErrClosed rather
		// than the persister's own error.
		if s.cfg.Persist != nil {
			if err := s.cfg.Persist.Sync(); err != nil {
				if s.closing.Load() {
					return ErrClosed
				}
				return err
			}
		}
		return nil
	}
	s.inferMu.Lock()
	defer s.inferMu.Unlock()
	if s.closing.Load() {
		// Checked under inferMu: once Close holds this lock and releases
		// it, no later Refresh may touch the released worker pool.
		return ErrClosed
	}
	err := s.refreshLocked()
	s.setLastErr(err)
	return err
}

// setLastErr publishes an epoch's outcome as Stats.LastError and counts
// every failure other than ErrClosed on the epoch-failure counter, so a
// failed epoch is visible in /metrics and not only in /stats.
func (s *Service) setLastErr(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
	if err != nil && !errors.Is(err, ErrClosed) {
		s.cfg.Metrics.observeEpochFailure()
	}
}

// refreshLocked runs one epoch; the caller holds inferMu.
func (s *Service) refreshLocked() error {
	s.mu.RLock()
	prev, prevVersion := s.res, s.resVersion
	s.mu.RUnlock()
	// Freshness is checked before the snapshot so no-op refreshes cost
	// nothing. A version bump between this check and the snapshot only
	// makes the epoch serve newer data, never older. A fresh result still
	// retries a failed epoch-boundary flush — Refresh is a documented
	// durability boundary, so it must not report success while a Sync is
	// outstanding.
	if prev != nil && prevVersion == s.store.Version() {
		return s.flushLocked()
	}
	// The snapshot extends the previous epoch's by the answers since, so
	// its cost follows the delta and one copy of the index.
	begin := time.Now()
	snap, version := s.store.snapshotSince(s.snap)
	s.snap = snap

	opts := s.cfg.Options
	opts.Pool = s.pool
	opts.WarmStart = prev.Warm() // nil before the first epoch
	start := time.Now()
	res, err := s.method.Infer(snap, opts)
	elapsed := time.Since(start)
	s.cfg.Metrics.observeStages(start.Sub(begin), elapsed)
	if err != nil {
		return fmt.Errorf("stream: %s epoch failed: %w", s.method.Name(), err)
	}
	s.cfg.Metrics.observeEpoch(elapsed, opts.WarmStart != nil, res.Iterations, res.Converged)

	s.mu.Lock()
	s.res = res
	s.resVersion = version
	s.epochs++
	s.lastInfer = elapsed
	if len(res.WorkerQuality) > 0 {
		s.qualityHist = append(s.qualityHist, append([]float64(nil), res.WorkerQuality...))
		if len(s.qualityHist) > QualityHistoryEpochs {
			s.qualityHist = s.qualityHist[len(s.qualityHist)-QualityHistoryEpochs:]
		}
	}
	s.mu.Unlock()

	// Epoch boundary: everything the published result reflects is now
	// flushed to the write-ahead log, so a crash after this point
	// recovers at least as much data as the result served.
	s.needSync = true
	return s.flushLocked()
}

// flushLocked performs the pending epoch-boundary WAL flush (the caller
// holds inferMu, which also guards needSync). The flag stays set until a
// Sync succeeds, so a transient fsync failure is retried by the next
// Refresh instead of being reported once and then silently dropped.
func (s *Service) flushLocked() error {
	if s.cfg.Persist == nil || !s.needSync {
		return nil
	}
	if err := s.cfg.Persist.Sync(); err != nil {
		return fmt.Errorf("stream: WAL flush at epoch boundary: %w", err)
	}
	s.needSync = false
	return nil
}

// TruthInfo is one task's served inference output.
type TruthInfo struct {
	Task       int
	Truth      float64
	Confidence float64 // posterior mass on the served label; NaN if unavailable
	Version    uint64  // store version the value reflects
}

// Truth returns the inferred truth of one task from the last published
// result.
func (s *Service) Truth(task int) (TruthInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.res == nil {
		return TruthInfo{}, ErrNotInferred
	}
	if task < 0 || task >= len(s.res.Truth) {
		return TruthInfo{}, fmt.Errorf("stream: task %d outside the inferred range [0,%d)", task, len(s.res.Truth))
	}
	info := TruthInfo{Task: task, Truth: s.res.Truth[task], Confidence: math.NaN(), Version: s.resVersion}
	if s.res.Posterior != nil && task < len(s.res.Posterior) {
		label := int(s.res.Truth[task])
		row := s.res.Posterior[task]
		if label >= 0 && label < len(row) {
			info.Confidence = row[label]
		}
	}
	return info, nil
}

// Truths returns a copy of every inferred truth and the store version the
// vector reflects.
func (s *Service) Truths() ([]float64, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.res == nil {
		return nil, 0, ErrNotInferred
	}
	return append([]float64(nil), s.res.Truth...), s.resVersion, nil
}

// WorkerQuality returns the estimated quality of one worker (on the
// serving method's scale).
func (s *Service) WorkerQuality(worker int) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.res == nil {
		return 0, ErrNotInferred
	}
	if worker < 0 || worker >= len(s.res.WorkerQuality) {
		return 0, fmt.Errorf("stream: worker %d outside the inferred range [0,%d)", worker, len(s.res.WorkerQuality))
	}
	return s.res.WorkerQuality[worker], nil
}

// PersistStats describes the durability layer's live state, for
// operators verifying at runtime that the WAL and snapshot compaction
// are configured and healthy. Persister.PersistStats supplies it.
type PersistStats struct {
	// SinceSnapshot is the number of WAL records appended since the last
	// successful snapshot compaction (what a crash right now would replay).
	SinceSnapshot int `json:"records_since_snapshot"`
	// Compacting reports an in-flight background snapshot compaction.
	Compacting bool `json:"compacting"`
	// DurableVersion is the highest store version known to be on stable
	// storage (see Persister.DurableVersion).
	DurableVersion uint64 `json:"durable_version"`
	// CompactError is the last failed compaction still pending retry.
	CompactError string `json:"compact_error,omitempty"`
}

// Stats summarizes the store and the serving state (also the JSON shape
// of GET /v1/stats).
type Stats struct {
	// Name identifies the store being served — the project id in a
	// multi-tenant daemon — so aggregated per-tenant stats are
	// self-describing.
	Name         string `json:"name"`
	Method       string `json:"method"`
	Tasks        int    `json:"tasks"`
	Workers      int    `json:"workers"`
	Answers      int    `json:"answers"`
	StoreVersion uint64 `json:"store_version"`
	// ResultVersion is the store version the served truths reflect;
	// equal to StoreVersion when fresh.
	ResultVersion uint64 `json:"result_version"`
	Fresh         bool   `json:"fresh"`
	Epochs        int    `json:"epochs"`
	Iterations    int    `json:"iterations"`
	Converged     bool   `json:"converged"`
	Incremental   bool   `json:"incremental"`
	// Durable reports whether a write-ahead log is attached; WAL carries
	// its live status.
	Durable     bool          `json:"durable"`
	WAL         *PersistStats `json:"wal,omitempty"`
	LastInferMS float64       `json:"last_infer_ms"`
	// LastError reports the most recent failed epoch (empty after a
	// success) — the only place a background auto-refresh failure
	// surfaces.
	LastError string `json:"last_error,omitempty"`
}

// Stats returns a consistent snapshot of the serving state.
func (s *Service) Stats() Stats {
	tasks, workers, answers := s.store.Dims()
	storeVersion := s.store.Version()
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Name:         s.store.Name(),
		Method:       s.method.Name(),
		Tasks:        tasks,
		Workers:      workers,
		Answers:      answers,
		StoreVersion: storeVersion,
		Incremental:  s.inc != nil,
		Durable:      s.cfg.Persist != nil,
	}
	if s.cfg.Persist != nil {
		w := s.cfg.Persist.PersistStats()
		st.WAL = &w
	}
	st.ResultVersion = s.resVersion
	st.Fresh = s.res != nil && s.resVersion == storeVersion
	st.Epochs = s.epochs
	if s.res != nil {
		st.Iterations = s.res.Iterations
		st.Converged = s.res.Converged
	}
	st.LastInferMS = float64(s.lastInfer.Microseconds()) / 1000
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	return st
}

// Close drains any in-flight background refresh (the epoch finishes and
// publishes), flushes the write-ahead log, and releases the service's
// persistent worker pool. A non-nil error means the final WAL flush
// failed — batches acknowledged since the last successful Sync may not
// be on disk. Close is idempotent, and from the moment it is called
// Ingest and Refresh reject with ErrClosed while reads keep serving the
// last published result — so a multi-tenant registry can delete a
// project out from under in-flight requests without tearing anything.
func (s *Service) Close() error {
	// closing flips under ingestMu: an Ingest that already passed its
	// closing check has also already done its bg.Add (both happen inside
	// the same critical section), so bg.Wait below can never race a
	// concurrent bg.Add from zero.
	s.ingestMu.Lock()
	s.closing.Store(true)
	s.ingestMu.Unlock()
	s.bg.Wait()
	s.inferMu.Lock()
	defer s.inferMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.snap = nil
	var err error
	if s.cfg.Persist != nil {
		if serr := s.cfg.Persist.Sync(); serr != nil {
			err = fmt.Errorf("stream: final WAL flush on Close: %w", serr)
		}
	}
	s.pool.Close()
	return err
}
