package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"truthinference/internal/stream"
)

// Options parameterizes Open.
type Options struct {
	// SnapshotEvery compacts the log every N recorded batches: the store
	// is snapshotted to <base>.snap and the WAL reset. 0 disables
	// automatic compaction (the owner can still call Snapshot itself,
	// e.g. on clean shutdown). Compaction runs in the background — the
	// O(answers) snapshot never stalls the ingest path, which only pays
	// for the O(1) log append.
	SnapshotEvery int
	// Shards is ignored.
	//
	// Deprecated: the store has one answer log. The field stays only
	// until the benchmark's hand-built tenant stops setting it (ROADMAP
	// item 1).
	Shards int
	// Metrics, when non-nil, receives append/fsync observations (see
	// NewMetrics). Nil disables instrumentation.
	Metrics *Metrics
}

// Recovery describes what Open found on disk.
type Recovery struct {
	// Store is the recovered (or freshly created) store.
	Store *stream.Store
	// SnapshotVersion is the store version of the loaded snapshot
	// (0 when no snapshot existed).
	SnapshotVersion uint64
	// Replayed is the number of WAL records applied on top of the
	// snapshot (records the snapshot already covered are skipped and not
	// counted).
	Replayed int
	// TailErr is non-nil when the WAL had a truncated or corrupted tail.
	// The store holds the consistent prefix and the damaged bytes were
	// truncated away, so appending may continue; callers that require a
	// loss-free log should treat it as fatal.
	TailErr *CorruptError
}

// pendingRec is one record appended while a background compaction was
// snapshotting; the log swap re-appends the ones the snapshot missed.
type pendingRec struct {
	version uint64
	b       stream.Batch
}

// Persister is the stream.Persister implementation over a WAL + snapshot
// pair: Record appends each committed batch and, every SnapshotEvery
// records, kicks a background compaction of the log into a fresh
// snapshot. It is safe for one writer (the Service serializes Record
// under its ingest lock) plus concurrent Sync/SyncTo/Snapshot callers.
//
// # Group commit
//
// SyncTo(version) is the commit pipeline for concurrent ingest batches:
// callers needing durability through different versions pile up behind
// one fsync leader (syncMu) instead of issuing one fsync each. The
// leader captures the highest appended version, fsyncs once outside the
// record lock (Record never stalls behind a disk flush), and advances
// the durable watermark past every waiter it covered — the waiters'
// own SyncTo calls then return on the watermark fast path without
// touching the disk. Under N concurrent batch ingests this coalesces N
// fsyncs into a few, which is where the batched endpoint's throughput
// comes from.
type Persister struct {
	mu         sync.Mutex
	idle       sync.Cond // signalled when a background compaction finishes
	store      *stream.Store
	log        *Log
	base       string
	every      int
	since      int    // records appended since the last successful compaction
	appended   uint64 // store version of the last record appended to the log
	compacting bool   // a background compaction is in flight
	pending    []pendingRec
	compactErr error // last failed compaction; retried on a later Record, surfaced by Sync
	closed     bool
	m          *Metrics // nil-safe instrument bundle (see metrics.go)

	// syncMu serializes fsyncs: the group-commit leader lock. Ordered
	// after p.mu is released — never held together with it.
	syncMu sync.Mutex
	// durable is the highest store version known flushed to stable
	// storage (log fsync, snapshot, or swap). Monotone; read lock-free.
	durable atomic.Uint64
}

var _ stream.Persister = (*Persister)(nil)

// Open recovers (or initializes) the durable state at <base>.snap /
// <base>.wal and returns a Persister appending to the log. fresh builds
// the initial store when no snapshot exists — it must be deterministic
// across restarts (same flags → same store), because WAL records are
// replayed on top of what it returns.
//
// Damage handling: a truncated or corrupted log *tail* is truncated
// away and reported in Recovery.TailErr — the store holds the intact
// prefix. A *version gap* between the snapshot and the log's intact
// records (e.g. a snapshot restored from an older backup next to a
// newer log) is a hard error: the records are valid data that is not
// the persister's to destroy, so Open refuses to boot instead of
// truncating them.
func Open(base string, fresh func() (*stream.Store, error), opts Options) (*Persister, *Recovery, error) {
	snapPath, walPath := base+".snap", base+".wal"
	rec := &Recovery{}

	d, snapVersion, err := ReadSnapshot(snapPath)
	switch {
	case err == nil:
		rec.Store = stream.NewStoreAt(d, snapVersion)
		rec.SnapshotVersion = snapVersion
	case os.IsNotExist(err):
		store, ferr := fresh()
		if ferr != nil {
			return nil, nil, ferr
		}
		rec.Store = store
	default:
		return nil, nil, err
	}

	var log *Log
	if _, statErr := os.Stat(walPath); statErr == nil {
		off, _, rerr := Replay(walPath, func(version uint64, b stream.Batch) error {
			cur := rec.Store.Version()
			if version <= cur {
				// Already covered by the snapshot (or by the crash window
				// between a snapshot and the WAL reset) — skip.
				return nil
			}
			if version != cur+1 {
				// Deliberately NOT a CorruptError: the record is intact,
				// it just cannot belong to this snapshot, and truncating
				// it would destroy valid data.
				return fmt.Errorf("wal: version gap: store at %d, next record at %d — %s does not belong to %s (restored from a different backup?)",
					cur, version, walPath, snapPath)
			}
			got, _, ierr := rec.Store.Ingest(b)
			if ierr != nil {
				return fmt.Errorf("wal: replaying record at version %d: %w", version, ierr)
			}
			if got != version {
				return fmt.Errorf("wal: replay applied record at version %d as %d", version, got)
			}
			rec.Replayed++
			return nil
		})
		if rerr != nil {
			var corrupt *CorruptError
			if !errors.As(rerr, &corrupt) {
				return nil, nil, rerr
			}
			if corrupt.Offset == 0 {
				corrupt.Offset = off
			}
			rec.TailErr = corrupt
		}
		if off < int64(len(logMagic)) {
			// The damage starts in (or before) the magic itself — there
			// is no valid header to append after, so rewrite the log from
			// scratch rather than appending into a magic-less file the
			// next recovery would discard wholesale.
			if log, err = Create(walPath); err != nil {
				return nil, nil, err
			}
		} else {
			// Truncate the damaged tail and append after the intact
			// prefix.
			if log, err = openAppend(walPath, off); err != nil {
				return nil, nil, err
			}
		}
	} else if os.IsNotExist(statErr) {
		if log, err = Create(walPath); err != nil {
			return nil, nil, err
		}
	} else {
		return nil, nil, statErr
	}

	p := &Persister{store: rec.Store, log: log, base: base, every: opts.SnapshotEvery, m: opts.Metrics}
	p.idle.L = &p.mu
	// Everything recovered came off stable storage: the recovered version
	// is both the last appended and the durable watermark.
	p.appended = rec.Store.Version()
	p.durable.Store(p.appended)
	return p, rec, nil
}

// Record appends one committed batch to the log and, every
// SnapshotEvery records, kicks a background compaction. An error means
// the batch was NOT appended — a failed compaction is not a Record
// failure (the batch is in the log); it is remembered, retried on a
// later Record, and surfaced by Sync.
func (p *Persister) Record(version uint64, b stream.Batch) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("wal: persister is closed")
	}
	if err := p.log.Append(version, b); err != nil {
		return err
	}
	if p.compacting {
		// The in-flight compaction may have snapshotted before this
		// record landed; mirror it so the log swap can carry it over.
		p.pending = append(p.pending, pendingRec{version, b})
	}
	p.appended = version
	p.since++
	p.m.observeRecord(version - p.durable.Load())
	if p.every > 0 && p.since >= p.every && !p.compacting {
		p.compacting = true
		go p.compactAsync()
	}
	return nil
}

// Sync flushes the log to stable storage and reports any compaction
// failure still pending retry (the epoch-boundary flush is where the
// service surfaces durability problems). The fsync itself runs through
// the group-commit pipeline, outside the record lock.
func (p *Persister) Sync() error {
	p.mu.Lock()
	target := p.appended
	cerr := p.compactErr
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return errors.New("wal: persister is closed")
	}
	if err := p.SyncTo(target); err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("wal: snapshot compaction failed (will retry): %w", cerr)
	}
	return nil
}

// SyncTo blocks until every record through the given store version is
// on stable storage. Concurrent callers coalesce: one leader fsyncs for
// everyone queued behind it (see the type comment). version must not
// exceed the last Recorded version — a Persister cannot make data it
// never saw durable.
func (p *Persister) SyncTo(version uint64) error {
	if p.durable.Load() >= version {
		return nil
	}
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	if p.durable.Load() >= version {
		// A leader that held syncMu while we waited covered our version.
		return nil
	}
	p.mu.Lock()
	log, target, closed := p.log, p.appended, p.closed
	p.mu.Unlock()
	if closed {
		return errors.New("wal: persister is closed")
	}
	if version > target {
		return fmt.Errorf("wal: SyncTo(%d) beyond last recorded version %d", version, target)
	}
	durableBefore := p.durable.Load()
	start := time.Now()
	if err := log.Sync(); err != nil {
		if errors.Is(err, os.ErrClosed) {
			// A concurrent compaction swapped the log out from under us.
			// The swap is itself a durability point: every record appended
			// before it is in the durably-renamed snapshot or the fsynced
			// fresh log, and target was appended before we captured it —
			// so target is durable even though this fsync lost the race.
			p.advanceDurable(target)
			return nil
		}
		return err
	}
	p.advanceDurable(target)
	if target > durableBefore {
		// The group-commit batch is how many store versions this one
		// fsync made durable — every waiter queued behind this leader
		// returns on the watermark fast path without touching the disk.
		p.m.observeFsync(time.Since(start), target-durableBefore, 0)
	}
	return nil
}

// DurableVersion reports the highest store version known to be on
// stable storage. Lock-free; safe from any goroutine.
func (p *Persister) DurableVersion() uint64 { return p.durable.Load() }

// advanceDurable ratchets the durable watermark up to v (never down —
// a stale leader must not regress a newer leader's advance).
func (p *Persister) advanceDurable(v uint64) {
	for {
		cur := p.durable.Load()
		if cur >= v || p.durable.CompareAndSwap(cur, v) {
			return
		}
	}
}

// PersistStats reports the live durability state GET /v1/stats shows,
// so operators can verify the WAL/snapshot config at runtime.
func (p *Persister) PersistStats() stream.PersistStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := stream.PersistStats{
		SinceSnapshot:  p.since,
		Compacting:     p.compacting,
		DurableVersion: p.durable.Load(),
	}
	if p.compactErr != nil {
		st.CompactError = p.compactErr.Error()
	}
	return st
}

// Snapshot compacts now, synchronously: any in-flight background
// compaction is waited out, then the store is snapshotted to
// <base>.snap and the log reset. Recovery cost drops to the snapshot
// read plus whatever arrives afterwards.
func (p *Persister) Snapshot() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.compacting {
		p.idle.Wait()
	}
	if p.closed {
		return errors.New("wal: persister is closed")
	}
	version, err := p.writeSnapshot()
	if err == nil {
		err = p.swapLogLocked(version)
	}
	p.compactErr = err
	return err
}

// writeSnapshot writes <base>.snap from the store's pinned log prefix
// and a copy of its truths (Store.Contents), encoded with no index, and
// returns the store version it covers.
func (p *Persister) writeSnapshot() (uint64, error) {
	d, version := p.store.Contents()
	return version, WriteSnapshot(p.base+".snap", d, version)
}

// compactAsync is the background half of Record's compaction kick: the
// O(answers) snapshot encode and file write run without the lock, so
// the ingest path never stalls behind them; only the final log swap
// briefly takes it.
func (p *Persister) compactAsync() {
	version, err := p.writeSnapshot()

	p.mu.Lock()
	if err == nil {
		if p.closed {
			err = errors.New("wal: persister closed during compaction")
		} else {
			err = p.swapLogLocked(version)
		}
	}
	p.compactErr = err
	if err != nil {
		// Re-arm so the next Record retries.
		p.since = p.every
	}
	p.pending = nil
	p.compacting = false
	p.idle.Broadcast()
	p.mu.Unlock()
}

// waitIdle blocks until no background compaction is in flight (used by
// tests to make the async compaction schedule deterministic).
func (p *Persister) waitIdle() {
	p.mu.Lock()
	for p.compacting {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// swapLogLocked replaces the log with a fresh one containing only the
// pending records the just-written snapshot (at snapVersion) does not
// cover. The caller holds p.mu and has durably renamed the snapshot
// into place, which is the crash-safety argument: the fresh log is
// written through createAtomic, so a crash at any point leaves either
// the old log (fully intact, its covered records skipped on replay) or
// the new one (holding exactly the uncovered records) — acknowledged
// data is never lost. Failure never wedges the persister: on any error
// the current log stays open and untouched, and the next Record retries
// the whole compaction.
func (p *Persister) swapLogLocked(snapVersion uint64) error {
	buf := []byte(logMagic)
	carried := 0
	var err error
	for _, r := range p.pending {
		if r.version > snapVersion {
			if buf, err = appendRecord(buf, r.version, r.b); err != nil {
				return err
			}
			carried++
		}
	}
	f, err := createAtomic(p.base+".wal", buf)
	if err != nil {
		return err
	}
	old := p.log
	p.log = &Log{f: f}
	_ = old.Close()
	p.since = carried
	// The swap is a durability point: the snapshot rename and the fresh
	// log's fsync together cover every record appended so far.
	p.advanceDurable(p.appended)
	return nil
}

// Close waits out any in-flight compaction, then flushes and closes the
// log. The Persister must not be used afterwards.
func (p *Persister) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.compacting {
		p.idle.Wait()
	}
	if p.closed {
		return nil
	}
	p.closed = true
	err := p.log.Close()
	if err == nil {
		p.advanceDurable(p.appended)
	}
	return err
}
