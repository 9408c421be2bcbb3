package wal

import (
	"errors"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"truthinference/internal/dataset"
	"truthinference/internal/methods/direct"
	"truthinference/internal/stream"
)

// The coalescing tests observe group commit through the durable
// watermark (which only advances at a real durability point) plus a
// stress run under -race; fsync counts themselves are not observable
// without faking the filesystem.

func openGC(t *testing.T, every int) (*Persister, *stream.Store) {
	t.Helper()
	base := filepath.Join(t.TempDir(), "store")
	fresh := func() (*stream.Store, error) { return stream.NewStore("gc", dataset.Decision, 2) }
	p, rec, err := Open(base, fresh, Options{SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, rec.Store
}

func TestSyncToAdvancesDurableWatermark(t *testing.T) {
	p, store := openGC(t, 0)
	if got := p.DurableVersion(); got != 0 {
		t.Fatalf("fresh durable = %d, want 0", got)
	}
	var versions []uint64
	for i := 0; i < 5; i++ {
		b := stream.Batch{Answers: []dataset.Answer{{Task: i, Worker: i, Value: 1}}}
		v, _, err := store.Ingest(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Record(v, b); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, v)
	}
	if got := p.DurableVersion(); got != 0 {
		t.Fatalf("durable before any sync = %d, want 0", got)
	}
	if err := p.SyncTo(versions[2]); err != nil {
		t.Fatal(err)
	}
	// The leader flushes everything appended, not just the asked-for
	// version — that is the group-commit contract.
	if got := p.DurableVersion(); got != versions[4] {
		t.Fatalf("durable after SyncTo(%d) = %d, want %d (whole log)", versions[2], got, versions[4])
	}
	// Asking for an already-durable version is a lock-free no-op.
	if err := p.SyncTo(versions[0]); err != nil {
		t.Fatal(err)
	}
}

func TestSyncToBeyondAppendedFails(t *testing.T) {
	p, store := openGC(t, 0)
	b := stream.Batch{NumTasks: 1, NumWorkers: 1}
	v, _, err := store.Ingest(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Record(v, b); err != nil {
		t.Fatal(err)
	}
	if err := p.SyncTo(v + 1); err == nil {
		t.Fatal("SyncTo beyond the last recorded version succeeded")
	}
}

func TestSyncToAfterClose(t *testing.T) {
	p, store := openGC(t, 0)
	b := stream.Batch{NumTasks: 1, NumWorkers: 1}
	v, _, _ := store.Ingest(b)
	if err := p.Record(v, b); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Close flushed the log, so the watermark covers v and SyncTo(v)
	// succeeds on the fast path without touching the closed file.
	if got := p.DurableVersion(); got != v {
		t.Fatalf("durable after close = %d, want %d", got, v)
	}
	if err := p.SyncTo(v); err != nil {
		t.Fatal(err)
	}
	if err := p.SyncTo(v + 1); err == nil {
		t.Fatal("SyncTo past the watermark on a closed persister succeeded")
	}
}

// healingLog is a log file whose next fsync fails with failSync; after
// that failure the file heals, and every later fsync succeeds.
type healingLog struct {
	logFile
	failSync error
}

func (f *healingLog) Sync() error {
	if err := f.failSync; err != nil {
		f.failSync = nil
		return err
	}
	return f.logFile.Sync()
}

// TestSyncFailureIsSticky pins that a failed log fsync is final. The
// fsync for version 2 fails with EIO and the file heals, so a retried
// fsync would succeed and ack records the failed one may have dropped.
// Instead a second SyncTo(2) returns the first failure, the durable
// watermark stays at 1, the next ingest fails to record and halts the
// service, and Sync keeps failing; SyncTo(1), already durable, succeeds.
func TestSyncFailureIsSticky(t *testing.T) {
	p, store := openGC(t, 0)
	svc, err := stream.NewService(store, stream.Config{Method: direct.NewMV(), Persist: p})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ingest := func() (uint64, error) {
		return svc.Ingest(stream.Batch{Answers: []dataset.Answer{{Task: 0, Worker: 0, Value: 1}}})
	}
	v1, err := ingest()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.DurableTo(v1); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.log.f = &healingLog{logFile: p.log.f, failSync: syscall.EIO}
	p.mu.Unlock()
	v2, err := ingest()
	if err != nil {
		t.Fatal(err)
	}
	for try := 1; try <= 2; try++ {
		durable, _, err := svc.DurableTo(v2)
		if !errors.Is(err, syscall.EIO) || durable != v1 {
			t.Fatalf("SyncTo(%d), try %d: durable %d, err %v; want durable %d and EIO", v2, try, durable, err, v1)
		}
	}
	if _, err := ingest(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("ingest after a failed fsync: %v, want the fsync's EIO", err)
	}
	if _, err := ingest(); err == nil {
		t.Fatal("ingest went on after the log failed to record a batch")
	}
	if err := p.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync after a failed fsync: %v, want EIO", err)
	}
	if durable, _, err := svc.DurableTo(v1); err != nil || durable != v1 {
		t.Fatalf("SyncTo(%d), already durable: durable %d, err %v", v1, durable, err)
	}
}

// TestGroupCommitConcurrent hammers Record+SyncTo from many goroutines
// (each serializing its own Record under a shared mutex, as the Service
// does) while background compaction swaps the log underneath — the
// -race build checks the locking, and every SyncTo must return with the
// watermark at or past its version.
func TestGroupCommitConcurrent(t *testing.T) {
	p, store := openGC(t, 7) // compaction kicks mid-run
	const goroutines, perG = 8, 25

	var ingestMu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				b := stream.Batch{Answers: []dataset.Answer{{Task: g, Worker: i % 4, Value: 1}}}
				ingestMu.Lock()
				v, _, err := store.Ingest(b)
				if err == nil {
					err = p.Record(v, b)
				}
				ingestMu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if err := p.SyncTo(v); err != nil {
					errs <- err
					return
				}
				if d := p.DurableVersion(); d < v {
					errs <- &CorruptError{Reason: "watermark behind acked version"}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	p.waitIdle()
	if d := p.DurableVersion(); d != store.Version() {
		t.Fatalf("final durable = %d, want store version %d", d, store.Version())
	}

	// The log + snapshot must recover to the full ingested state.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, rec, err := Open(p.base, func() (*stream.Store, error) { return stream.NewStore("gc", dataset.Decision, 2) }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rec.TailErr != nil {
		t.Fatalf("tail error after clean close: %v", rec.TailErr)
	}
	if rec.Store.Version() != store.Version() {
		t.Fatalf("recovered version %d, want %d", rec.Store.Version(), store.Version())
	}
	if _, _, answers := rec.Store.Dims(); answers != goroutines*perG {
		t.Fatalf("recovered %d answers, want %d", answers, goroutines*perG)
	}
}
