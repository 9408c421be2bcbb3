package stream

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/methods/direct"
	"truthinference/internal/methods/ds"
)

// optsSeq is a sequential single-seeded Options for the source tests.
func optsSeq(seed int64) core.Options { return core.Options{Seed: seed} }

func ingestT(t *testing.T, svc *Service, b Batch) {
	t.Helper()
	if _, err := svc.Ingest(b); err != nil {
		t.Fatal(err)
	}
}

func newMVService(t *testing.T) *Service {
	t.Helper()
	store, err := NewStore("src", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(store, Config{Method: direct.NewMV(), Options: optsSeq(1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// TestWorkerQualityErrorPaths pins every failure mode of the quality
// query: out-of-range ids on both the incremental and the iterative
// paths, and querying an iterative service before its first epoch.
func TestWorkerQualityErrorPaths(t *testing.T) {
	t.Run("incremental out of range", func(t *testing.T) {
		svc := newMVService(t)
		ingestT(t, svc, Batch{NumTasks: 2, NumWorkers: 3})
		for _, w := range []int{-1, 3, 1 << 20} {
			if _, err := svc.WorkerQuality(w); err == nil {
				t.Errorf("WorkerQuality(%d) on a 3-worker store succeeded", w)
			} else if !strings.Contains(err.Error(), "worker") {
				t.Errorf("WorkerQuality(%d) error is not actionable: %v", w, err)
			}
		}
		// In range: incremental methods report uniform quality 1.
		if q, err := svc.WorkerQuality(2); err != nil || q != 1 {
			t.Errorf("WorkerQuality(2) = %v, %v; want 1, nil", q, err)
		}
	})
	t.Run("iterative before first epoch", func(t *testing.T) {
		store, err := NewStore("src", dataset.Decision, 2)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(store, Config{Method: ds.New(), Options: optsSeq(1)})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if _, err := svc.WorkerQuality(0); !errors.Is(err, ErrNotInferred) {
			t.Fatalf("WorkerQuality before first epoch = %v, want ErrNotInferred", err)
		}
		ingestT(t, svc, Batch{Answers: []dataset.Answer{
			{Task: 0, Worker: 0, Value: 1}, {Task: 0, Worker: 1, Value: 1}, {Task: 1, Worker: 0, Value: 0},
		}})
		if err := svc.Refresh(); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.WorkerQuality(0); err != nil {
			t.Errorf("WorkerQuality after epoch: %v", err)
		}
		if _, err := svc.WorkerQuality(2); err == nil {
			t.Error("WorkerQuality beyond the inferred range succeeded")
		}
	})
}

func TestPosteriorsIncrementalMV(t *testing.T) {
	svc := newMVService(t)
	ingestT(t, svc, Batch{NumTasks: 3, NumWorkers: 4})
	ingestT(t, svc, Batch{Answers: []dataset.Answer{
		{Task: 0, Worker: 0, Value: 1}, {Task: 0, Worker: 1, Value: 1}, {Task: 0, Worker: 2, Value: 0},
		{Task: 1, Worker: 3, Value: 0},
	}})
	post, version, err := svc.Posteriors()
	if err != nil {
		t.Fatal(err)
	}
	if version != svc.StoreVersion() {
		t.Errorf("posterior version %d, want fresh store version %d", version, svc.StoreVersion())
	}
	want := [][]float64{{1. / 3, 2. / 3}, {1, 0}, {0.5, 0.5}}
	for i, row := range want {
		for k := range row {
			if math.Abs(post[i][k]-row[k]) > 1e-12 {
				t.Errorf("posterior[%d] = %v, want %v", i, post[i], row)
			}
		}
	}
}

func TestPosteriorsUnavailable(t *testing.T) {
	// Numeric incremental method: no posterior, ever.
	store, err := NewStore("num", dataset.Numeric, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(store, Config{Method: direct.NewMean(), Options: optsSeq(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, _, err := svc.Posteriors(); !errors.Is(err, ErrNoPosterior) {
		t.Fatalf("Posteriors on Mean = %v, want ErrNoPosterior", err)
	}
	if _, _, err := svc.Entropies(); !errors.Is(err, ErrNoPosterior) {
		t.Fatalf("Entropies on Mean = %v, want ErrNoPosterior", err)
	}

	// Iterative method before its first epoch: not inferred yet.
	store2, err := NewStore("d", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := NewService(store2, Config{Method: ds.New(), Options: optsSeq(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if _, _, err := svc2.Posteriors(); !errors.Is(err, ErrNotInferred) {
		t.Fatalf("Posteriors before first epoch = %v, want ErrNotInferred", err)
	}
}

// TestEntropiesCacheInvalidation checks the epoch-boundary contract: the
// entropy vector is cached between epochs and recomputed when new data
// publishes.
func TestEntropiesCacheInvalidation(t *testing.T) {
	svc := newMVService(t)
	ingestT(t, svc, Batch{Answers: []dataset.Answer{
		{Task: 0, Worker: 0, Value: 1}, {Task: 0, Worker: 1, Value: 0},
	}})
	ent, v1, err := svc.Entropies()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ent[0]-math.Log(2)) > 1e-12 {
		t.Errorf("entropy of a 1-1 split = %v, want ln 2", ent[0])
	}
	// Same version → served from cache (same values).
	ent2, v2, _ := svc.Entropies()
	if v2 != v1 || ent2[0] != ent[0] {
		t.Errorf("cached entropies changed without an epoch: v%d→v%d", v1, v2)
	}
	// New answers break the tie → entropy must drop after the boundary.
	ingestT(t, svc, Batch{Answers: []dataset.Answer{{Task: 0, Worker: 2, Value: 1}}})
	ent3, v3, err := svc.Entropies()
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatal("entropy version did not advance past the epoch boundary")
	}
	if ent3[0] >= ent[0] {
		t.Errorf("entropy after a tie-breaking vote = %v, want < %v", ent3[0], ent[0])
	}
}

func TestAnswerCounts(t *testing.T) {
	svc := newMVService(t)
	ingestT(t, svc, Batch{NumTasks: 4, NumWorkers: 3})
	ingestT(t, svc, Batch{Answers: []dataset.Answer{
		{Task: 0, Worker: 0, Value: 1}, {Task: 0, Worker: 1, Value: 1},
		{Task: 2, Worker: 2, Value: 0},
	}})
	got := svc.TaskAnswerCounts()
	want := []int{2, 0, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("AnswerCounts length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("counts[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestStatsReportsShardsAndDurability pins the operator-facing stats
// additions: shard count always, WAL status when a stats-capable
// persister is attached.
func TestStatsReportsShardsAndDurability(t *testing.T) {
	store, err := NewStoreN("st", dataset.Decision, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(store, Config{Method: direct.NewMV(), Options: optsSeq(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	st := svc.Stats()
	if st.Shards != 5 {
		t.Errorf("Stats.Shards = %d, want 5", st.Shards)
	}
	if st.Durable || st.WAL != nil {
		t.Errorf("non-durable service reports durability: %+v", st)
	}

	svc2, err := NewService(mustNewStore(t), Config{
		Method: direct.NewMV(), Options: optsSeq(1), Persist: statPersister{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	st2 := svc2.Stats()
	if !st2.Durable {
		t.Error("durable service reports Durable=false")
	}
	if st2.WAL == nil || st2.WAL.SinceSnapshot != 7 {
		t.Errorf("Stats.WAL = %+v, want SinceSnapshot 7", st2.WAL)
	}
}

func mustNewStore(t *testing.T) *Store {
	t.Helper()
	store, err := NewStore("st", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// statPersister is a no-op Persister that reports a fixed status.
type statPersister struct{ nopDurability }

func (statPersister) Record(uint64, Batch) error { return nil }
func (statPersister) Sync() error                { return nil }
func (statPersister) PersistStats() PersistStats { return PersistStats{SinceSnapshot: 7} }

func TestQualityHistoryRetainsEpochWindow(t *testing.T) {
	store, err := NewStore("qh", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(store, Config{Method: ds.New(), Options: optsSeq(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ingestT(t, svc, Batch{NumTasks: 4, NumWorkers: 3, Answers: []dataset.Answer{
		{Task: 0, Worker: 0, Value: 1}, {Task: 1, Worker: 1, Value: 0}, {Task: 2, Worker: 2, Value: 1},
	}})

	if hist, _ := svc.QualityHistory(); len(hist) != 0 {
		t.Fatalf("history before any epoch: %d rows", len(hist))
	}
	for i := 0; i < QualityHistoryEpochs+5; i++ {
		ingestT(t, svc, Batch{Answers: []dataset.Answer{{Task: i % 4, Worker: i % 3, Value: 1}}})
		if err := svc.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	hist, ver := svc.QualityHistory()
	if len(hist) != QualityHistoryEpochs {
		t.Fatalf("retained %d epochs, want %d", len(hist), QualityHistoryEpochs)
	}
	if ver == 0 {
		t.Fatal("history version is zero after publishes")
	}
	for i, row := range hist {
		if len(row) != 3 {
			t.Fatalf("epoch %d has %d workers, want 3", i, len(row))
		}
	}
	// The returned rows are copies: scribbling on them must not corrupt
	// the retained history.
	hist[0][0] = math.Inf(1)
	again, _ := svc.QualityHistory()
	if math.IsInf(again[0][0], 1) {
		t.Fatal("QualityHistory returned aliased rows")
	}
}

// TestQualityHistoryConcurrentReads hammers QualityHistory from reader
// goroutines while epoch publishes append to the retained window — the
// race tripwire for the defense layer's detector input (run under
// -race in CI).
func TestQualityHistoryConcurrentReads(t *testing.T) {
	store, err := NewStore("qhrace", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(store, Config{Method: ds.New(), Options: optsSeq(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ingestT(t, svc, Batch{NumTasks: 8, NumWorkers: 4, Answers: []dataset.Answer{
		{Task: 0, Worker: 0, Value: 1}, {Task: 1, Worker: 1, Value: 0},
		{Task: 2, Worker: 2, Value: 1}, {Task: 3, Worker: 3, Value: 0},
	}})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hist, _ := svc.QualityHistory()
				for _, row := range hist {
					for _, q := range row {
						_ = q
					}
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		ingestT(t, svc, Batch{Answers: []dataset.Answer{{Task: i % 8, Worker: i % 4, Value: float64(i % 2)}}})
		if err := svc.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
