package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	post, version, err := svc.Posteriors(nil, 0, nil)
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
	if _, _, err := svc.Posteriors(nil, 0, nil); !errors.Is(err, ErrNoPosterior) {
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
	if _, _, err := svc2.Posteriors(nil, 0, nil); !errors.Is(err, ErrNotInferred) {
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

// deltaRead is a follower of Posteriors: it keeps the rows and the
// result version of its last read and lists the rows each read copies.
type deltaRead struct {
	rows   [][]float64
	since  uint64
	listed []int
}

// read brings the follower up to the published posterior.
func (d *deltaRead) read(tb testing.TB, svc *Service) {
	tb.Helper()
	d.listed = d.listed[:0]
	rows, v, err := svc.Posteriors(d.rows, d.since, func(task int) { d.listed = append(d.listed, task) })
	if err != nil {
		tb.Fatal(err)
	}
	d.rows, d.since = rows, v
}

// sameRows fails unless got and want hold the same rows bit for bit.
func sameRows(tb testing.TB, at string, got, want [][]float64) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d rows, a full copy has %d", at, len(got), len(want))
	}
	for task := range want {
		for k := range want[task] {
			if math.Float64bits(got[task][k]) != math.Float64bits(want[task][k]) {
				tb.Fatalf("%s: row %d is %v, a full copy has %v", at, task, got[task], want[task])
			}
		}
	}
}

// fullCopy is Posteriors(nil, 0, nil), failing on error.
func fullCopy(tb testing.TB, svc *Service) ([][]float64, uint64) {
	tb.Helper()
	rows, v, err := svc.Posteriors(nil, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return rows, v
}

// TestPosteriorsDeltaRead pins the delta read. On MV it copies exactly
// the rows the fold rewrote after since (every task a later batch
// answered) plus the tasks added since, none at the current version, and
// its rows equal a full copy bit for bit. After a D&S epoch it copies
// every row, and between epochs none, however many batches land.
func TestPosteriorsDeltaRead(t *testing.T) {
	t.Run("MV", func(t *testing.T) {
		store, err := NewStoreN("delta", dataset.SingleChoice, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(store, Config{Method: direct.NewMV(), Options: optsSeq(1)})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		ingestT(t, svc, Batch{NumTasks: 30, NumWorkers: 5})
		rng := rand.New(rand.NewSource(4))
		var d deltaRead
		for round := 0; round < 300; round++ {
			held := len(d.rows)
			touched := map[int]bool{}
			for range rng.Intn(4) {
				tasks, _, _ := svc.Dims()
				var b Batch
				if rng.Intn(5) == 0 {
					b.NumTasks = tasks + 1 + rng.Intn(3)
					tasks = b.NumTasks
				}
				for range rng.Intn(4) {
					task := rng.Intn(tasks)
					b.Answers = append(b.Answers, dataset.Answer{Task: task, Worker: rng.Intn(9), Value: float64(rng.Intn(3))})
					touched[task] = true
				}
				ingestT(t, svc, b)
			}
			d.read(t, svc)
			var want []int
			for task := range d.rows {
				if task >= held || touched[task] {
					want = append(want, task)
				}
			}
			if !slices.Equal(d.listed, want) {
				t.Fatalf("round %d: the delta read copied rows %v, want %v", round, d.listed, want)
			}
			full, v := fullCopy(t, svc)
			if d.since != v {
				t.Fatalf("round %d: delta read at version %d, a full copy at %d", round, d.since, v)
			}
			sameRows(t, fmt.Sprintf("round %d", round), d.rows, full)
			if d.read(t, svc); len(d.listed) != 0 {
				t.Fatalf("round %d: a read at the current version copied rows %v", round, d.listed)
			}
		}
	})
	t.Run("D&S", func(t *testing.T) {
		store, err := NewStoreN("delta", dataset.SingleChoice, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(store, Config{Method: ds.New(), Options: optsSeq(1)})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		rng := rand.New(rand.NewSource(5))
		batch := func() Batch {
			var b Batch
			for range 8 {
				b.Answers = append(b.Answers, dataset.Answer{Task: rng.Intn(25), Worker: rng.Intn(6), Value: float64(rng.Intn(3))})
			}
			return b
		}
		var d deltaRead
		for epoch := 0; epoch < 5; epoch++ {
			ingestT(t, svc, batch())
			if err := svc.Refresh(); err != nil {
				t.Fatal(err)
			}
			d.read(t, svc)
			if len(d.listed) != len(d.rows) || len(d.rows) == 0 {
				t.Fatalf("epoch %d: the delta read copied %d of %d rows, want every row", epoch, len(d.listed), len(d.rows))
			}
			ingestT(t, svc, batch()) // lands after the epoch: the result stays
			if d.read(t, svc); len(d.listed) != 0 {
				t.Fatalf("epoch %d: a read at the current version copied rows %v", epoch, d.listed)
			}
			full, _ := fullCopy(t, svc)
			sameRows(t, fmt.Sprintf("epoch %d", epoch), d.rows, full)
		}
	})
}

// TestPosteriorsDeltaReadBesideIngest runs a follower of the delta read
// beside a writer (run it under -race): whenever a full copy reflects the
// same result version as the follower's read, the two are equal bit for
// bit, and after the writer stops one more read equals a full copy.
func TestPosteriorsDeltaReadBesideIngest(t *testing.T) {
	store, err := NewStoreN("delta", dataset.SingleChoice, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(store, Config{Method: direct.NewMV(), Options: optsSeq(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			if _, err := svc.Ingest(Batch{Answers: []dataset.Answer{
				{Task: i * 7 % (50 + i/10), Worker: i % 13, Value: float64(i % 3)},
			}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var d deltaRead
	compared := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		d.read(t, svc)
		if full, v := fullCopy(t, svc); v == d.since {
			sameRows(t, fmt.Sprintf("version %d", v), d.rows, full)
			compared++
		}
	}
	d.read(t, svc)
	full, _ := fullCopy(t, svc)
	sameRows(t, "after the writer", d.rows, full)
	t.Logf("%d reads compared at a matching version", compared)
}

// TestAnswersSince pins the store's delta walk: AnswersSince(k) visits
// exactly the answers at log index k or later, in ingestion order, and
// returns the answer count; counts built from its visits equal a
// snapshot's task degrees; and a follower that keeps calling it with the
// count it got back visits every answer exactly once while other
// goroutines ingest (run it under -race).
func TestAnswersSince(t *testing.T) {
	// A numeric store lets each answer's value be its log index.
	store, err := NewStore("since", dataset.Numeric, 0)
	if err != nil {
		t.Fatal(err)
	}
	const total = 1000
	for i := 0; i < total; i += 50 {
		batch := make([]dataset.Answer, 50)
		for j := range batch {
			batch[j] = dataset.Answer{Task: (i + j) * 37 % 301, Worker: (i + j) % 11, Value: float64(i + j)}
		}
		if _, _, err := store.Ingest(Batch{Answers: batch}); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := store.Snapshot()
	for _, from := range []int{0, 1, 499, total - 1, total} {
		var visited []int
		next := store.AnswersSince(from, func(task, worker int, value float64) {
			a := snap.Answers[int(value)]
			if a.Task != task || a.Worker != worker {
				t.Fatalf("visited (%d, %d) for index %v, which holds %+v", task, worker, value, a)
			}
			visited = append(visited, int(value))
		})
		if next != total {
			t.Fatalf("AnswersSince(%d) returned %d, want %d", from, next, total)
		}
		var want []int
		for idx := from; idx < total; idx++ {
			want = append(want, idx)
		}
		if !slices.Equal(visited, want) {
			t.Fatalf("AnswersSince(%d) visited %d answers %v..., want %d in log order",
				from, len(visited), visited[:min(len(visited), 5)], len(want))
		}
	}
	counts := make([]int, snap.NumTasks)
	store.AnswersSince(0, func(task, _ int, _ float64) { counts[task]++ })
	for task := range counts {
		if want := len(snap.TaskAnswers(task)); counts[task] != want {
			t.Errorf("task %d: counted %d answers, snapshot degree %d", task, counts[task], want)
		}
	}

	// A follower under concurrent ingest, starting from an empty view.
	const writers, perWriter, tasks = 4, 200, 400
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := total + g*perWriter + i
				if _, _, err := store.Ingest(Batch{Answers: []dataset.Answer{
					{Task: id * 13 % tasks, Worker: g, Value: float64(id)},
				}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	counts = make([]int, tasks)
	visits := map[int]int{}
	follow := func(task, _ int, value float64) {
		visits[int(value)]++
		counts[task]++
	}
	next := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		next = store.AnswersSince(next, follow)
	}
	const all = total + writers*perWriter
	if next != all || len(visits) != all {
		t.Fatalf("follower ended at %d having visited %d distinct answers, want %d", next, len(visits), all)
	}
	for id, n := range visits {
		if n != 1 {
			t.Fatalf("answer %d visited %d times", id, n)
		}
	}
	snap, _ = store.Snapshot()
	for task := 0; task < snap.NumTasks; task++ {
		if want := len(snap.TaskAnswers(task)); counts[task] != want {
			t.Errorf("after concurrent ingest, task %d: counted %d answers, snapshot degree %d", task, counts[task], want)
		}
	}
}

// TestStatsReportsDurability pins the operator-facing stats additions:
// WAL status when a stats-capable persister is attached.
func TestStatsReportsDurability(t *testing.T) {
	svc, err := NewService(mustNewStore(t), Config{Method: direct.NewMV(), Options: optsSeq(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	st := svc.Stats()
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
