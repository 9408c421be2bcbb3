package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/methods/catd"
	"truthinference/internal/methods/direct"
	"truthinference/internal/methods/ds"
	"truthinference/internal/methods/glad"
	"truthinference/internal/methods/lfc"
	"truthinference/internal/methods/pm"
	"truthinference/internal/methods/vi"
	"truthinference/internal/methods/zc"
	"truthinference/internal/simulate"
	"truthinference/internal/testutil"
)

// splitBatches cuts the dataset's answer stream into k contiguous batches.
// The first batch declares the final id ranges (so answer-less tasks
// exist from the start, as on a real platform where tasks are published
// before workers answer) and the last carries the ground truths.
func splitBatches(d *dataset.Dataset, k int) []Batch {
	batches := make([]Batch, k)
	per := (len(d.Answers) + k - 1) / k
	for i := range batches {
		lo := i * per
		hi := lo + per
		if hi > len(d.Answers) {
			hi = len(d.Answers)
		}
		if lo > hi {
			lo = hi
		}
		batches[i].Answers = append([]dataset.Answer(nil), d.Answers[lo:hi]...)
	}
	batches[0].NumTasks = d.NumTasks
	batches[0].NumWorkers = d.NumWorkers
	batches[k-1].Truth = d.Truth
	return batches
}

func newServiceOver(t *testing.T, d *dataset.Dataset, m core.Method, opts core.Options) *Service {
	t.Helper()
	store, err := NewStore(d.Name, d.Type, d.NumChoices)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(store, Config{Method: m, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// TestIncrementalExactEquivalence is the streaming equivalence gate for
// the exact O(delta) methods: after every ingested batch, the published
// result must equal the method's Infer over the store's snapshot field
// for field — truths, MV posteriors, worker qualities, iterations and
// convergence — and the final truths must equal one-shot batch
// inference, at 1 and 8 workers. The streams cover dims declared up
// front, dims that grow mid-stream (shuffled answers, no declared dims,
// one batch that only adds workers), and a store preloaded through
// NewStoreAt, which the service folds in whole at construction.
func TestIncrementalExactEquivalence(t *testing.T) {
	decision := simulate.GenerateScaled(simulate.DProduct, 7, 0.04)
	numeric := simulate.GenerateScaled(simulate.NEmotion, 7, 0.1)
	cases := []struct {
		method core.Method
		data   *dataset.Dataset
	}{
		{direct.NewMV(), decision},
		{direct.NewMean(), numeric},
		{direct.NewMedian(), numeric},
	}
	// ingestExact ingests each batch and checks the published result
	// against a batch run over the store's snapshot after every one.
	ingestExact := func(t *testing.T, svc *Service, opts core.Options, batches []Batch) {
		t.Helper()
		assertPublishedExact(t, svc, opts, "before the first batch")
		for i, b := range batches {
			if _, err := svc.Ingest(b); err != nil {
				t.Fatalf("%s ingest: %v", svc.method.Name(), err)
			}
			assertPublishedExact(t, svc, opts, fmt.Sprintf("after batch %d", i))
		}
	}
	for _, tc := range cases {
		for _, par := range []int{1, 8} {
			opts := core.Options{Seed: 11, Parallelism: par}
			want, err := tc.method.Infer(tc.data, opts)
			if err != nil {
				t.Fatalf("%s batch: %v", tc.method.Name(), err)
			}
			svc := newServiceOver(t, tc.data, tc.method, opts)
			ingestExact(t, svc, opts, splitBatches(tc.data, 5))
			got, _, err := svc.Truths()
			if err != nil {
				t.Fatalf("%s truths: %v", tc.method.Name(), err)
			}
			if len(got) != len(want.Truth) {
				t.Fatalf("%s: %d truths streamed vs %d batch", tc.method.Name(), len(got), len(want.Truth))
			}
			for i := range got {
				if got[i] != want.Truth[i] {
					t.Fatalf("%s par=%d: task %d streamed %v, batch %v (must be bit-identical)",
						tc.method.Name(), par, i, got[i], want.Truth[i])
				}
			}
		}

		opts := core.Options{Seed: 11}
		t.Run(tc.method.Name()+"/growing dims", func(t *testing.T) {
			answers := append([]dataset.Answer(nil), tc.data.Answers...)
			rand.New(rand.NewSource(5)).Shuffle(len(answers), func(i, j int) {
				answers[i], answers[j] = answers[j], answers[i]
			})
			var batches []Batch
			for _, part := range chunkAnswers(answers, 6) {
				batches = append(batches, Batch{Answers: part})
			}
			// Mid-stream, a batch that only adds workers no answer names.
			batches = slices.Insert(batches, 3, Batch{NumWorkers: tc.data.NumWorkers + 2})
			ingestExact(t, newServiceOver(t, tc.data, tc.method, opts), opts, batches)
		})
		t.Run(tc.method.Name()+"/preloaded", func(t *testing.T) {
			half := len(tc.data.Answers) / 2
			pre, err := dataset.New(tc.data.Name, tc.data.Type, tc.data.NumChoices,
				tc.data.NumTasks, tc.data.NumWorkers, tc.data.Answers[:half], nil)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := NewService(NewStoreAt(pre, 3), Config{Method: tc.method, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { svc.Close() })
			var batches []Batch
			for _, part := range chunkAnswers(tc.data.Answers[half:], 3) {
				batches = append(batches, Batch{Answers: part})
			}
			ingestExact(t, svc, opts, batches)
		})
	}
}

// chunkAnswers cuts answers into k contiguous, near-equal parts.
func chunkAnswers(answers []dataset.Answer, k int) [][]dataset.Answer {
	parts := make([][]dataset.Answer, k)
	for i := range parts {
		parts[i] = answers[i*len(answers)/k : (i+1)*len(answers)/k]
	}
	return parts
}

// assertPublishedExact fails unless the service's published result and
// version are exactly what the serving method's Infer makes of the
// store's current snapshot.
func assertPublishedExact(t *testing.T, svc *Service, opts core.Options, when string) {
	t.Helper()
	snap, version := svc.store.Snapshot()
	want, err := svc.method.Infer(snap, opts)
	if err != nil {
		t.Fatalf("%s batch run %s: %v", svc.method.Name(), when, err)
	}
	svc.mu.RLock()
	defer svc.mu.RUnlock()
	if svc.resVersion != version {
		t.Fatalf("%s %s: published version %d, store at %d", svc.method.Name(), when, svc.resVersion, version)
	}
	if !reflect.DeepEqual(svc.res, want) {
		t.Fatalf("%s %s: published result differs from Infer over the snapshot", svc.method.Name(), when)
	}
}

// TestWarmStartLabelEquivalence is the streaming equivalence gate for the
// warm-started iterative methods: streaming N batches with a refresh
// after each must serve (nearly) the same labels as a cold one-shot run
// on the final dataset, at 1 and 8 workers.
func TestWarmStartLabelEquivalence(t *testing.T) {
	decision := simulate.GenerateScaled(simulate.DProduct, 7, 0.04)
	single := simulate.GenerateScaled(simulate.SRel, 7, 0.04)
	numeric := simulate.GenerateScaled(simulate.NEmotion, 7, 0.1)
	cases := []struct {
		method core.Method
		data   *dataset.Dataset
		// minAgree is the minimum fraction of identical labels
		// (categorical); numeric methods instead bound the truth RMSE
		// between the warm and cold runs by maxRMSE. GLAD's gate is
		// looser because its gradient-ascent M-step does not converge
		// within the iteration cap even cold, so residual label churn is
		// cap noise rather than warm-start drift; PM's hard-label
		// coordinate descent admits several fixed points of equal
		// accuracy.
		minAgree float64
		maxRMSE  float64
	}{
		{ds.New(), decision, 0.98, 0},
		{glad.New(), decision, 0.93, 0},
		{zc.New(), decision, 0.98, 0},
		{lfc.New(), single, 0.98, 0},
		{pm.New(), single, 0.95, 0},
		{catd.New(), decision, 0.98, 0},
		{vi.NewMF(), decision, 0.98, 0},
		{vi.NewBP(), decision, 0.98, 0},
		// LFC_N resumes its full EM state (truths and learned worker
		// variances) and must still descend into the cold run's basin.
		// Before PR 6 this case was vacuous: the warm start discarded
		// variances, so the first truth step rebuilt exactly the cold
		// trajectory and the old 1e-9 gate compared a run with itself.
		// Now the bound is a real one — fixed-point agreement within
		// convergence tolerance on truths — and checkWorkerModel below
		// additionally requires the learned per-worker qualities to
		// match, which pins the basin, not just the labels.
		{lfc.NewNumeric(), numeric, 0, 1e-3},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 8} {
			opts := core.Options{Seed: 11, Parallelism: par}
			cold, err := tc.method.Infer(tc.data, opts)
			if err != nil {
				t.Fatalf("%s cold: %v", tc.method.Name(), err)
			}
			svc := newServiceOver(t, tc.data, tc.method, opts)
			for _, b := range splitBatches(tc.data, 4) {
				if _, err := svc.Ingest(b); err != nil {
					t.Fatalf("%s ingest: %v", tc.method.Name(), err)
				}
				if err := svc.Refresh(); err != nil {
					t.Fatalf("%s refresh: %v", tc.method.Name(), err)
				}
			}
			got, version, err := svc.Truths()
			if err != nil {
				t.Fatalf("%s truths: %v", tc.method.Name(), err)
			}
			if version != svc.Stats().StoreVersion {
				t.Fatalf("%s: served version %d is stale after explicit refresh", tc.method.Name(), version)
			}
			if len(got) != len(cold.Truth) {
				t.Fatalf("%s: %d truths streamed vs %d batch", tc.method.Name(), len(got), len(cold.Truth))
			}
			if tc.data.Categorical() {
				agree := 0
				for i := range got {
					if got[i] == cold.Truth[i] {
						agree++
					}
				}
				frac := float64(agree) / float64(len(got))
				if frac < tc.minAgree {
					t.Errorf("%s par=%d: warm-started labels agree with cold one-shot on %.4f < %.2f of tasks",
						tc.method.Name(), par, frac, tc.minAgree)
				}
			} else {
				var ss float64
				for i := range got {
					dv := got[i] - cold.Truth[i]
					ss += dv * dv
				}
				rmse := math.Sqrt(ss / float64(len(got)))
				if rmse > tc.maxRMSE {
					t.Errorf("%s par=%d: warm vs cold truth RMSE %.4f > %g", tc.method.Name(), par, rmse, tc.maxRMSE)
				}
				checkWorkerModel(t, svc, cold, tc.method.Name(), par)
			}
		}
	}
}

// checkWorkerModel requires the warm-started service's learned per-worker
// qualities to match the cold run's within 5% relative error. Label
// agreement alone cannot distinguish the cold basin from a degenerate one
// that happens to rank the same answers first; the worker model can.
func checkWorkerModel(t *testing.T, svc *Service, cold *core.Result, name string, par int) {
	t.Helper()
	for w := range cold.WorkerQuality {
		got, err := svc.WorkerQuality(w)
		if err != nil {
			t.Fatalf("%s par=%d: WorkerQuality(%d): %v", name, par, w, err)
		}
		want := cold.WorkerQuality[w]
		if math.Abs(got-want) > 0.05*math.Abs(want) {
			t.Errorf("%s par=%d: worker %d warm quality %.6g vs cold %.6g (>5%% apart — different basin)",
				name, par, w, got, want)
		}
	}
}

// TestWarmStartConvergesFaster checks the point of warm starts: the final
// epoch (a small delta on top of a converged posterior) takes no more
// iterations than the cold one-shot run on the same data.
func TestWarmStartConvergesFaster(t *testing.T) {
	data := simulate.GenerateScaled(simulate.DProduct, 7, 0.04)
	opts := core.Options{Seed: 11}
	for _, m := range []core.Method{ds.New(), zc.New()} {
		cold, err := m.Infer(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		svc := newServiceOver(t, data, m, opts)
		for _, b := range splitBatches(data, 4) {
			if _, err := svc.Ingest(b); err != nil {
				t.Fatal(err)
			}
			if err := svc.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		st := svc.Stats()
		if !st.Converged {
			t.Errorf("%s: warm-started final epoch did not converge", m.Name())
		}
		if st.Iterations > cold.Iterations {
			t.Errorf("%s: warm-started final epoch took %d iterations, cold one-shot %d",
				m.Name(), st.Iterations, cold.Iterations)
		}
	}
}

func TestServiceQueryBeforeFirstEpoch(t *testing.T) {
	store, err := NewStore("empty", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(store, Config{Method: ds.New(), Options: core.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Truth(0); !errors.Is(err, ErrNotInferred) {
		t.Errorf("Truth before refresh: %v, want ErrNotInferred", err)
	}
	if _, _, err := svc.Truths(); !errors.Is(err, ErrNotInferred) {
		t.Errorf("Truths before refresh: %v, want ErrNotInferred", err)
	}
	if _, err := svc.WorkerQuality(0); !errors.Is(err, ErrNotInferred) {
		t.Errorf("WorkerQuality before refresh: %v, want ErrNotInferred", err)
	}
}

func TestNewServiceRejectsTypeMismatch(t *testing.T) {
	// MV over a numeric store must fail at construction, not mid-ingest:
	// the incremental path never reaches core.CheckSupport.
	numeric, err := NewStore("n", dataset.Numeric, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(numeric, Config{Method: direct.NewMV(), Options: core.Options{Seed: 1}}); err == nil {
		t.Error("MV over a numeric store accepted")
	}
	if _, err := NewService(numeric, Config{Method: ds.New(), Options: core.Options{Seed: 1}}); err == nil {
		t.Error("D&S over a numeric store accepted")
	}
	decision, err := NewStore("d", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(decision, Config{Method: direct.NewMean(), Options: core.Options{Seed: 1}}); err == nil {
		t.Error("Mean over a decision store accepted")
	}
}

func TestStoreRejectsBadBatchAtomically(t *testing.T) {
	store, err := NewStore("guard", dataset.SingleChoice, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Ingest(Batch{Answers: []dataset.Answer{
		{Task: 0, Worker: 0, Value: 1},
		{Task: 1, Worker: 0, Value: 9}, // invalid label
	}}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if tasks, workers, answers := store.Dims(); tasks != 0 || workers != 0 || answers != 0 {
		t.Errorf("rejected batch mutated the store: %d/%d/%d", tasks, workers, answers)
	}
	if store.Version() != 0 {
		t.Errorf("rejected batch bumped the version to %d", store.Version())
	}
	if _, _, err := store.Ingest(Batch{Truth: map[int]float64{5: 0.5}}); err == nil {
		t.Fatal("fractional categorical truth accepted")
	}
}

// TestStoreRejectsAbsurdDims pins the id cap: ids are dense, so one
// absurd task or worker id would commit the incremental state, the
// snapshot index build — and, with a WAL attached, every future restart
// — to allocations proportional to it. Such batches must be rejected
// atomically, not accepted into the version history.
func TestStoreRejectsAbsurdDims(t *testing.T) {
	store, err := NewStore("cap", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Batch{
		{NumTasks: MaxDim + 1},
		{NumWorkers: MaxDim + 1},
		{Answers: []dataset.Answer{{Task: MaxDim, Worker: 0, Value: 1}}},
		{Answers: []dataset.Answer{{Task: 0, Worker: MaxDim, Value: 1}}},
		{Truth: map[int]float64{MaxDim: 1}},
	} {
		if _, _, err := store.Ingest(b); err == nil {
			t.Errorf("batch growing dims beyond MaxDim accepted: %+v", b)
		}
	}
	if v := store.Version(); v != 0 {
		t.Errorf("rejected batches bumped the version to %d", v)
	}
	if tasks, workers, answers := store.Dims(); tasks != 0 || workers != 0 || answers != 0 {
		t.Errorf("rejected batches grew the store: %d/%d/%d", tasks, workers, answers)
	}
	// The cap itself is admissible.
	if _, _, err := store.Ingest(Batch{NumTasks: MaxDim, NumWorkers: 8}); err != nil {
		t.Errorf("dims at the cap rejected: %v", err)
	}
}

// TestStoreRejectsOversizedBatch pins the per-batch cap that keeps
// every admissible batch within the WAL's per-record limit: a batch the
// store acknowledges must never be one that replay rejects as corrupt.
func TestStoreRejectsOversizedBatch(t *testing.T) {
	store, err := NewStore("batchcap", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The cap check is O(1) and runs before validation, so the huge
	// zero-valued slice is never even inspected.
	if _, _, err := store.Ingest(Batch{Answers: make([]dataset.Answer, MaxBatch+1)}); err == nil {
		t.Error("batch beyond the answer cap accepted")
	}
	if v := store.Version(); v != 0 {
		t.Errorf("rejected oversized batch bumped the version to %d", v)
	}
}

// TestSnapshotAllocationsConstant pins that Store.Snapshot allocates a
// fixed number of objects whatever the store's size: one truth map and
// the CSR's columns, with no per-task or per-worker index rows. Two task
// counts with the same truths stay under one bound. The race runtime
// changes allocator behaviour, so the test skips under -race.
func TestSnapshotAllocationsConstant(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxAllocs = 32
	for _, tasks := range []int{2000, 20000} {
		d := testutil.Categorical(testutil.CrowdSpec{NumTasks: tasks, NumWorkers: 100, NumChoices: 4, Redundancy: 5, Seed: 3})
		d.Truth = map[int]float64{0: 1, 7: 2, 1999: 0}
		store := NewStoreAt(d, 1)
		allocs := testing.AllocsPerRun(5, func() { store.Snapshot() })
		t.Logf("%d tasks: %.0f allocations per Snapshot", tasks, allocs)
		if allocs > maxAllocs {
			t.Errorf("%d tasks: Snapshot made %.0f allocations, want at most %d", tasks, allocs, maxAllocs)
		}
	}
}

// TestSnapshotSinceAllocationsConstant pins that an epoch's snapshot —
// the previous one extended by a 50-answer batch — allocates a fixed
// number of objects whatever the store's size: one truth map and the
// CSR's columns. Each measured extend is the real epoch path, taken on the last
// one's result. Two task counts stay under one bound. The race runtime
// changes allocator behaviour, so the test skips under -race.
func TestSnapshotSinceAllocationsConstant(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxAllocs = 32
	for _, tasks := range []int{2000, 20000} {
		d := testutil.Categorical(testutil.CrowdSpec{NumTasks: tasks, NumWorkers: 100, NumChoices: 4, Redundancy: 5, Seed: 3})
		d.Truth = map[int]float64{0: 1, 7: 2, 1999: 0}
		store := NewStoreAt(d, 1)
		snap, _ := store.Snapshot()
		rng := rand.New(rand.NewSource(3))
		var most uint64
		for run := 0; run < 5; run++ {
			if _, _, err := store.Ingest(Batch{Answers: randomAnswers(rng, 50, tasks, 100, 4)}); err != nil {
				t.Fatal(err)
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			snap, _ = store.snapshotSince(snap)
			runtime.ReadMemStats(&ms)
			most = max(most, ms.Mallocs-before)
		}
		t.Logf("%d tasks: at most %d allocations per 50-answer extend", tasks, most)
		if most > maxAllocs {
			t.Errorf("%d tasks: a 50-answer extend made %d allocations, want at most %d", tasks, most, maxAllocs)
		}
		if want, _ := store.Snapshot(); !reflect.DeepEqual(snap, want) {
			t.Errorf("%d tasks: the extended snapshot differs from a full one", tasks)
		}
	}
}

// TestSnapshotSharesTheLog pins that snapshots hold no copy of the
// answers: a full snapshot's and each epoch snapshot's Answers are the
// store's log prefix itself, with the same first element, and their
// capacity equals their length, so appending to a snapshot's answers can
// never write into the log.
func TestSnapshotSharesTheLog(t *testing.T) {
	store, err := NewStore("share", dataset.SingleChoice, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if _, _, err := store.Ingest(Batch{Answers: randomAnswers(rng, 100, 40, 9, 3)}); err != nil {
		t.Fatal(err)
	}
	snap, _ := store.Snapshot()
	for epoch := 0; epoch <= 10; epoch++ {
		if epoch > 0 {
			if _, _, err := store.Ingest(Batch{Answers: randomAnswers(rng, 50, 40, 9, 3)}); err != nil {
				t.Fatal(err)
			}
			snap, _ = store.snapshotSince(snap)
		}
		_, log := store.Pin()
		if len(snap.Answers) != len(log) || &snap.Answers[0] != &log[0] {
			t.Fatalf("epoch %d: the snapshot's %d answers are not the log prefix of %d", epoch, len(snap.Answers), len(log))
		}
		if cap(snap.Answers) != len(snap.Answers) {
			t.Fatalf("epoch %d: the snapshot's answers have capacity %d past their length %d", epoch, cap(snap.Answers), len(snap.Answers))
		}
	}
}

// nopDurability is the group-commit and status half of Persister as
// no-ops, for test fakes that exercise only Record and Sync.
type nopDurability struct{}

func (nopDurability) SyncTo(uint64) error        { return nil }
func (nopDurability) DurableVersion() uint64     { return 0 }
func (nopDurability) PersistStats() PersistStats { return PersistStats{} }

// flakyPersister fails Record or Sync on demand, simulating a full or
// failing disk under the write-ahead log.
type flakyPersister struct {
	nopDurability
	fail     bool
	records  int
	syncFail bool
	syncs    int
}

func (f *flakyPersister) Record(uint64, Batch) error {
	if f.fail {
		return errors.New("disk full")
	}
	f.records++
	return nil
}

func (f *flakyPersister) Sync() error {
	if f.syncFail {
		return errors.New("fsync failed")
	}
	f.syncs++
	return nil
}

// TestIngestHaltsAfterPersistFailure pins the fail-stop contract: after
// one batch is applied in memory but not logged, recording any later
// batch would leave a version gap recovery reads as corruption — so the
// service must reject all further ingestion, not keep streaming.
func TestIngestHaltsAfterPersistFailure(t *testing.T) {
	store, err := NewStore("halt", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyPersister{}
	svc, err := NewService(store, Config{Method: direct.NewMV(), Options: core.Options{Seed: 1}, Persist: p})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ok := Batch{Answers: []dataset.Answer{{Task: 0, Worker: 0, Value: 1}}}
	if _, err := svc.Ingest(ok); err != nil {
		t.Fatal(err)
	}
	p.fail = true
	if _, err := svc.Ingest(ok); err == nil {
		t.Fatal("ingest with failing WAL succeeded")
	}
	p.fail = false
	if _, err := svc.Ingest(ok); err == nil {
		t.Fatal("ingestion continued after a WAL gap formed")
	}
	if p.records != 1 {
		t.Fatalf("%d batches recorded after the gap, want the 1 pre-failure record", p.records)
	}
}

// TestRefreshRetriesFailedEpochFlush pins the durability-boundary
// contract: when the epoch-boundary fsync fails after the result was
// published, the result is fresh — but Refresh must keep failing (and
// retrying the flush) until a Sync succeeds, never report success while
// acknowledged data might not be on disk.
func TestRefreshRetriesFailedEpochFlush(t *testing.T) {
	store, err := NewStore("flush", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyPersister{}
	svc, err := NewService(store, Config{Method: zc.New(), Options: core.Options{Seed: 1}, Persist: p})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Ingest(Batch{Answers: []dataset.Answer{
		{Task: 0, Worker: 0, Value: 1}, {Task: 0, Worker: 1, Value: 1}, {Task: 1, Worker: 0, Value: 0},
	}}); err != nil {
		t.Fatal(err)
	}

	p.syncFail = true
	if err := svc.Refresh(); err == nil {
		t.Fatal("Refresh with a failing fsync reported success")
	}
	if !svc.Stats().Fresh {
		t.Fatal("epoch result was not published despite the flush failure")
	}
	// Still failing: the store is fresh, but the flush is outstanding.
	if err := svc.Refresh(); err == nil {
		t.Fatal("fresh Refresh dropped the outstanding flush failure")
	}
	p.syncFail = false
	if err := svc.Refresh(); err != nil {
		t.Fatalf("Refresh after the disk healed: %v", err)
	}
	if p.syncs == 0 {
		t.Fatal("healed Refresh never retried the fsync")
	}
	if err := svc.Refresh(); err != nil {
		t.Fatalf("steady-state fresh Refresh: %v", err)
	}
}

// TestConcurrentReadersDuringIngest hammers the service with parallel
// readers while batches stream in and epochs run (ZC) or fold into the
// published result in place (MV) — the race detector in CI turns any
// unsynchronized access into a failure.
func TestConcurrentReadersDuringIngest(t *testing.T) {
	data := simulate.GenerateScaled(simulate.DProduct, 7, 0.02)
	for _, m := range []core.Method{zc.New(), direct.NewMV()} {
		svc := newServiceOver(t, data, m, core.Options{Seed: 3, Parallelism: 4})
		batches := splitBatches(data, 8)
		if _, err := svc.Ingest(batches[0]); err != nil {
			t.Fatal(err)
		}
		if err := svc.Refresh(); err != nil {
			t.Fatal(err)
		}

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
					if _, _, err := svc.Truths(); err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					if _, err := svc.Truth(0); err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					if _, _, err := svc.Posteriors(nil, 0, nil); err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					if _, _, _, err := svc.WorkerQualities(); err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					_ = svc.Stats()
				}
			}()
		}
		for _, b := range batches[1:] {
			if _, err := svc.Ingest(b); err != nil {
				t.Fatal(err)
			}
			if err := svc.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
	}
}

// TestAutoRefreshEventuallyFresh checks the coalesced background path:
// after the stream quiesces, the published result catches up with the
// store version without explicit refreshes.
func TestAutoRefreshEventuallyFresh(t *testing.T) {
	data := simulate.GenerateScaled(simulate.DProduct, 7, 0.02)
	store, err := NewStore(data.Name, data.Type, data.NumChoices)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(store, Config{Method: zc.New(), Options: core.Options{Seed: 3}, AutoRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, b := range splitBatches(data, 3) {
		if _, err := svc.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	// The last background epoch may still be in flight; a final
	// synchronous Refresh joins it and is a no-op if already fresh.
	if err := svc.Refresh(); err != nil {
		t.Fatal(err)
	}
	for !svc.Stats().Fresh {
		if err := svc.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
}
