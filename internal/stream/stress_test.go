package stream

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"truthinference/internal/dataset"
)

// TestStoreConcurrentStress hammers one store with concurrent writers
// and every kind of reader for about a second (shorter under -short) and
// asserts the log contract the serving layer depends on:
//
//   - a pinned prefix never changes, even after later ingests have
//     reallocated the log, and every prefix is a prefix of the final log;
//   - every snapshot builds through dataset.New (which validates every
//     answer against the snapshot dims), its answers are a prefix of the
//     log, and versions and answer counts never regress;
//   - a chain of snapshotSince extensions equals, field for field, the
//     full snapshot dataset.New builds over the same answers;
//   - an AnswersSince follower visits every answer exactly once;
//   - Version, Dims, Pin and ForEachGolden never see the store shrink;
//   - after the writers quiesce, the version equals the number of
//     successful ingests and the answer count the number of ingested
//     answers.
//
// The CI race job runs this under -race, turning any unsynchronized
// access to the log into a hard failure.
func TestStoreConcurrentStress(t *testing.T) {
	duration := time.Second
	if testing.Short() {
		duration = 200 * time.Millisecond
	}
	store, err := NewStore("stress", dataset.SingleChoice, 4)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	var ingests, ingestedAnswers atomic.Int64

	// Writers: each answers tasks spread over several 64-task chunks.
	// Every few batches a writer also grows the ranges (an answer-less
	// declaration batch) or records a truth.
	const writers = 2
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; !stopped(); n++ {
				b := Batch{}
				switch n % 8 {
				case 6: // declaration batch: dims only
					b.NumTasks = 300 + n%200
					b.NumWorkers = 32
				case 7: // truth batch
					b.Truth = map[int]float64{(w*131 + n) % 300: float64(n % 4)}
				default:
					for i := 0; i < 16; i++ {
						b.Answers = append(b.Answers, dataset.Answer{
							Task:   (w*97 + n*16 + i) * 37 % 300,
							Worker: (w*7 + i) % 32,
							Value:  float64((n + i) % 4),
						})
					}
				}
				if _, _, err := store.Ingest(b); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				ingests.Add(1)
				ingestedAnswers.Add(int64(len(b.Answers)))
			}
		}(w)
	}

	// Pinned-prefix readers: each keeps its pins with a private copy, and
	// rechecks every kept pin once the log has moved to a new array.
	var pinned sync.Mutex
	var kept [][]dataset.Answer // copies of every checked pin, for the final prefix check
	var afterRealloc atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type pin struct{ view, copy []dataset.Answer }
			var pins []pin
			for !stopped() {
				_, view := store.Pin()
				if len(view) == 0 {
					continue
				}
				for _, p := range pins {
					if !slices.Equal(p.view, p.copy) {
						t.Errorf("a pinned prefix of %d answers changed", len(p.view))
						return
					}
					if &p.view[0] != &view[0] {
						afterRealloc.Add(1)
					}
				}
				if len(pins) < 16 {
					pins = append(pins, pin{view, slices.Clone(view)})
				} else {
					pins[len(view)%len(pins)] = pin{view, slices.Clone(view)}
				}
			}
			pinned.Lock()
			for _, p := range pins {
				kept = append(kept, p.copy)
			}
			pinned.Unlock()
		}()
	}

	// Snapshot reader: consistency and monotonicity.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastVersion uint64
		var lastAnswers int
		for !stopped() {
			d, v := store.Snapshot() // panics internally if torn
			if v < lastVersion || len(d.Answers) < lastAnswers {
				t.Errorf("snapshot regressed: version %d, %d answers after version %d, %d answers",
					v, len(d.Answers), lastVersion, lastAnswers)
				return
			}
			if _, log := store.Pin(); !slices.Equal(d.Answers, log[:len(d.Answers)]) {
				t.Errorf("a snapshot's %d answers are not a prefix of the log", len(d.Answers))
				return
			}
			lastVersion, lastAnswers = v, len(d.Answers)
		}
	}()

	// snapshotSince chain: every extension equals the full snapshot of
	// the same answers, dims and truths.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var chain *dataset.Dataset
		for !stopped() {
			chain, _ = store.snapshotSince(chain)
			full, err := dataset.New(chain.Name, chain.Type, chain.NumChoices,
				chain.NumTasks, chain.NumWorkers, chain.Answers, chain.Truth)
			if err != nil {
				t.Errorf("full snapshot of the chain's answers: %v", err)
				return
			}
			if !reflect.DeepEqual(chain, full) {
				t.Errorf("a snapshotSince chain at %d answers differs from a full snapshot", len(chain.Answers))
				return
			}
		}
	}()

	// AnswersSince follower: counts every answer once, per task.
	followed := make([]int, 500)
	follow := func(task, _ int, _ float64) { followed[task]++ }
	var followedTo int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			followedTo = store.AnswersSince(followedTo, follow)
		}
	}()

	// Metadata reader: Version, Dims, Pin and ForEachGolden never shrink.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastVersion uint64
		var lastTasks, lastAnswers, lastGolden int
		for !stopped() {
			v := store.Version()
			tasks, _, answers := store.Dims()
			_, log := store.Pin()
			golden := 0
			store.ForEachGolden(func(int, float64) { golden++ })
			if v < lastVersion || tasks < lastTasks || answers < lastAnswers || len(log) < answers || golden < lastGolden {
				t.Errorf("store shrank: version %d, %d tasks, %d answers, pin of %d, %d truths after %d, %d, %d, %d truths",
					v, tasks, answers, len(log), golden, lastVersion, lastTasks, lastAnswers, lastGolden)
				return
			}
			lastVersion, lastTasks, lastAnswers, lastGolden = v, tasks, answers, golden
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	d, version := store.Snapshot()
	if version != uint64(ingests.Load()) {
		t.Errorf("final version %d, want %d (one per successful ingest)", version, ingests.Load())
	}
	if int64(len(d.Answers)) != ingestedAnswers.Load() {
		t.Errorf("final store holds %d answers, ingests appended %d", len(d.Answers), ingestedAnswers.Load())
	}
	tasks, workers, answers := store.Dims()
	if answers != len(d.Answers) || tasks != d.NumTasks || workers != d.NumWorkers {
		t.Errorf("quiescent Dims (%d/%d/%d) disagree with snapshot (%d/%d/%d)",
			tasks, workers, answers, d.NumTasks, d.NumWorkers, len(d.Answers))
	}
	for _, p := range kept {
		if !slices.Equal(p, d.Answers[:len(p)]) {
			t.Errorf("a pin of %d answers is not a prefix of the final log", len(p))
		}
	}
	if afterRealloc.Load() == 0 {
		t.Error("no pinned prefix was rechecked after the log moved to a new array")
	}
	// The follower stopped somewhere; one more call brings it to the end.
	if next := store.AnswersSince(followedTo, follow); next != len(d.Answers) {
		t.Errorf("the follower ended at %d, want %d", next, len(d.Answers))
	}
	for task := range d.NumTasks {
		if want := len(d.TaskAnswers(task)); followed[task] != want {
			t.Errorf("task %d: the follower counted %d answers, snapshot degree %d", task, followed[task], want)
		}
	}
	t.Logf("%d ingests, %d answers, %d pin rechecks after a reallocation", ingests.Load(), len(d.Answers), afterRealloc.Load())
}
