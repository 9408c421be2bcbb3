package stream

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"truthinference/internal/dataset"
)

// TestShardedStoreConcurrentStress hammers one sharded store with
// concurrent Ingest / Snapshot / AnswersSince / Version / Pin traffic for
// about a second (shorter under -short) and asserts the consistency
// contract the serving layer depends on:
//
//   - every snapshot is internally consistent: it builds through
//     dataset.New (which validates every answer against the snapshot
//     dims) and its answer count equals the dataset's own bookkeeping;
//   - versions never regress, and a later snapshot never has fewer
//     answers than an earlier one;
//   - after the writers quiesce, the version equals the number of
//     successful ingests and the answer count the number of ingested
//     answers.
//
// The CI race job runs this under -race, turning any unsynchronized
// shard access into a hard failure.
func TestShardedStoreConcurrentStress(t *testing.T) {
	duration := time.Second
	if testing.Short() {
		duration = 200 * time.Millisecond
	}
	const writers = 4
	store, err := NewStoreN("stress", dataset.SingleChoice, 4, writers*2)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ingests, ingestedAnswers atomic.Int64

	// Writers: each owns a disjoint chunk-aligned task range, so their
	// shard sets are disjoint and ingests genuinely run in parallel.
	// Every few batches a writer also grows its range (answer-less
	// declaration batches take the dims-only commit path) and records a
	// truth.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * ShardChunk
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				b := Batch{}
				switch n % 8 {
				case 6: // declaration batch: dims only
					b.NumTasks = base + ShardChunk
					b.NumWorkers = 32
				case 7: // truth batch
					b.Truth = map[int]float64{base + n%ShardChunk: float64(n % 4)}
				default:
					for i := 0; i < 16; i++ {
						b.Answers = append(b.Answers, dataset.Answer{
							Task:   base + (n*16+i)%ShardChunk,
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

	// Snapshot readers: consistency + monotonicity.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			var lastAnswers int
			for {
				select {
				case <-stop:
					return
				default:
				}
				d, v := store.Snapshot() // panics internally if torn
				if v < lastVersion {
					t.Errorf("snapshot version regressed: %d after %d", v, lastVersion)
					return
				}
				if len(d.Answers) < lastAnswers {
					t.Errorf("snapshot answers regressed: %d after %d", len(d.Answers), lastAnswers)
					return
				}
				lastVersion, lastAnswers = v, len(d.Answers)
			}
		}()
	}

	// A snapshot-then-delta reader and a metadata reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d, _ := store.Snapshot()
			if next := store.AnswersSince(len(d.Answers), func(int, int, float64) {}); next < len(d.Answers) {
				t.Errorf("AnswersSince stopped at %d, before the snapshot's %d answers", next, len(d.Answers))
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastVersion uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := store.Version(); v < lastVersion {
				t.Errorf("Version() regressed: %d after %d", v, lastVersion)
				return
			} else {
				lastVersion = v
			}
			store.Dims()
			store.Pin()
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
}
