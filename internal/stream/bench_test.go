package stream

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/methods/direct"
	"truthinference/internal/methods/ds"
	"truthinference/internal/methods/zc"
	"truthinference/internal/simulate"
	"truthinference/internal/telemetry"
)

// benchEpoch measures one re-inference epoch after a 20% answer delta:
// cold from scratch versus warm-started from the previous posterior —
// the steady-state cost profile of the serving daemon.
func benchEpoch(b *testing.B, m core.Method) {
	full := simulate.GenerateScaled(simulate.DProduct, 7, 0.15)
	prefix, err := dataset.New(full.Name, full.Type, full.NumChoices,
		full.NumTasks, full.NumWorkers,
		full.Answers[:len(full.Answers)*4/5], full.Truth)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Seed: 11}
	prev, err := m.Infer(prefix, opts)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Infer(full, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		warm := opts
		warm.WarmStart = prev.Warm()
		for i := 0; i < b.N; i++ {
			if _, err := m.Infer(full, warm); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkStreamEpochDS(b *testing.B) { benchEpoch(b, ds.New()) }
func BenchmarkStreamEpochZC(b *testing.B) { benchEpoch(b, zc.New()) }

// BenchmarkSnapshot measures Store.Snapshot, the full copy and index
// that WAL compaction takes, on S_Rel at scale 1.0 (98,453 answers).
func BenchmarkSnapshot(b *testing.B) {
	store := NewStoreAt(simulate.Generate(simulate.SRel, 1), 1, DefaultShards)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Snapshot()
	}
}

// BenchmarkSnapshotSince measures an epoch's snapshot on the same store:
// extending the previous epoch's snapshot by one 50-answer batch, the
// refresh workload's delta. Ingest is outside the timer.
func BenchmarkSnapshotSince(b *testing.B) {
	d := simulate.Generate(simulate.SRel, 1)
	store := NewStoreAt(d, 1, DefaultShards)
	prev, _ := store.Snapshot()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, _, err := store.Ingest(Batch{Answers: randomAnswers(rng, 50, d.NumTasks, d.NumWorkers, d.NumChoices)}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		prev, _ = store.snapshotSince(prev)
	}
}

// randomAnswers draws n uniformly random answers over the given ranges.
func randomAnswers(rng *rand.Rand, n, tasks, workers, choices int) []dataset.Answer {
	out := make([]dataset.Answer, n)
	for i := range out {
		out[i] = dataset.Answer{Task: rng.Intn(tasks), Worker: rng.Intn(workers), Value: float64(rng.Intn(choices))}
	}
	return out
}

// BenchmarkIncrementalIngest measures the O(delta) path: folding one
// 100-answer batch into a live MV service.
func BenchmarkIncrementalIngest(b *testing.B) {
	full := simulate.GenerateScaled(simulate.DProduct, 7, 0.15)
	const batch = 100
	store, err := NewStore(full.Name, full.Type, full.NumChoices)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := NewService(store, Config{Method: direct.NewMV(), Options: core.Options{Seed: 11}})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Ingest(Batch{NumTasks: full.NumTasks, NumWorkers: full.NumWorkers}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * batch) % (len(full.Answers) - batch)
		if _, err := svc.Ingest(Batch{Answers: full.Answers[lo : lo+batch]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedIngest measures concurrent ingest throughput at
// increasing shard counts — shards=1 is the single-lock baseline the
// pre-sharding store was equivalent to. Four writers each own a
// disjoint chunk-aligned task range (disjoint shard sets at ≥4 shards),
// and one op is the four of them pushing a fixed batch schedule into a
// fresh store, so the number reads as wall-clock per fixed workload:
// lower at higher shard counts = the per-shard locking is paying off.
func BenchmarkShardedIngest(b *testing.B) {
	const (
		writers         = 4
		batchesPerWrite = 32
		perBatch        = 64
		numWorkers      = 64
	)
	// Pre-build every writer's batch schedule once: writer w answers
	// tasks [w*ShardChunk, (w+1)*ShardChunk).
	schedules := make([][]Batch, writers)
	for w := range schedules {
		base := w * ShardChunk
		for n := 0; n < batchesPerWrite; n++ {
			batch := Batch{Answers: make([]dataset.Answer, perBatch)}
			for i := range batch.Answers {
				batch.Answers[i] = dataset.Answer{
					Task:   base + (n*perBatch+i)%ShardChunk,
					Worker: (w*13 + n + i) % numWorkers,
					Value:  float64((n + i) % 4),
				}
			}
			schedules[w] = append(schedules[w], batch)
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, err := NewStoreN("bench", dataset.SingleChoice, 4, shards)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := store.Ingest(Batch{NumTasks: writers * ShardChunk, NumWorkers: numWorkers}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()

				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for _, batch := range schedules[w] {
							if _, _, err := store.Ingest(batch); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkBatchedIngest measures what the telemetry plane costs on
// batched binary ingest. Two live MV services take the same requests,
// each 4 frames of 500 answers: a bare one, and one wired as truthserve
// wires a tenant, with the stream metrics and the request middleware
// and its HTTP histograms. One op is a round on each side: four
// goroutines send one request each at once, so they contend on the
// service and on the shared telemetry counters and histogram buckets as
// concurrent clients of truthserve do, and the round lasts until the
// last response. The side that goes first alternates every round and
// every rebuild. Both services are rebuilt every 32 rounds and warmed
// with one untimed round each, so their stores and the heap stay small
// and alike however long it runs. It reports each side's mean round
// time and, as instrumented/bare, the median over ops of the
// instrumented round's time over the bare round's beside it, which CI
// bounds at 1.03. Pairing adjacent rounds cancels the host's drift, and
// the median ignores the rounds a collection lands in. It is a
// benchmark, not a test, because a 3% bound inside a loaded test run is
// noise.
func BenchmarkBatchedIngest(b *testing.B) {
	const (
		frames     = 4
		batchSize  = 500
		numTasks   = 2000
		numWorkers = 200
		rotation   = 64
		senders    = 4
		fresh      = 32
	)
	// Encode a rotation of request bodies up front, so only the server
	// side is timed.
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, rotation)
	for i := range bodies {
		batches := make([]Batch, frames)
		for f := range batches {
			batches[f] = Batch{NumTasks: numTasks, NumWorkers: numWorkers, Answers: make([]dataset.Answer, batchSize)}
			for j := range batches[f].Answers {
				batches[f].Answers[j] = dataset.Answer{
					Task:   rng.Intn(numTasks),
					Worker: rng.Intn(numWorkers),
					Value:  float64(rng.Intn(2)),
				}
			}
		}
		body, err := EncodeBatchStream(batches)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}

	// round sends one request per sender to a handler at once and returns
	// when the last is answered.
	round := func(h http.Handler, r int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < senders; g++ {
			req := httptest.NewRequest("POST", "/v1/ingest-batch", bytes.NewReader(bodies[(r*senders+g)%rotation]))
			req.Header.Set("Content-Type", "application/octet-stream")
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Errorf("ingest-batch → %d: %s", rec.Code, rec.Body.String())
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}

	// The registry and the HTTP instruments outlive the services, as they
	// outlive every tenant in truthserve. Side 0 is bare, side 1
	// instrumented.
	reg := telemetry.NewRegistry()
	httpMetrics := telemetry.NewHTTPMetrics(reg, "truthserve")
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	var (
		svcs     [2]*Service
		handlers [2]http.Handler
	)
	rebuild := func(r int) {
		for side := range svcs {
			if svcs[side] != nil {
				svcs[side].Close()
			}
			store, err := NewStore("bench", dataset.Decision, 2)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Method: direct.NewMV(), Options: core.Options{Seed: 1}}
			if side == 1 {
				cfg.Metrics = NewMetrics(reg, "bench", "MV")
			}
			if svcs[side], err = NewService(store, cfg); err != nil {
				b.Fatal(err)
			}
			handlers[side] = svcs[side].Handler()
			if side == 1 {
				handlers[side] = telemetry.Middleware(handlers[side], httpMetrics, logger, 0,
					func(*http.Request) (string, string) { return "/v1/ingest-batch", "bench" })
			}
			round(handlers[side], r)
		}
		// Collect the old stores now rather than inside a timed round.
		runtime.GC()
	}
	defer func() {
		for _, svc := range svcs {
			svc.Close()
		}
	}()

	var spent [2]time.Duration
	ratios := make([]float64, b.N)
	b.ResetTimer()
	for r := 0; r < b.N; r++ {
		if r%fresh == 0 {
			rebuild(r)
		}
		var took [2]time.Duration
		first := (r + r/fresh) % 2
		for k := 0; k < 2; k++ {
			side := (first + k) % 2
			took[side] = round(handlers[side], r)
			spent[side] += took[side]
		}
		ratios[r] = float64(took[1]) / float64(took[0])
	}
	slices.Sort(ratios)
	b.ReportMetric(float64(spent[0])/float64(b.N), "bare-ns/round")
	b.ReportMetric(float64(spent[1])/float64(b.N), "instrumented-ns/round")
	b.ReportMetric(ratios[b.N/2], "instrumented/bare")
}
