package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"truthinference/internal/api"
	"truthinference/internal/dataset"
	"truthinference/internal/stream"
	"truthinference/internal/tenant"
)

// The ingest workload: the durable bulk-write path. Two closed-loop
// clients post binary batches of 4 frames × 500 answers over a 20k-task
// board to a durable MV tenant, whose incremental fold runs no epochs.
// The window is cut into segments of about two seconds, each on a freshly
// booted tenant, so the store stays bounded and every run ingests the
// same growth pattern; each segment's boot is one set-up sample.
const (
	ingestTasks    = 20000
	ingestWorkers  = 500
	ingestFrames   = 4
	ingestPerFrame = 500
	ingestClients  = 2
	ingestSegment  = 2 * time.Second
	ingestBodies   = 32 // distinct request bodies per client, cycled
)

func runIngest(o opts, tr *Tracer) (*run, error) {
	bodies := make([][][]byte, ingestClients)
	for c := range bodies {
		rng := rand.New(rand.NewSource(o.seed*1000 + int64(c)))
		for i := 0; i < ingestBodies; i++ {
			body, err := stream.EncodeBatchStream(randomBatches(rng, ingestFrames, ingestPerFrame, ingestTasks, ingestWorkers, 2))
			if err != nil {
				return nil, err
			}
			bodies[c] = append(bodies[c], body)
		}
	}
	segments := max(1, int(math.Round(o.window.Seconds()/ingestSegment.Seconds())))
	r := newRun()
	var walBytes, stored, marks, acks float64
	for s := 0; s < segments; s++ {
		root := filepath.Join(o.work, fmt.Sprintf("ingest-%d", s))
		start := time.Now()
		p, err := openProject(root, tenant.Config{Method: "MV", Seed: o.seed}, tr)
		if err != nil {
			return nil, err
		}
		board := fmt.Sprintf(`{"num_tasks":%d,"num_workers":%d}`, ingestTasks, ingestWorkers)
		if err := call(p.hc, "POST", p.base+"/ingest", "application/json", []byte(board), nil); err != nil {
			p.close()
			return nil, fmt.Errorf("ingest set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())

		var mu sync.Mutex
		acked := 0
		var last uint64
		tr.resume()
		elapsed := closedLoop(ingestClients, o.window/time.Duration(segments), func(c, i int) {
			var resp api.BatchIngestResponse
			t := time.Now()
			err := call(p.hc, "POST", p.base+"/ingest-batch", "application/octet-stream", bodies[c][i%ingestBodies], &resp)
			took := msSince(t)
			if err == nil && (!resp.Durable || resp.DurableVersion < resp.Version) {
				err = fmt.Errorf("ack of version %d is not durable (durable_version %d)", resp.Version, resp.DurableVersion)
			}
			mu.Lock()
			defer mu.Unlock()
			if r.op(err, "POST ingest-batch") {
				r.lat = append(r.lat, took)
				acked += resp.Ingested
				last = max(last, resp.Version)
			}
		})
		tr.pause()

		st := p.svc.Stats()
		r.check(st.Answers == acked, "segment %d: store holds %d answers, %d were acked", s, st.Answers, acked)
		r.check(st.WAL != nil && st.WAL.DurableVersion >= last, "segment %d: durable watermark below the last acked version %d", s, last)
		r.work += float64(acked)
		r.elapsed += elapsed
		r.rates = append(r.rates, float64(acked)/elapsed)
		if p.hand != nil {
			walBytes += float64(dirBytes(p.dir))
			stored += float64(st.Answers)
			p.hand.mu.Lock()
			marks += float64(len(p.hand.watermarks))
			acks += float64(p.hand.acks)
			p.hand.mu.Unlock()
		}
		if err := p.close(); err != nil {
			return nil, err
		}
		os.RemoveAll(root)
	}
	r.rows = append([]row{{name: "answers_per_s", unit: "1/s", s: summarize(r.rates, 0)}},
		latencyRows("durable_ack", r.lat, true)...)
	if tr != nil {
		r.layerVals["wal.bytes_per_answer"] = walBytes / math.Max(stored, 1)
		r.layerVals["wal.fsyncs_per_ack"] = marks / math.Max(acks, 1)
	}
	return r, nil
}

// randomBatches draws frames × perFrame answers uniformly over the board,
// with labels in [0, choices).
func randomBatches(rng *rand.Rand, frames, perFrame, tasks, workers, choices int) []stream.Batch {
	out := make([]stream.Batch, frames)
	for f := range out {
		out[f].Answers = make([]dataset.Answer, perFrame)
		for i := range out[f].Answers {
			out[f].Answers[i] = dataset.Answer{Task: rng.Intn(tasks), Worker: rng.Intn(workers), Value: float64(rng.Intn(choices))}
		}
	}
	return out
}

// closedLoop runs clients goroutines for d, each calling op with its
// client index and its count of earlier calls, and returns the seconds
// until the last one finished.
func closedLoop(clients int, d time.Duration, op func(c, i int)) float64 {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

func msSince(t time.Time) float64 { return ms(time.Since(t)) }
