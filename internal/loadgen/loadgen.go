// Package loadgen drives mixed single/batched ingest traffic against a
// live truthserve and measures what the server actually sustained:
// answers/sec accepted, requests shed with 429, and whether every shed
// response honored the Retry-After contract. cmd/loadgen wraps it as a
// binary, which CI's loadgen smoke uses to gate the batched ingest
// floor, batched-over-single throughput and backpressure.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"truthinference/internal/api"
	"truthinference/internal/dataset"
	"truthinference/internal/stream"
	"truthinference/internal/telemetry"
)

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Project addresses /v1/projects/{Project}/... on a truthserve
	// daemon; empty drives the bare /v1/... routes of a single
	// stream.Service handler (how this package's tests mount one).
	Project string
	// Workers is the number of concurrent client goroutines.
	Workers int
	// Duration bounds the run (ctx can end it earlier).
	Duration time.Duration
	// SingleRatio is the fraction of requests sent as single-answer
	// JSON POSTs (0 = all batched, 1 = all single).
	SingleRatio float64
	// BatchSize is answers per frame on the batched path.
	BatchSize int
	// FramesPerRequest is frames per batched request body.
	FramesPerRequest int
	// NumTasks/NumWorkers bound the generated id space.
	NumTasks, NumWorkers int
	// Seed fixes the generated traffic.
	Seed int64
	// HonorRetryAfter makes a worker sleep out the server's Retry-After
	// after a 429 (a compliant client); false keeps hammering, which is
	// what an overload probe wants.
	HonorRetryAfter bool
	// Client overrides the HTTP client (tests inject the httptest
	// server's). nil uses a dedicated pooled client.
	Client *http.Client
}

// Result is what the run measured.
type Result struct {
	Elapsed           time.Duration `json:"elapsed"`
	Requests          int64         `json:"requests"`
	SingleRequests    int64         `json:"single_requests"`
	BatchRequests     int64         `json:"batch_requests"`
	AnswersAccepted   int64         `json:"answers_accepted"`
	AnswersShed       int64         `json:"answers_shed"`
	Shed              int64         `json:"shed_429"`
	RetryAfterMissing int64         `json:"retry_after_missing"`
	Errors            int64         `json:"errors"`
	FirstError        string        `json:"first_error,omitempty"`
	AnswersPerSec     float64       `json:"answers_per_sec"`
	LastVersion       uint64        `json:"last_version"`
	LastDurable       uint64        `json:"last_durable_version"`
	// SingleLatency/BatchLatency summarize per-endpoint request latency
	// (nil when that endpoint saw no completed requests).
	SingleLatency *LatencyStats `json:"single_latency,omitempty"`
	BatchLatency  *LatencyStats `json:"batch_latency,omitempty"`
}

// LatencyStats is one endpoint's latency summary, interpolated from a
// fixed-bucket histogram (the same buckets the server's telemetry uses).
type LatencyStats struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

func latencyStats(h *telemetry.Histogram) *LatencyStats {
	if h.Count() == 0 {
		return nil
	}
	return &LatencyStats{
		Count: h.Count(),
		P50Ms: h.Quantile(0.50) * 1000,
		P95Ms: h.Quantile(0.95) * 1000,
		P99Ms: h.Quantile(0.99) * 1000,
	}
}

// counters is the shared accumulator behind Result.
type counters struct {
	requests, single, batch     atomic.Int64
	accepted, shedAnswers, shed atomic.Int64
	retryAfterMissing, errs     atomic.Int64
	lastVersion, lastDurable    atomic.Uint64
	firstErr                    atomic.Value // string
	singleLat, batchLat         *telemetry.Histogram
}

func (c *counters) error(err error) {
	c.errs.Add(1)
	c.firstErr.CompareAndSwap(nil, err.Error())
}

func maxU64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Run drives the configured traffic until Duration elapses or ctx ends,
// whichever is first. It returns an error only for configuration
// problems; transport and HTTP failures are counted in the Result.
func (cfg Config) Run(ctx context.Context) (Result, error) {
	if cfg.BaseURL == "" {
		return Result{}, fmt.Errorf("loadgen: BaseURL is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 500
	}
	if cfg.FramesPerRequest <= 0 {
		cfg.FramesPerRequest = 4
	}
	if cfg.NumTasks <= 0 {
		cfg.NumTasks = 2000
	}
	if cfg.NumWorkers <= 0 {
		cfg.NumWorkers = 200
	}
	if cfg.SingleRatio < 0 || cfg.SingleRatio > 1 {
		return Result{}, fmt.Errorf("loadgen: SingleRatio %v outside [0,1]", cfg.SingleRatio)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: cfg.Workers,
			},
		}
	}
	prefix := cfg.BaseURL + "/v1"
	if cfg.Project != "" {
		prefix = cfg.BaseURL + "/v1/projects/" + cfg.Project
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	c := counters{
		singleLat: telemetry.NewHistogram(telemetry.LatencyBuckets),
		batchLat:  telemetry.NewHistogram(telemetry.LatencyBuckets),
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			for runCtx.Err() == nil {
				if rng.Float64() < cfg.SingleRatio {
					cfg.doSingle(runCtx, client, prefix, rng, &c)
				} else {
					cfg.doBatch(runCtx, client, prefix, rng, &c)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{
		Elapsed:           elapsed,
		Requests:          c.requests.Load(),
		SingleRequests:    c.single.Load(),
		BatchRequests:     c.batch.Load(),
		AnswersAccepted:   c.accepted.Load(),
		AnswersShed:       c.shedAnswers.Load(),
		Shed:              c.shed.Load(),
		RetryAfterMissing: c.retryAfterMissing.Load(),
		Errors:            c.errs.Load(),
		LastVersion:       c.lastVersion.Load(),
		LastDurable:       c.lastDurable.Load(),
		SingleLatency:     latencyStats(c.singleLat),
		BatchLatency:      latencyStats(c.batchLat),
	}
	if s, ok := c.firstErr.Load().(string); ok {
		res.FirstError = s
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.AnswersPerSec = float64(res.AnswersAccepted) / sec
	}
	return res, nil
}

// randomAnswers fills a batch with n uniformly spread decision answers.
func (cfg Config) randomAnswers(rng *rand.Rand, n int) []dataset.Answer {
	answers := make([]dataset.Answer, n)
	for i := range answers {
		answers[i] = dataset.Answer{
			Task:   rng.Intn(cfg.NumTasks),
			Worker: rng.Intn(cfg.NumWorkers),
			Value:  float64(rng.Intn(2)),
		}
	}
	return answers
}

func (cfg Config) doSingle(ctx context.Context, client *http.Client, prefix string, rng *rand.Rand, c *counters) {
	a := cfg.randomAnswers(rng, 1)[0]
	body, _ := json.Marshal(api.IngestRequest{
		Answers:    []api.Answer{{Task: a.Task, Worker: a.Worker, Value: a.Value}},
		NumTasks:   cfg.NumTasks,
		NumWorkers: cfg.NumWorkers,
	})
	c.single.Add(1)
	reqStart := time.Now()
	resp, retry, err := post(ctx, client, prefix+"/ingest", "application/json", body)
	if err != nil {
		if ctx.Err() == nil {
			c.error(err)
		}
		return
	}
	c.singleLat.Observe(time.Since(reqStart).Seconds())
	c.requests.Add(1)
	switch {
	case resp.status == http.StatusOK:
		c.accepted.Add(1)
		maxU64(&c.lastVersion, resp.ingest.Version)
	case resp.status == http.StatusTooManyRequests:
		c.shed.Add(1)
		c.shedAnswers.Add(1)
		cfg.backoff(ctx, retry, c)
	default:
		c.error(fmt.Errorf("loadgen: POST ingest → %d: %s", resp.status, resp.snippet))
	}
}

func (cfg Config) doBatch(ctx context.Context, client *http.Client, prefix string, rng *rand.Rand, c *counters) {
	batches := make([]stream.Batch, cfg.FramesPerRequest)
	total := 0
	for i := range batches {
		batches[i] = stream.Batch{
			NumTasks:   cfg.NumTasks,
			NumWorkers: cfg.NumWorkers,
			Answers:    cfg.randomAnswers(rng, cfg.BatchSize),
		}
		total += cfg.BatchSize
	}
	body, err := stream.EncodeBatchStream(batches)
	if err != nil {
		c.error(err)
		return
	}
	c.batch.Add(1)
	reqStart := time.Now()
	resp, retry, err := post(ctx, client, prefix+"/ingest-batch", "application/octet-stream", body)
	if err != nil {
		if ctx.Err() == nil {
			c.error(err)
		}
		return
	}
	c.batchLat.Observe(time.Since(reqStart).Seconds())
	c.requests.Add(1)
	switch {
	case resp.status == http.StatusOK:
		c.accepted.Add(int64(total))
		maxU64(&c.lastVersion, resp.batchIngest.Version)
		maxU64(&c.lastDurable, resp.batchIngest.DurableVersion)
	case resp.status == http.StatusTooManyRequests:
		c.shed.Add(1)
		c.shedAnswers.Add(int64(total))
		cfg.backoff(ctx, retry, c)
	default:
		c.error(fmt.Errorf("loadgen: POST ingest-batch → %d: %s", resp.status, resp.snippet))
	}
}

// backoff accounts a 429's Retry-After header and optionally honors it.
func (cfg Config) backoff(ctx context.Context, retryAfter time.Duration, c *counters) {
	if retryAfter <= 0 {
		c.retryAfterMissing.Add(1)
		return
	}
	if cfg.HonorRetryAfter {
		select {
		case <-ctx.Done():
		case <-time.After(retryAfter):
		}
	}
}

// response is the decoded slice of a server reply the driver cares about.
type response struct {
	status      int
	snippet     string
	ingest      api.IngestResponse
	batchIngest api.BatchIngestResponse
}

func post(ctx context.Context, client *http.Client, url, contentType string, body []byte) (response, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return response{}, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := client.Do(req)
	if err != nil {
		return response{}, 0, err
	}
	defer resp.Body.Close()
	out := response{status: resp.StatusCode}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	io.Copy(io.Discard, resp.Body)
	var retry time.Duration
	switch resp.StatusCode {
	case http.StatusOK:
		// One decode into whichever shape fits; both are supersets of
		// {"version":...} so a stray mismatch only zeroes optional fields.
		json.Unmarshal(data, &out.ingest)
		json.Unmarshal(data, &out.batchIngest)
	case http.StatusTooManyRequests:
		retry = parseRetryAfter(resp.Header.Get("Retry-After"))
	default:
		out.snippet = string(data)
		if len(out.snippet) > 200 {
			out.snippet = out.snippet[:200]
		}
	}
	return out, retry, nil
}

// parseRetryAfter parses a Retry-After header as RFC 9110 delta-seconds:
// a non-negative decimal integer, nothing else. Durations ("1m"),
// fractions, and HTTP dates all return 0 and are counted against the
// server as RetryAfterMissing — the contract the loadgen verifies is
// that every 429 carries integer seconds. (The old implementation
// appended "s" and used time.ParseDuration, which read "1m" as one
// millisecond and happily accepted values the RFC forbids.)
func parseRetryAfter(header string) time.Duration {
	secs, err := strconv.Atoi(header)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
