package stream

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"truthinference/internal/api"
	"truthinference/internal/dataset"
	"truthinference/internal/methods/direct"
)

// memPersister is an in-memory Persister: Record buffers, SyncTo
// advances the watermark, and the durable/recorded split is observable.
type memPersister struct {
	nopDurability
	mu       sync.Mutex
	recorded uint64
	durable  uint64
	syncs    int
}

func (p *memPersister) Record(version uint64, _ Batch) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recorded = version
	return nil
}

func (p *memPersister) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.durable = p.recorded
	return nil
}

func (p *memPersister) SyncTo(version uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if version > p.recorded {
		return ErrClosed // cannot flush what was never recorded
	}
	if p.durable < p.recorded {
		p.syncs++
		p.durable = p.recorded
	}
	return nil
}

func (p *memPersister) DurableVersion() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.durable
}

func batchServer(t *testing.T, cfg Config) (*httptest.Server, *Service) {
	t.Helper()
	store, err := NewStore("batch-http", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Method == nil {
		cfg.Method = direct.NewMV()
	}
	svc, err := NewService(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv, svc
}

func postBatchStream(t *testing.T, srv *httptest.Server, batches []Batch) (*http.Response, []byte) {
	t.Helper()
	body, err := EncodeBatchStream(batches)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/ingest-batch", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestIngestBatchEndpoint(t *testing.T) {
	p := &memPersister{}
	srv, _ := batchServer(t, Config{Persist: p})

	batches := []Batch{
		{NumTasks: 4, NumWorkers: 3},
		{Answers: []dataset.Answer{{Task: 0, Worker: 0, Value: 1}, {Task: 1, Worker: 1, Value: 0}}},
		{Answers: []dataset.Answer{{Task: 2, Worker: 2, Value: 1}}, Truth: map[int]float64{2: 1}},
	}
	resp, body := postBatchStream(t, srv, batches)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out api.BatchIngestResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Batches != 3 || out.Ingested != 3 || out.Answers != 3 {
		t.Fatalf("response = %+v", out)
	}
	if out.Version != 3 {
		t.Fatalf("version = %d, want 3", out.Version)
	}
	// The bugfix under test: the ack must state durability explicitly,
	// and with a DurablePersister the whole request must be durable.
	if !out.Durable || out.DurableVersion != out.Version {
		t.Fatalf("durable=%v durable_version=%d, want durable through %d", out.Durable, out.DurableVersion, out.Version)
	}
	if p.syncs != 1 {
		t.Fatalf("syncs = %d, want exactly 1 for a 3-frame request (group commit)", p.syncs)
	}
}

func TestIngestBatchWithoutWALReportsNotDurable(t *testing.T) {
	srv, _ := batchServer(t, Config{})
	resp, body := postBatchStream(t, srv, []Batch{{NumTasks: 1, NumWorkers: 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out api.BatchIngestResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Durable || out.DurableVersion != 0 {
		t.Fatalf("a WAL-less project claimed durability: %+v", out)
	}
}

func TestIngestBatchRejectsGarbage(t *testing.T) {
	srv, _ := batchServer(t, Config{})
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"empty body", nil, http.StatusBadRequest},
		{"bad magic", []byte("NOTMAGIC"), http.StatusBadRequest},
		{"no frames", []byte(BatchStreamMagic), http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := srv.Client().Post(srv.URL+"/v1/ingest-batch", "application/octet-stream", bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, c.want)
			}
			var env api.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("error response is not the envelope: %v", err)
			}
			if env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("envelope incomplete: %+v", env)
			}
		})
	}
}

func TestIngestBatchShedsBeforeCommitting(t *testing.T) {
	srv, svc := batchServer(t, Config{Limits: Limits{RatePerSec: 0.001, Burst: 5}})

	// First request overspends the bucket (6 answers against a burst of
	// 5 — admitted by borrowing, leaving the bucket in debt).
	resp, body := postBatchStream(t, srv, []Batch{
		{NumTasks: 3, NumWorkers: 2},
		{Answers: []dataset.Answer{
			{Task: 0, Worker: 0, Value: 1}, {Task: 1, Worker: 0, Value: 0}, {Task: 2, Worker: 0, Value: 1},
			{Task: 0, Worker: 1, Value: 1}, {Task: 1, Worker: 1, Value: 0}, {Task: 2, Worker: 1, Value: 1},
		}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status = %d: %s", resp.StatusCode, body)
	}
	before := svc.store.Version()

	// Second request must be shed as a unit: 429, Retry-After, and —
	// critically — no frame committed.
	resp, body = postBatchStream(t, srv, []Batch{
		{Answers: []dataset.Answer{{Task: 1, Worker: 1, Value: 0}}},
		{Answers: []dataset.Answer{{Task: 0, Worker: 1, Value: 1}}},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != api.CodeRateLimited {
		t.Fatalf("code = %q, want rate_limited", env.Error.Code)
	}
	if got := svc.store.Version(); got != before {
		t.Fatalf("shed request committed data: version %d → %d", before, got)
	}
}

func TestIngestQuotaRejects(t *testing.T) {
	srv, _ := batchServer(t, Config{Limits: Limits{MaxAnswers: 2}})
	resp, body := postBatchStream(t, srv, []Batch{
		{NumTasks: 2, NumWorkers: 2, Answers: []dataset.Answer{{Task: 0, Worker: 0, Value: 1}, {Task: 1, Worker: 1, Value: 0}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("within-quota request: %d: %s", resp.StatusCode, body)
	}
	resp, body = postBatchStream(t, srv, []Batch{
		{Answers: []dataset.Answer{{Task: 0, Worker: 1, Value: 1}}},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After")
	}
}

func TestIngestQuotaAllowsMetadataOnlyGrowth(t *testing.T) {
	// Hitting the answer quota must not freeze the board: batches that
	// carry no answers (task/worker growth, golden truth) reserve
	// nothing against MaxAnswers and still commit. Only answer-bearing
	// ingest is refused.
	srv, svc := batchServer(t, Config{Limits: Limits{MaxAnswers: 2}})
	resp, body := postBatchStream(t, srv, []Batch{
		{NumTasks: 2, NumWorkers: 2, Answers: []dataset.Answer{{Task: 0, Worker: 0, Value: 1}, {Task: 1, Worker: 1, Value: 0}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("within-quota request: %d: %s", resp.StatusCode, body)
	}

	// At quota: board growth and golden truth still land.
	resp, body = postBatchStream(t, srv, []Batch{
		{NumTasks: 5, NumWorkers: 3, Truth: map[int]float64{0: 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metadata-only batch at quota: %d, want 200: %s", resp.StatusCode, body)
	}
	if tasks, workers, _ := svc.Dims(); tasks != 5 || workers != 3 {
		t.Fatalf("board did not grow: %d tasks, %d workers", tasks, workers)
	}

	// Answer-bearing ingest is still refused.
	resp, body = postBatchStream(t, srv, []Batch{
		{Answers: []dataset.Answer{{Task: 2, Worker: 2, Value: 1}}},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota answers: %d, want 429: %s", resp.StatusCode, body)
	}
}
