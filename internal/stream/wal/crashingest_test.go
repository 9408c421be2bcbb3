package wal

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"truthinference/internal/api"
	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/methods/direct"
	"truthinference/internal/stream"
)

// TestKillMidIngestRecovery drives the live batched HTTP endpoint with
// admission limits over a real WAL, "kills" the daemon mid-stream by
// abandoning the persister without Close, recovers, and checks the two
// halves of the backpressure/durability contract:
//
//   - no answer from a 429-shed request is present after recovery (a
//     rejected request acknowledged nothing), and
//   - every answer from a request acked durable (durable_version covers
//     its version) survives with its full count.
//
// Each request uses a unique worker id, so recovered answers attribute
// exactly to the request that carried them.
func TestKillMidIngestRecovery(t *testing.T) {
	const (
		answersPerReq = 10
		numTasks      = answersPerReq
		numRequests   = 8
	)
	base := t.TempDir() + "/proj"
	fresh := func() (*stream.Store, error) {
		return stream.NewStore("crash-http", dataset.Decision, 2)
	}
	p, rec, err := Open(base, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.waitIdle) // abandoned below; let background work settle
	svc, err := stream.NewService(rec.Store, stream.Config{
		Method:  direct.NewMV(),
		Options: core.Options{Seed: 1},
		Persist: p,
		// Burst 25 with a near-zero refill: the first three 10-answer
		// requests are admitted (the third by borrowing), then the bucket
		// is in debt and everything after is shed.
		Limits: stream.Limits{RatePerSec: 1e-6, Burst: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	ackedDurable := map[int]bool{} // worker id → acked with durability coverage
	rejected := map[int]bool{}     // worker id → shed with 429
	var lastDurable uint64
	for i := 0; i < numRequests; i++ {
		answers := make([]dataset.Answer, answersPerReq)
		for j := range answers {
			answers[j] = dataset.Answer{Task: j, Worker: i, Value: float64(j % 2)}
		}
		body, err := stream.EncodeBatchStream([]stream.Batch{{
			NumTasks:   numTasks,
			NumWorkers: numRequests,
			Answers:    answers,
		}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/v1/ingest-batch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var ack api.BatchIngestResponse
			if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
				t.Fatalf("request %d: decode ack: %v", i, err)
			}
			if !ack.Durable || ack.DurableVersion < ack.Version {
				t.Fatalf("request %d acked without durability coverage: %+v", i, ack)
			}
			ackedDurable[i] = true
			lastDurable = ack.DurableVersion
		case http.StatusTooManyRequests:
			if _, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil {
				t.Fatalf("request %d: 429 without a parseable Retry-After: %q", i, resp.Header.Get("Retry-After"))
			}
			rejected[i] = true
		default:
			t.Fatalf("request %d: unexpected status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if len(ackedDurable) == 0 || len(rejected) == 0 {
		t.Fatalf("test needs both outcomes: %d acked, %d rejected", len(ackedDurable), len(rejected))
	}

	// "Kill": the HTTP server stops and the persister is abandoned with
	// no Close/Sync — whatever the group-committed flushes made durable
	// is all the next boot may rely on.
	srv.Close()

	p2, rec2, err := Open(base, fresh, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer p2.Close()
	if got := rec2.Store.Version(); got < lastDurable {
		t.Fatalf("recovered version %d is behind the acked durable watermark %d", got, lastDurable)
	}
	perWorker := map[int]int{}
	_, log := rec2.Store.Pin()
	for _, a := range log {
		perWorker[a.Worker]++
	}
	for w := range rejected {
		if perWorker[w] != 0 {
			t.Errorf("worker %d: %d answers recovered from a request that was shed with 429", w, perWorker[w])
		}
	}
	for w := range ackedDurable {
		if perWorker[w] != answersPerReq {
			t.Errorf("worker %d: %d/%d answers recovered from a request acked durable", w, perWorker[w], answersPerReq)
		}
	}
}
