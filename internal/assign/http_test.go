package assign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startAPI builds a ledger over a fake source and serves the assignment
// API; completed answers land in the fake source's log.
func startAPI(t *testing.T, src *fakeSource, cfg Config) (*httptest.Server, *Ledger) {
	t.Helper()
	l, err := NewLedger(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(l, func(task, worker int, value float64) (uint64, error) {
		if value < 0 {
			return 0, errors.New("value rejected")
		}
		src.addAnswer(task, worker, value)
		version, _ := src.Pin()
		return version, nil
	}))
	t.Cleanup(srv.Close)
	return srv, l
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: HTTP %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postJSON(t *testing.T, url, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s %s: HTTP %d, want %d", url, body, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHTTPAssignCompleteLoop(t *testing.T) {
	src := newFakeSource(2, 2)
	srv, _ := startAPI(t, src, Config{Policy: LeastAnswered{}, Redundancy: 2, Budget: 4})

	lease := getJSON(t, srv.URL+"/v1/assign?worker=3", http.StatusOK)
	id := uint64(lease["lease_id"].(float64))
	task := int(lease["task"].(float64))
	if lease["worker"].(float64) != 3 {
		t.Fatalf("lease for wrong worker: %v", lease)
	}

	done := postJSON(t, srv.URL+"/v1/complete",
		fmt.Sprintf(`{"lease_id":%d,"worker":3,"value":1}`, id), http.StatusOK)
	if done["version"].(float64) < 1 {
		t.Fatalf("complete did not report an ingest version: %v", done)
	}
	if got := src.taskCounts()[task]; got != 1 {
		t.Fatalf("completed answer not delivered: counts[%d] = %d", task, got)
	}

	st := getJSON(t, srv.URL+"/v1/assignstats", http.StatusOK)
	if st["policy"] != "least-answered" || st["completed"].(float64) != 1 {
		t.Fatalf("assignstats wrong: %v", st)
	}
}

func TestHTTPStatusMapping(t *testing.T) {
	src := newFakeSource(1, 2)
	srv, l := startAPI(t, src, Config{Policy: LeastAnswered{}, Redundancy: 1, Budget: 1})

	// Malformed worker id.
	getJSON(t, srv.URL+"/v1/assign?worker=nope", http.StatusBadRequest)

	lease, err := l.Assign(0)
	if err != nil {
		t.Fatal(err)
	}
	// Budget committed → 409.
	getJSON(t, srv.URL+"/v1/assign?worker=1", http.StatusConflict)
	// Wrong worker on complete → 403.
	postJSON(t, srv.URL+"/v1/complete",
		fmt.Sprintf(`{"lease_id":%d,"worker":9,"value":1}`, lease.ID), http.StatusForbidden)
	// Rejected answer (delivery failure) → 422, lease stays redeemable.
	postJSON(t, srv.URL+"/v1/complete",
		fmt.Sprintf(`{"lease_id":%d,"worker":0,"value":-1}`, lease.ID), http.StatusUnprocessableEntity)
	postJSON(t, srv.URL+"/v1/complete",
		fmt.Sprintf(`{"lease_id":%d,"worker":0,"value":1}`, lease.ID), http.StatusOK)
	// Unknown/expired lease → 410.
	postJSON(t, srv.URL+"/v1/complete",
		fmt.Sprintf(`{"lease_id":%d,"worker":0,"value":1}`, lease.ID), http.StatusGone)
	// Malformed body → 400.
	postJSON(t, srv.URL+"/v1/complete", `{"lease_id":`, http.StatusBadRequest)
	// Budget spent and the only task capped → no task for a fresh worker
	// would be budget-exhausted first; stats still serve.
	st := getJSON(t, srv.URL+"/v1/assignstats", http.StatusOK)
	if st["budget_remaining"].(float64) != 0 {
		t.Fatalf("budget_remaining = %v, want 0", st["budget_remaining"])
	}
}

func TestHTTPNoTask(t *testing.T) {
	src := newFakeSource(1, 2)
	srv, _ := startAPI(t, src, Config{Policy: Random{}, Redundancy: 1, LeaseTTL: time.Hour})
	getJSON(t, srv.URL+"/v1/assign?worker=0", http.StatusOK)
	// Task capped by the outstanding lease → 404 for another worker.
	getJSON(t, srv.URL+"/v1/assign?worker=1", http.StatusNotFound)
}
