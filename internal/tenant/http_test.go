package tenant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"truthinference/internal/assign"
	"truthinference/internal/stream"
)

func startServer(t *testing.T) (*Registry, *httptest.Server) {
	t.Helper()
	r := NewRegistry("", nil)
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() { ts.Close(); r.Close() })
	return r, ts
}

func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var m map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s %s: non-JSON response %q", method, url, raw)
		}
	}
	return resp.StatusCode, m
}

// TestAdminLifecycleOverHTTP walks the documented admin flow: create →
// ingest → stats → delete, with the routing layer dispatching prefixed
// paths to the right tenant.
func TestAdminLifecycleOverHTTP(t *testing.T) {
	_, ts := startServer(t)

	status, created := doJSON(t, "POST", ts.URL+"/v1/admin/projects",
		`{"id":"polls","config":{"method":"MV","task_type":"decision","seed":3}}`)
	if status != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %v", status, created)
	}
	if created["id"] != "polls" {
		t.Fatalf("create response = %v", created)
	}

	// Ingest through the prefixed route, read back through it too.
	resp, err := http.Post(ts.URL+"/v1/projects/polls/ingest", "application/json",
		bytes.NewBufferString(`{"answers":[{"task":0,"worker":0,"value":1},{"task":0,"worker":1,"value":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prefixed ingest: HTTP %d", resp.StatusCode)
	}
	status, truth := doJSON(t, "GET", ts.URL+"/v1/projects/polls/truth/0", "")
	if status != http.StatusOK || truth["truth"].(float64) != 1 {
		t.Fatalf("prefixed truth: HTTP %d %v", status, truth)
	}

	// Per-project admin stats.
	status, info := doJSON(t, "GET", ts.URL+"/v1/admin/projects/polls", "")
	if status != http.StatusOK {
		t.Fatalf("admin get: HTTP %d", status)
	}
	if st, ok := info["stats"].(map[string]any); !ok || st["answers"].(float64) != 2 {
		t.Fatalf("admin stats = %v", info)
	}

	// Delete; the project's routes go away with it.
	if status, _ := doJSON(t, "DELETE", ts.URL+"/v1/admin/projects/polls", ""); status != http.StatusOK {
		t.Fatalf("delete: HTTP %d", status)
	}
	if status, _ := doJSON(t, "GET", ts.URL+"/v1/projects/polls/stats", ""); status != http.StatusNotFound {
		t.Fatalf("stats after delete: HTTP %d, want 404", status)
	}
}

func TestAdminErrorsOverHTTP(t *testing.T) {
	_, ts := startServer(t)

	// Routing to an unknown project.
	if status, _ := doJSON(t, "GET", ts.URL+"/v1/projects/nope/stats", ""); status != http.StatusNotFound {
		t.Errorf("unknown project route: HTTP %d, want 404", status)
	}
	if status, _ := doJSON(t, "DELETE", ts.URL+"/v1/admin/projects/nope", ""); status != http.StatusNotFound {
		t.Errorf("delete unknown: HTTP %d, want 404", status)
	}
	// Malformed and invalid creates.
	for body, want := range map[string]int{
		`{`:                                     http.StatusBadRequest,
		`{"id":"x"}`:                            http.StatusBadRequest, // no config
		`{"id":"x","config":{"method":"Oops"}}`: http.StatusBadRequest,
		`{"id":"x","config":{"method":"MV","wat":1}}`: http.StatusBadRequest,
		`{"id":"UPPER","config":{"method":"MV"}}`:     http.StatusUnprocessableEntity,
	} {
		if status, _ := doJSON(t, "POST", ts.URL+"/v1/admin/projects", body); status != want {
			t.Errorf("create %q: HTTP %d, want %d", body, status, want)
		}
	}
	// Duplicate id → 409.
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/admin/projects", `{"id":"dup","config":{"method":"MV"}}`); status != http.StatusCreated {
		t.Fatalf("first create: HTTP %d", status)
	}
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/admin/projects", `{"id":"dup","config":{"method":"MV"}}`); status != http.StatusConflict {
		t.Errorf("duplicate create: HTTP %d, want 409", status)
	}
	// The daemon-level healthz answers with no project at all.
	if status, m := doJSON(t, "GET", ts.URL+"/v1/healthz", ""); status != http.StatusOK || m["status"] != "ok" {
		t.Errorf("daemon healthz: HTTP %d %v", status, m)
	}
	// Per-project healthz answers through the prefix too.
	if status, _ := doJSON(t, "GET", ts.URL+"/v1/projects/dup/healthz", ""); status != http.StatusOK {
		t.Errorf("prefixed healthz: HTTP %d", status)
	}
}

// TestCreateRefusesUnindexableChoices pins that a project whose answers
// the CSR cannot index (labels are uint16 codes) is refused at create
// time with a 4xx, instead of being created and then panicking on its
// first auto-refresh epoch — which took down every tenant in the daemon.
func TestCreateRefusesUnindexableChoices(t *testing.T) {
	_, ts := startServer(t)
	status, body := doJSON(t, "POST", ts.URL+"/v1/admin/projects",
		`{"id":"wide","config":{"method":"D&S","task_type":"single-choice","choices":70000}}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("create with 70000 choices: HTTP %d %v, want 422", status, body)
	}
	if status, _ := doJSON(t, "GET", ts.URL+"/v1/projects/wide/stats", ""); status != http.StatusNotFound {
		t.Errorf("refused project routes: HTTP %d, want 404", status)
	}
	// The daemon keeps serving: a D&S project is created, ingests and
	// serves its first epoch.
	if status, body := doJSON(t, "POST", ts.URL+"/v1/admin/projects",
		`{"id":"narrow","config":{"method":"D&S","task_type":"single-choice","choices":3,"no_auto_refresh":true}}`); status != http.StatusCreated {
		t.Fatalf("create with 3 choices: HTTP %d %v", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/projects/narrow/ingest",
		`{"answers":[{"task":0,"worker":0,"value":2}]}`); status != http.StatusOK {
		t.Fatalf("ingest: HTTP %d %v", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/projects/narrow/refresh", ""); status != http.StatusOK {
		t.Fatalf("refresh: HTTP %d %v", status, body)
	}
	if status, truth := doJSON(t, "GET", ts.URL+"/v1/projects/narrow/truth/0", ""); status != http.StatusOK || truth["truth"].(float64) != 2 {
		t.Errorf("truth: HTTP %d %v", status, truth)
	}
}

// TestDeleteWhileRequestInFlight pins the ErrClosed → 410 mapping: a
// handler held across a delete answers Gone for mutations instead of
// tearing anything.
func TestDeleteWhileRequestInFlight(t *testing.T) {
	r, ts := startServer(t)
	if _, err := r.Create("gone", Config{Method: "MV"}); err != nil {
		t.Fatal(err)
	}
	p, _ := r.Get("gone")
	handler := p.Handler() // an in-flight reference, as a mid-request goroutine would hold
	if err := r.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", ts.URL+"/v1/ingest", strings.NewReader(`{"answers":[{"task":0,"worker":0,"value":1}]}`))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusGone {
		t.Fatalf("ingest on deleted project: HTTP %d, want 410", rec.Code)
	}
}

// TestCompleteAfterDeleteIsGone: a worker holding a lease when its
// project is deleted gets 410 from POST /v1/complete — not a 422 that
// reads as "your answer was invalid".
func TestCompleteAfterDeleteIsGone(t *testing.T) {
	r, _ := startServer(t)
	if _, err := r.Create("gone2", Config{Method: "MV",
		Assign: &assign.Spec{Policy: "random", Redundancy: 1}}); err != nil {
		t.Fatal(err)
	}
	p, _ := r.Get("gone2")
	if _, err := p.Service().Ingest(stream.Batch{NumTasks: 2, NumWorkers: 2}); err != nil {
		t.Fatal(err)
	}
	lease, err := p.Ledger().Assign(0)
	if err != nil {
		t.Fatal(err)
	}
	handler := p.Handler()
	if err := r.Delete("gone2"); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"lease_id":%d,"worker":0,"value":1}`, lease.ID)
	req := httptest.NewRequest("POST", "/v1/complete", strings.NewReader(body))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusGone {
		t.Fatalf("complete on deleted project: HTTP %d (%s), want 410", rec.Code, rec.Body)
	}
}
