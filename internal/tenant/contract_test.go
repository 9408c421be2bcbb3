package tenant

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"truthinference/internal/api"
	"truthinference/internal/assign"
	"truthinference/internal/stream"
)

// The HTTP-contract suite: every failure mode the stream, assign and
// tenant surfaces expose must answer with the shared error envelope
// {"error":{"code","message"}}, the documented status code, and — on
// every 429 — a parseable Retry-After header. The table runs through
// the full multi-tenant router, so the per-project rewrites are under
// test too.

// contractServer boots a registry with the projects the table needs:
//   - default:  MV, manual refresh, assignment enabled, pre-loaded so
//     every task sits at its redundancy cap except through the one held
//     lease (the 403 case completes it as the wrong worker; the 404
//     case asks for work when nothing is eligible);
//   - quota:    5-answer lifetime quota, empty;
//   - limited:  near-zero admission rate, bucket already in debt.
func contractServer(t *testing.T) (*httptest.Server, assign.Lease) {
	t.Helper()
	reg := NewRegistry("", nil)
	if _, err := reg.Create("default", Config{
		Method:        "MV",
		NoAutoRefresh: true,
		Assign:        &assign.Spec{Policy: "random", Redundancy: 3},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)

	post := func(path, body string, want int) []byte {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("setup POST %s → %d (want %d): %s", path, resp.StatusCode, want, data)
		}
		return data
	}
	post("/v1/admin/projects", `{"id":"quota","config":{"method":"MV","limits":{"max_answers":5}}}`, http.StatusCreated)
	post("/v1/admin/projects", `{"id":"limited","config":{"method":"MV","limits":{"rate_per_sec":0.000001,"burst":1}}}`, http.StatusCreated)
	// An iterative method with no epochs yet: its query plane's
	// model-derived relations are unavailable (409) until a refresh.
	post("/v1/admin/projects", `{"id":"dscold","config":{"method":"D&S","no_auto_refresh":true}}`, http.StatusCreated)

	// Default project, redundancy 3: fill tasks 0 and 1 to the cap, so
	// the setup lease deterministically lands on task 2 — then fill task
	// 2 too. Afterward every task is at or over its cap (answers +
	// outstanding lease) and no worker has anything eligible.
	var answers []string
	for task := 0; task < 2; task++ {
		for worker := 0; worker < 3; worker++ {
			answers = append(answers, fmt.Sprintf(`{"task":%d,"worker":%d,"value":%d}`, task, worker, (task+worker)%2))
		}
	}
	post("/v1/projects/default/ingest",
		`{"answers":[`+strings.Join(answers, ",")+`],"num_tasks":3,"num_workers":4}`, http.StatusOK)
	post("/v1/projects/default/refresh", "", http.StatusOK)
	resp, err := srv.Client().Get(srv.URL + "/v1/projects/default/assign?worker=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lease assign.Lease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("setup assign → %d, %v", resp.StatusCode, err)
	}
	if lease.Task != 2 {
		t.Fatalf("setup lease landed on task %d, want the only uncapped task 2", lease.Task)
	}
	post("/v1/projects/default/ingest",
		`{"answers":[{"task":2,"worker":0,"value":1},{"task":2,"worker":1,"value":0},{"task":2,"worker":2,"value":1}]}`,
		http.StatusOK)

	// Put the limited project's bucket in debt: burst 1, 2 answers — the
	// first request is admitted by borrowing and leaves it negative.
	post("/v1/projects/limited/ingest",
		`{"answers":[{"task":0,"worker":0,"value":1},{"task":1,"worker":0,"value":0}],"num_tasks":2,"num_workers":1}`,
		http.StatusOK)
	return srv, lease
}

func TestHTTPContract(t *testing.T) {
	srv, lease := contractServer(t)

	oneAnswerStream, err := stream.EncodeBatchStream([]stream.Batch{{
		NumTasks: 1, NumWorkers: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name        string
		method      string
		path        string
		contentType string
		body        string
		wantStatus  int
		wantRetry   bool // 429s must carry Retry-After
	}{
		// stream surface
		{"ingest malformed json", "POST", "/v1/projects/default/ingest", "application/json", `{"answers":`, http.StatusBadRequest, false},
		{"ingest unknown field", "POST", "/v1/projects/default/ingest", "application/json", `{"bogus":1}`, http.StatusBadRequest, false},
		{"ingest trailing data", "POST", "/v1/projects/default/ingest", "application/json",
			`{"answers":[{"task":0,"worker":3,"value":1}]}{"answers":[{"task":1,"worker":3,"value":1}]}`,
			http.StatusBadRequest, false},
		{"ingest oversized body", "POST", "/v1/projects/default/ingest", "application/json",
			`{"answers":[` + strings.Repeat(`{"task":0,"worker":0,"value":1},`, 300000) + `{"task":0,"worker":0,"value":1}]}`,
			http.StatusRequestEntityTooLarge, false},
		{"truth non-integer id", "GET", "/v1/projects/default/truth/abc", "", "", http.StatusBadRequest, false},
		{"truth unknown task", "GET", "/v1/projects/default/truth/999", "", "", http.StatusNotFound, false},
		{"worker unknown id", "GET", "/v1/projects/default/worker/999", "", "", http.StatusNotFound, false},
		{"batch garbage", "POST", "/v1/projects/default/ingest-batch", "application/octet-stream", "not a batch stream", http.StatusBadRequest, false},
		{"batch empty", "POST", "/v1/projects/default/ingest-batch", "application/octet-stream", "", http.StatusBadRequest, false},
		{"ingest rate limited", "POST", "/v1/projects/limited/ingest", "application/json",
			`{"answers":[{"task":0,"worker":0,"value":1}]}`, http.StatusTooManyRequests, true},
		{"batch rate limited", "POST", "/v1/projects/limited/ingest-batch", "application/octet-stream",
			string(oneAnswerStream), http.StatusTooManyRequests, true},
		{"ingest over quota", "POST", "/v1/projects/quota/ingest", "application/json",
			`{"answers":[` + strings.Repeat(`{"task":0,"worker":0,"value":1},`, 5) + `{"task":0,"worker":0,"value":1}],"num_tasks":1,"num_workers":1}`,
			http.StatusTooManyRequests, true},

		// query surface
		{"query malformed body", "POST", "/v1/projects/default/query", "application/json", `{"plan":`, http.StatusBadRequest, false},
		{"query view and plan", "POST", "/v1/projects/default/query", "application/json",
			`{"view":"disagreement","plan":{"op":"scan","relation":"answers"}}`, http.StatusBadRequest, false},
		{"query unknown view", "POST", "/v1/projects/default/query", "application/json", `{"view":"profits"}`, http.StatusNotFound, false},
		{"query oversized body", "POST", "/v1/projects/default/query", "application/json",
			`{"view":"` + strings.Repeat("x", api.MaxAdminBody+1) + `"}`, http.StatusRequestEntityTooLarge, false},
		{"query unknown relation", "POST", "/v1/projects/default/query", "application/json",
			`{"plan":{"op":"scan","relation":"secrets"}}`, http.StatusUnprocessableEntity, false},
		{"query hostile plan", "POST", "/v1/projects/default/query", "application/json",
			`{"plan":{"op":"join","inputs":[{"op":"scan","relation":"answers"}]}}`, http.StatusUnprocessableEntity, false},
		{"query before first epoch", "POST", "/v1/projects/dscold/query", "application/json",
			`{"view":"worker-quality-drop"}`, http.StatusConflict, false},

		// assign surface
		{"assign bad worker param", "GET", "/v1/projects/default/assign?worker=abc", "", "", http.StatusBadRequest, false},
		{"assign nothing eligible", "GET", "/v1/projects/default/assign?worker=0", "", "", http.StatusNotFound, false},
		{"complete unknown lease", "POST", "/v1/projects/default/complete", "application/json",
			`{"lease_id":999999,"worker":1,"value":1}`, http.StatusGone, false},
		{"complete wrong worker", "POST", "/v1/projects/default/complete", "application/json",
			fmt.Sprintf(`{"lease_id":%d,"worker":2,"value":1}`, lease.ID), http.StatusForbidden, false},

		// tenant surface
		{"unknown project", "GET", "/v1/projects/nope/stats", "", "", http.StatusNotFound, false},
		{"admin unknown project", "GET", "/v1/admin/projects/nope", "", "", http.StatusNotFound, false},
		{"admin delete unknown", "DELETE", "/v1/admin/projects/nope", "", "", http.StatusNotFound, false},
		{"admin create duplicate", "POST", "/v1/admin/projects", "application/json",
			`{"id":"quota","config":{"method":"MV"}}`, http.StatusConflict, false},
		{"admin create no config", "POST", "/v1/admin/projects", "application/json", `{"id":"x"}`, http.StatusBadRequest, false},
		{"admin create bad method", "POST", "/v1/admin/projects", "application/json",
			`{"id":"x","config":{"method":"NOPE"}}`, http.StatusBadRequest, false},
		{"admin create oversized", "POST", "/v1/admin/projects", "application/json",
			`{"id":"x","config":{"method":"` + strings.Repeat("M", api.MaxAdminBody+1) + `"}}`, http.StatusRequestEntityTooLarge, false},

		// unmatched routes: the registry's and the project's catch-alls.
		// A wrong method on a known route is a 404 too, not a 405.
		{"unprefixed route", "GET", "/v1/stats", "", "", http.StatusNotFound, false},
		{"unknown path", "GET", "/nope", "", "", http.StatusNotFound, false},
		{"unknown project route", "GET", "/v1/projects/default/bogus", "", "", http.StatusNotFound, false},
		{"wrong method", "GET", "/v1/projects/default/ingest", "", "", http.StatusNotFound, false},
	}

	before := storeVersion(t, srv, "default")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, data)
			}

			// Every error answers with the complete envelope and the code
			// the status maps to.
			var env api.ErrorEnvelope
			if err := json.Unmarshal(data, &env); err != nil {
				t.Fatalf("error body is not the envelope: %v: %s", err, data)
			}
			if want := api.CodeFor(resp.StatusCode); env.Error.Code != want {
				t.Fatalf("code %q, want %q (body %s)", env.Error.Code, want, data)
			}
			if env.Error.Message == "" {
				t.Fatalf("envelope has no message: %s", data)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("error Content-Type %q is not JSON", ct)
			}

			retry := resp.Header.Get("Retry-After")
			if tc.wantRetry {
				secs, err := strconv.Atoi(retry)
				if err != nil || secs < 1 {
					t.Fatalf("429 Retry-After %q is not a positive integer", retry)
				}
			} else if retry != "" {
				t.Fatalf("unexpected Retry-After %q on a %d", retry, resp.StatusCode)
			}
		})
	}
	// Every row fails, so none may have ingested into the default
	// project: a refused request acks nothing.
	if after := storeVersion(t, srv, "default"); after != before {
		t.Fatalf("default project's store version moved from %d to %d across refused requests", before, after)
	}
}

// storeVersion reads a project's store version from its stats route.
func storeVersion(t *testing.T, srv *httptest.Server, project string) uint64 {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/v1/projects/" + project + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st stream.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats of %s → %d, %v", project, resp.StatusCode, err)
	}
	return st.StoreVersion
}

// TestQueryPlaneThroughTenantRouter drives the happy path of the query
// endpoint across the per-project rewrite: the default project's held
// lease is visible through the leases relation, and its unlimited
// budget reports -1 through the canned spend view.
func TestQueryPlaneThroughTenantRouter(t *testing.T) {
	srv, lease := contractServer(t)
	post := func(body string) api.QueryResponse {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/v1/projects/default/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s → %d: %s", body, resp.StatusCode, data)
		}
		var out api.QueryResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	leases := post(`{"plan":{"op":"scan","relation":"leases"}}`)
	if len(leases.Rows) != 1 || leases.Rows[0][0] != float64(lease.ID) || leases.Rows[0][1] != float64(lease.Task) {
		t.Fatalf("leases rows = %v, want the held lease %d on task %d", leases.Rows, lease.ID, lease.Task)
	}

	spend := post(`{"view":"spend-vs-budget"}`)
	if len(spend.Rows) != 1 || spend.Rows[0][0] != -1 {
		t.Fatalf("spend view = %v, want one row with unlimited (-1) budget", spend.Rows)
	}
	if outstanding := spend.Rows[0][3]; outstanding != 1 {
		t.Fatalf("spend view outstanding = %v, want the 1 held lease", outstanding)
	}

	// An aggregate over the pinned answer scan: 9 + 3 answers ingested
	// during setup, counted per task through the project router.
	counts := post(`{"plan":{"op":"aggregate","by":["task"],"aggs":[{"op":"count","as":"n"}],"input":{"op":"scan","relation":"answers"}}}`)
	if len(counts.Rows) != 3 {
		t.Fatalf("per-task counts = %v, want 3 tasks", counts.Rows)
	}
	for _, row := range counts.Rows {
		if row[1] != 3 {
			t.Fatalf("task %v holds %v answers, want 3", row[0], row[1])
		}
	}
}
