package query_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"truthinference/internal/api"
	"truthinference/internal/dataset"
	"truthinference/internal/query"
	"truthinference/internal/stream"
)

func queryServer(t *testing.T, src query.Source, led query.Ledger) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(query.NewHandler(src, led, nil))
	t.Cleanup(srv.Close)
	return srv
}

func postQuery(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestQueryEndpointServesViewsAndPlans(t *testing.T) {
	srv := queryServer(t, golden(), nil)

	resp, body := postQuery(t, srv, `{"view":"disagreement"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("view: status = %d: %s", resp.StatusCode, body)
	}
	var out api.QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.StoreVersion != 7 || out.ResultVersion != 7 {
		t.Fatalf("versions = (%d, %d), want (7, 7)", out.StoreVersion, out.ResultVersion)
	}
	if len(out.Rows) != 1 || out.Truncated {
		t.Fatalf("disagreement response = %+v, want one row", out)
	}

	resp, body = postQuery(t, srv,
		`{"plan":{"op":"aggregate","by":["worker"],"aggs":[{"op":"count","as":"n"}],"input":{"op":"scan","relation":"answers"}}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status = %d: %s", resp.StatusCode, body)
	}
	out = api.QueryResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 || out.Cols[0] != "worker" || out.Cols[1] != "n" {
		t.Fatalf("aggregate response = %+v", out)
	}

	// The row limit truncates and says so.
	resp, body = postQuery(t, srv, `{"plan":{"op":"scan","relation":"answers"},"limit":4}`)
	out = api.QueryResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	if resp.StatusCode != http.StatusOK || len(out.Rows) != 4 || !out.Truncated {
		t.Fatalf("limited scan = %d %+v, want 4 truncated rows", resp.StatusCode, out)
	}
}

func TestQueryEndpointStatusMapping(t *testing.T) {
	srv := queryServer(t, golden(), nil)
	cases := []struct {
		name, body string
		want       int
		code       api.ErrorCode
	}{
		{"malformed body", `{not json`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown field", `{"vieww":"x"}`, http.StatusBadRequest, api.CodeBadRequest},
		{"neither view nor plan", `{}`, http.StatusBadRequest, api.CodeBadRequest},
		{"both view and plan", `{"view":"disagreement","plan":{"op":"scan","relation":"answers"}}`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown view", `{"view":"profits"}`, http.StatusNotFound, api.CodeNotFound},
		{"malformed plan", `{"plan":{"op":"scan","surprise":1}}`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown relation", `{"plan":{"op":"scan","relation":"secrets"}}`, http.StatusUnprocessableEntity, api.CodeUnprocessable},
		{"hostile plan", `{"plan":{"op":"project","cols":["nope"],"input":{"op":"scan","relation":"answers"}}}`, http.StatusUnprocessableEntity, api.CodeUnprocessable},
		{"null join input", `{"plan":{"op":"join","inputs":[null,{"op":"scan","relation":"answers"}]}}`, http.StatusUnprocessableEntity, api.CodeUnprocessable},
		{"no ledger", `{"view":"spend-vs-budget"}`, http.StatusUnprocessableEntity, api.CodeUnprocessable},
		{"limit out of range", `{"view":"disagreement","limit":1000000}`, http.StatusUnprocessableEntity, api.CodeUnprocessable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postQuery(t, srv, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			var env api.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("not the error envelope: %v: %s", err, body)
			}
			if env.Error.Code != tc.code || env.Error.Message == "" {
				t.Fatalf("envelope = %+v, want code %q", env, tc.code)
			}
		})
	}
}

func TestQueryEndpointOversizedBody(t *testing.T) {
	srv := queryServer(t, golden(), nil)
	big := `{"view":"` + strings.Repeat("x", api.MaxAdminBody) + `"}`
	resp, body := postQuery(t, srv, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %.120s", resp.StatusCode, body)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != api.CodeTooLarge {
		t.Fatalf("envelope = %+v (%v)", env, err)
	}
}

func TestQueryEndpointUnavailableIs409(t *testing.T) {
	src := golden()
	src.postErr = stream.ErrNotInferred
	src.wqErr = stream.ErrNotInferred
	srv := queryServer(t, src, nil)
	for _, body := range []string{
		`{"view":"disagreement"}`,
		`{"view":"worker-quality-drop"}`,
		`{"plan":{"op":"scan","relation":"posterior"}}`,
	} {
		resp, data := postQuery(t, srv, body)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s: status = %d, want 409: %s", body, resp.StatusCode, data)
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != api.CodeConflict {
			t.Fatalf("%s: envelope = %+v (%v)", body, env, err)
		}
	}
}

// TestQueryEndpointOverRealService drives the endpoint against a real
// MV service: the canned disagreement view must be empty (MV's
// posterior argmax is MV), and a plan joining answers with posteriors
// streams at the service's pinned version.
func TestQueryEndpointOverRealService(t *testing.T) {
	store, err := stream.NewStoreN("query-http", dataset.Decision, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc := newMVService(t, store)
	if _, err := svc.Ingest(stream.Batch{Answers: []dataset.Answer{
		{Task: 0, Worker: 0, Value: 1}, {Task: 0, Worker: 1, Value: 1},
		{Task: 1, Worker: 0, Value: 0}, {Task: 1, Worker: 2, Value: 1},
		{Task: 2, Worker: 2, Value: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	srv := queryServer(t, svc, nil)

	resp, body := postQuery(t, srv, `{"view":"disagreement"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disagreement over MV: %d: %s", resp.StatusCode, body)
	}
	var out api.QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	// Task 1 is a 0-vs-1 tie: the view's mv relation breaks it low and
	// MV's vote-share posterior argmax breaks it low too, so even the
	// tie agrees — no disagreement rows on an MV project.
	if len(out.Rows) != 0 {
		t.Fatalf("MV disagreement rows = %v, want none", out.Rows)
	}

	resp, body = postQuery(t, srv,
		`{"plan":{"op":"join","inputs":[{"op":"scan","relation":"answers"},{"op":"scan","relation":"posterior_top"}]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join plan: %d: %s", resp.StatusCode, body)
	}
	out = api.QueryResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 5 {
		t.Fatalf("answers⋈posterior_top rows = %d, want 5", len(out.Rows))
	}
	if version, _ := svc.Pin(); out.StoreVersion != version {
		t.Fatalf("response pinned at %d, store at %d", out.StoreVersion, version)
	}
}
