package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	ti "truthinference"
	"truthinference/internal/dataset"
	"truthinference/internal/tenant"
	"truthinference/internal/testutil"
)

func TestParseTaskType(t *testing.T) {
	cases := map[string]dataset.TaskType{
		"decision":      dataset.Decision,
		"single-choice": dataset.SingleChoice,
		"numeric":       dataset.Numeric,
	}
	for s, want := range cases {
		got, err := tenant.ParseTaskType(s)
		if err != nil || got != want {
			t.Errorf("ParseTaskType(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := tenant.ParseTaskType("tabular"); err == nil || !strings.Contains(err.Error(), "decision") {
		t.Errorf("invalid type error should list the valid ones: %v", err)
	}
}

func TestUnknownMethodErrorListsRegistry(t *testing.T) {
	_, err := ti.GetMethod("Oops")
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	for _, name := range ti.MethodNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %s", name, err)
		}
	}
}

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL, the cancel that plays the role of SIGTERM, and the channel run's
// result arrives on.
func startDaemon(t *testing.T, cfg config) (baseURL string, sigterm context.CancelFunc, done chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan error, 1)
	go func() { done <- run(ctx, cfg, ln, testutil.Logger(t)) }()
	baseURL = "http://" + ln.Addr().String()
	waitHealthy(t, baseURL)
	return baseURL, cancel, done
}

// writeProjects writes a -projects file and returns its path.
func writeProjects(t *testing.T, body string) string {
	t.Helper()
	file := filepath.Join(t.TempDir(), "projects.json")
	if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return file
}

// defaultURL is the route prefix of the project the tests declare as
// "default".
const defaultURL = "/v1/projects/default"

func waitHealthy(t *testing.T, baseURL string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

func postIngest(t *testing.T, baseURL, body string) {
	t.Helper()
	resp, err := http.Post(baseURL+defaultURL+"/ingest", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("ingest: HTTP %d: %s", resp.StatusCode, msg.String())
	}
}

func getStats(t *testing.T, baseURL string) map[string]any {
	t.Helper()
	resp, err := http.Get(baseURL + defaultURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGracefulShutdown is the regression test for the SIGTERM path:
// cancelling the daemon's context (what the signal handler does) must
// stop the HTTP server, finish in-flight work, and return nil — not
// kill the process mid-epoch.
func TestGracefulShutdown(t *testing.T) {
	baseURL, sigterm, done := startDaemon(t, config{
		projectsFile: writeProjects(t, `{"default": {"method": "MV", "seed": 1, "shards": 4}}`),
	})
	postIngest(t, baseURL, `{"answers":[{"task":0,"worker":0,"value":1},{"task":0,"worker":1,"value":1},{"task":1,"worker":0,"value":0}]}`)

	sigterm()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain within 15s of the signal")
	}
	// The listener really is closed.
	if _, err := http.Get(baseURL + "/v1/healthz"); err == nil {
		t.Fatal("healthz still reachable after shutdown")
	}
}

// TestShutdownPersistsAndRecovers restarts the daemon against the same
// -wal-dir and checks the second boot serves exactly the state the
// first one ingested: the kill-and-recover contract end to end over
// HTTP.
func TestShutdownPersistsAndRecovers(t *testing.T) {
	walDir := t.TempDir()
	cfg := config{
		walDir:       walDir,
		projectsFile: writeProjects(t, `{"default": {"method": "MV", "seed": 1, "shards": 4, "snapshot_every": 2}}`),
	}

	baseURL, sigterm, done := startDaemon(t, cfg)
	postIngest(t, baseURL, `{"num_tasks":3,"num_workers":3}`)
	postIngest(t, baseURL, `{"answers":[{"task":0,"worker":0,"value":1},{"task":0,"worker":1,"value":1},{"task":1,"worker":2,"value":0}]}`)
	postIngest(t, baseURL, `{"answers":[{"task":2,"worker":1,"value":1}],"truth":{"2":1}}`)
	want := getStats(t, baseURL)
	sigterm()
	if err := <-done; err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(walDir, "projects", "default", "store.snap")); err != nil {
		t.Fatalf("clean shutdown left no snapshot: %v", err)
	}

	baseURL2, sigterm2, done2 := startDaemon(t, cfg)
	got := getStats(t, baseURL2)
	for _, k := range []string{"tasks", "workers", "answers", "store_version"} {
		if got[k] != want[k] {
			t.Errorf("recovered %s = %v, want %v", k, got[k], want[k])
		}
	}
	// Truths survive too: task 0 had two votes for 1.
	resp, err := http.Get(baseURL2 + defaultURL + "/truth/0")
	if err != nil {
		t.Fatal(err)
	}
	var truth struct {
		Truth float64 `json:"truth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&truth); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if truth.Truth != 1 {
		t.Errorf("recovered truth for task 0 = %v, want 1", truth.Truth)
	}
	// Ingestion continues on the recovered store.
	postIngest(t, baseURL2, `{"answers":[{"task":1,"worker":1,"value":0}]}`)
	sigterm2()
	if err := <-done2; err != nil {
		t.Fatalf("second run: %v", err)
	}
}

// TestAssignmentEndpoints drives the assignment control plane end to
// end over HTTP: lease → answer → complete → stats, with the budget and
// self-exclusion rails enforced by the daemon.
func TestAssignmentEndpoints(t *testing.T) {
	baseURL, sigterm, done := startDaemon(t, config{
		projectsFile: writeProjects(t, `{"default": {"method": "MV", "seed": 1, "shards": 4,
			"assign": {"policy": "uncertainty", "budget": 4, "redundancy": 2, "lease_ttl": "1m"}}}`),
	})
	defer func() {
		sigterm()
		if err := <-done; err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()
	postIngest(t, baseURL, `{"num_tasks":3,"num_workers":5}`)

	// Worker 0 leases a task and answers it.
	resp, err := http.Get(baseURL + defaultURL + "/assign?worker=0")
	if err != nil {
		t.Fatal(err)
	}
	var lease struct {
		LeaseID uint64 `json:"lease_id"`
		Task    int    `json:"task"`
		Worker  int    `json:"worker"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assign: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if lease.Worker != 0 || lease.Task < 0 || lease.Task >= 3 {
		t.Fatalf("implausible lease: %+v", lease)
	}

	body := fmt.Sprintf(`{"lease_id":%d,"worker":0,"value":1}`, lease.LeaseID)
	cresp, err := http.Post(baseURL+defaultURL+"/complete", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	if cresp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(cresp.Body)
		t.Fatalf("complete: HTTP %d: %s", cresp.StatusCode, msg.String())
	}
	cresp.Body.Close()

	// The completed answer landed in the serving store.
	if st := getStats(t, baseURL); st["answers"].(float64) != 1 {
		t.Fatalf("store holds %v answers after completion, want 1", st["answers"])
	}
	// The ledger accounts for it.
	aresp, err := http.Get(baseURL + defaultURL + "/assignstats")
	if err != nil {
		t.Fatal(err)
	}
	var ast map[string]any
	if err := json.NewDecoder(aresp.Body).Decode(&ast); err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if ast["policy"] != "uncertainty" || ast["completed"].(float64) != 1 {
		t.Fatalf("assignstats = %v", ast)
	}
	if ast["budget_remaining"].(float64) != 3 {
		t.Fatalf("budget_remaining = %v, want 3", ast["budget_remaining"])
	}

	// Self-exclusion over HTTP: worker 0 drains its remaining eligible
	// tasks (2 more), then gets 404.
	for i := 0; i < 2; i++ {
		r, err := http.Get(baseURL + defaultURL + "/assign?worker=0")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("assign %d: HTTP %d", i+2, r.StatusCode)
		}
	}
	r, err := http.Get(baseURL + defaultURL + "/assign?worker=0")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("assign after seeing every task: HTTP %d, want 404", r.StatusCode)
	}
	// Worker 0 holds 3 of the budget's 4 slots (1 completed + 2 leased);
	// worker 1 takes the last one, then a fresh worker gets 409.
	r, err = http.Get(baseURL + defaultURL + "/assign?worker=1")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("assign of the last budget slot: HTTP %d, want 200", r.StatusCode)
	}
	r, err = http.Get(baseURL + defaultURL + "/assign?worker=2")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("assign beyond budget: HTTP %d, want 409", r.StatusCode)
	}
}

// TestStatsReportsShardsAndWALOverHTTP pins the operator-facing /v1/stats
// additions end to end: shard count always, WAL status when durable.
func TestStatsReportsShardsAndWALOverHTTP(t *testing.T) {
	baseURL, sigterm, done := startDaemon(t, config{
		walDir:       t.TempDir(),
		projectsFile: writeProjects(t, `{"default": {"method": "MV", "seed": 1, "shards": 4, "snapshot_every": 100}}`),
	})
	defer func() {
		sigterm()
		if err := <-done; err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()
	postIngest(t, baseURL, `{"answers":[{"task":0,"worker":0,"value":1}]}`)
	st := getStats(t, baseURL)
	if st["shards"].(float64) != 4 {
		t.Errorf("stats shards = %v, want 4", st["shards"])
	}
	if st["durable"] != true {
		t.Errorf("stats durable = %v, want true", st["durable"])
	}
	wal, ok := st["wal"].(map[string]any)
	if !ok {
		t.Fatalf("stats wal missing: %v", st)
	}
	if wal["records_since_snapshot"].(float64) != 1 {
		t.Errorf("records_since_snapshot = %v, want 1", wal["records_since_snapshot"])
	}
}

// TestRunFailsFastOnBadConfig keeps daemon-level config errors fatal (and
// readable) rather than silently serving a misconfigured daemon. Project
// config errors are TestRunFailsFastOnBadProjectsFile's.
func TestRunFailsFastOnBadConfig(t *testing.T) {
	legacy := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacy, "truthserve.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	notDir := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := t.TempDir()
	if err := os.WriteFile(filepath.Join(corrupt, "projects.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		cfg        config
	}{
		{"single-project wal-dir layout", "mkdir -p", config{walDir: legacy}},
		{"wal-dir is a file", "not a directory", config{walDir: notDir}},
		{"corrupt manifest", "manifest", config{walDir: corrupt}},
		{"bad debug addr", "debug listener", config{debugAddr: "127.0.0.1:notaport"}},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		err = run(ctx, tc.cfg, ln, nil)
		cancel()
		ln.Close()
		if err == nil {
			t.Errorf("%s: run succeeded, want config error", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestProjectsFileBootsTenants boots the daemon with a -projects file
// declaring two projects and drives each through its
// /v1/projects/{id}/... routes: "default" is an ordinary id.
func TestProjectsFileBootsTenants(t *testing.T) {
	baseURL, sigterm, done := startDaemon(t, config{
		projectsFile: writeProjects(t, `{
		"default": {"method": "MV", "seed": 1},
		"imgs": {"method": "MV", "task_type": "single-choice", "choices": 4,
		         "assign": {"policy": "least-answered", "redundancy": 2, "lease_ttl": "1m"}}
	}`),
	})
	defer func() {
		sigterm()
		if err := <-done; err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()

	postIngest(t, baseURL, `{"answers":[{"task":0,"worker":0,"value":1}]}`)
	resp, err := http.Post(baseURL+"/v1/projects/imgs/ingest", "application/json",
		bytes.NewBufferString(`{"answers":[{"task":0,"worker":0,"value":3},{"task":1,"worker":1,"value":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant ingest: HTTP %d", resp.StatusCode)
	}

	// No cross-talk: each project's stats count only its own answers.
	if st := getStats(t, baseURL); st["answers"].(float64) != 1 || st["name"] != "default" {
		t.Fatalf("default project stats = %v", st)
	}
	tresp, err := http.Get(baseURL + "/v1/projects/imgs/stats")
	if err != nil {
		t.Fatal(err)
	}
	var tst map[string]any
	if err := json.NewDecoder(tresp.Body).Decode(&tst); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tst["answers"].(float64) != 2 || tst["name"] != "imgs" {
		t.Fatalf("tenant stats = %v", tst)
	}

	// The tenant has assignment endpoints; the default project does not.
	aresp, err := http.Get(baseURL + "/v1/projects/imgs/assign?worker=7")
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Errorf("tenant assign: HTTP %d, want 200", aresp.StatusCode)
	}
	dresp, err := http.Get(baseURL + defaultURL + "/assign?worker=7")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("default assign: HTTP %d, want 404 (no assignment configured)", dresp.StatusCode)
	}

	// The admin listing shows both, sorted by id.
	lresp, err := http.Get(baseURL + "/v1/admin/projects")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Projects []struct {
			ID string `json:"id"`
		} `json:"projects"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(listing.Projects) != 2 || listing.Projects[0].ID != "default" || listing.Projects[1].ID != "imgs" {
		t.Fatalf("admin listing = %+v", listing)
	}
}

// TestRunFailsFastOnBadProjectsFile is the table-driven error-path suite
// for daemon config parsing: every malformed -projects file must abort
// the boot with a readable error, never serve a half-configured daemon.
func TestRunFailsFastOnBadProjectsFile(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"unknown field":  `{"p1": {"method": "MV", "typo_knob": 3}}`,
		"unknown method": `{"p1": {"method": "Oops"}}`,
		"bad task type":  `{"p1": {"method": "MV", "task_type": "tabular"}}`,
		"type mismatch":  `{"p1": {"method": "Mean"}}`,
		"bad policy":     `{"p1": {"method": "MV", "assign": {"policy": "qasca"}}}`,
		"bad lease ttl":  `{"p1": {"method": "MV", "assign": {"policy": "random", "lease_ttl": "soon"}}}`,
		"bad id":         `{"p 1": {"method": "MV"}}`,
		"negative budget": `{"p1": {"method": "MV",
			"assign": {"policy": "random", "budget": -1}}}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			file := writeProjects(t, body)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err = run(ctx, config{projectsFile: file}, ln, nil)
			if err == nil {
				t.Fatalf("run accepted projects file %q", body)
			}
		})
	}
	t.Run("missing file", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		err = run(ctx, config{projectsFile: filepath.Join(t.TempDir(), "absent.json")}, ln, nil)
		if err == nil {
			t.Fatal("run accepted a missing projects file")
		}
	})
}

// TestServeErrorIsReturned pins the pre-fix failure mode: if the
// listener dies (rather than a signal arriving), run reports it instead
// of hanging.
func TestServeErrorIsReturned(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, config{}, ln, nil)
	}()
	waitHealthy(t, "http://"+ln.Addr().String())
	ln.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run returned nil after the listener died")
		}
		if !strings.Contains(err.Error(), "serve") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not notice the dead listener")
	}
}
