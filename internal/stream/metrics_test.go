package stream

import (
	"errors"
	"testing"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/methods/ds"
	"truthinference/internal/telemetry"
	"truthinference/internal/testutil"
)

// failingMethod fails its next Infer when fail is set, then serves the
// wrapped method again.
type failingMethod struct {
	core.Method
	fail bool
}

func (m *failingMethod) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if m.fail {
		m.fail = false
		return nil, errors.New("injected epoch failure")
	}
	return m.Method.Infer(d, opts)
}

// TestEpochFailuresCounted pins that a failed epoch is counted on
// truthserve_epoch_failures_total as well as kept in Stats.LastError, and
// that the next good epoch clears LastError but leaves the count.
func TestEpochFailuresCounted(t *testing.T) {
	d := testutil.Categorical(testutil.CrowdSpec{NumTasks: 20, NumWorkers: 5, Redundancy: 3, Seed: 1})
	store, err := NewStore(d.Name, d.Type, d.NumChoices)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m := &failingMethod{Method: ds.New(), fail: true}
	svc, err := NewService(store, Config{Method: m, Metrics: NewMetrics(reg, "t1", m.Name())})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	failures := reg.Counter("truthserve_epoch_failures_total", "", "tenant", "method").With("t1", m.Name())

	if _, err := svc.Ingest(splitBatches(d, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Refresh(); err == nil {
		t.Fatal("refresh over a failing method succeeded")
	}
	if got := failures.Value(); got != 1 {
		t.Errorf("epoch failures = %d after one failed epoch, want 1", got)
	}
	if svc.Stats().LastError == "" {
		t.Error("Stats.LastError empty after a failed epoch")
	}

	if err := svc.Refresh(); err != nil {
		t.Fatalf("second epoch: %v", err)
	}
	if got := failures.Value(); got != 1 {
		t.Errorf("epoch failures = %d after a good epoch, want still 1", got)
	}
	if st := svc.Stats(); st.LastError != "" || st.Epochs != 1 {
		t.Errorf("after a good epoch: LastError %q, %d epochs; want empty and 1", st.LastError, st.Epochs)
	}
}

// TestEpochConvergenceMetrics pins the convergence series: an epoch
// capped at one D&S iteration lands one observation of 1 in
// truthserve_epoch_iterations and counts on
// truthserve_epoch_nonconverged_total.
func TestEpochConvergenceMetrics(t *testing.T) {
	d := testutil.Categorical(testutil.CrowdSpec{NumTasks: 20, NumWorkers: 5, Redundancy: 3, Seed: 1})
	store, err := NewStore(d.Name, d.Type, d.NumChoices)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m := ds.New()
	svc, err := NewService(store, Config{Method: m, Options: core.Options{MaxIterations: 1},
		Metrics: NewMetrics(reg, "t1", m.Name())})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	if _, err := svc.Ingest(splitBatches(d, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Converged || st.Iterations != 1 {
		t.Fatalf("capped epoch: converged %v after %d iterations, want false after 1", st.Converged, st.Iterations)
	}
	iters := reg.Histogram("truthserve_epoch_iterations", "", iterationBuckets, "tenant", "method").With("t1", m.Name())
	if iters.Count() != 1 || iters.Sum() != 1 {
		t.Errorf("epoch_iterations: count %d, sum %v; want 1 and 1", iters.Count(), iters.Sum())
	}
	nonConverged := reg.Counter("truthserve_epoch_nonconverged_total", "", "tenant", "method").With("t1", m.Name())
	if got := nonConverged.Value(); got != 1 {
		t.Errorf("epoch_nonconverged_total = %d, want 1", got)
	}
}
