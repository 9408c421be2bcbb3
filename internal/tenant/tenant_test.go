package tenant

import (
	"bytes"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"truthinference/internal/assign"
	"truthinference/internal/dataset"
	"truthinference/internal/stream"
	"truthinference/internal/stream/wal"
	"truthinference/internal/testutil"
)

func mustCreate(t *testing.T, r *Registry, id string, cfg Config) *Project {
	t.Helper()
	p, err := r.Create(id, cfg)
	if err != nil {
		t.Fatalf("create %s: %v", id, err)
	}
	return p
}

func TestRegistryCreateGetDelete(t *testing.T) {
	r := NewRegistry("", nil)
	defer r.Close()
	mustCreate(t, r, "default", Config{Method: "MV"})
	p := mustCreate(t, r, "alpha", Config{Method: "Mean", TaskType: "numeric", Seed: 7})

	if got, ok := r.Get("alpha"); !ok || got != p {
		t.Fatalf("Get(alpha) = %v, %v", got, ok)
	}
	if p.Store().Name() != "alpha" || p.Store().TaskType().String() == "" {
		t.Errorf("store not named by project: %q", p.Store().Name())
	}
	if p.Service().Stats().Name != "alpha" {
		t.Errorf("per-tenant stats name = %q, want alpha", p.Service().Stats().Name)
	}

	infos := r.List()
	if len(infos) != 2 || infos[0].ID != "alpha" || infos[1].ID != "default" {
		t.Fatalf("List = %+v", infos)
	}

	if err := r.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("alpha"); ok {
		t.Fatal("alpha still registered after delete")
	}
	if err := r.Delete("alpha"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	// "default" is an ordinary id: no reservation, no undeletable project.
	if err := r.Delete("default"); err != nil {
		t.Fatalf("delete default: %v", err)
	}
}

func TestRegistryRejectsBadCreates(t *testing.T) {
	r := NewRegistry("", nil)
	defer r.Close()
	cases := []struct {
		id  string
		cfg Config
	}{
		{"ok-id", Config{Method: "Oops"}},                       // unknown method
		{"ok-id", Config{Method: "Mean"}},                       // Mean cannot serve decision
		{"ok-id", Config{Method: "MV", TaskType: "tabular"}},    // unknown type
		{"ok-id", Config{Method: "MV", Choices: -1}},            // negative choices
		{"ok-id", Config{Method: "MV", Shards: -1}},             // negative shards
		{"../up", Config{Method: "MV"}},                         // traversal id
		{"Has Space", Config{Method: "MV"}},                     // bad id chars
		{"", Config{Method: "MV"}},                              // empty id
		{"ok-id", Config{Method: "MV", Assign: &assign.Spec{}}}, // no policy
		{"ok-id", Config{Method: "MV", Assign: &assign.Spec{Policy: "qasca"}}},
		{"ok-id", Config{Method: "MV", Assign: &assign.Spec{Policy: "random", Redundancy: -2}}},
		{"ok-id", Config{Method: "MV", Assign: &assign.Spec{Policy: "random", PriorQuality: 1.5}}},
	}
	for _, c := range cases {
		if _, err := r.Create(c.id, c.cfg); err == nil {
			t.Errorf("Create(%q, %+v) accepted", c.id, c.cfg)
		}
	}
	if len(r.List()) != 0 {
		t.Fatalf("rejected creates leaked projects: %+v", r.List())
	}
}

func TestRegistryDuplicateCreate(t *testing.T) {
	r := NewRegistry("", nil)
	defer r.Close()
	mustCreate(t, r, "p1", Config{Method: "MV"})
	if _, err := r.Create("p1", Config{Method: "MV"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
}

// TestManifestPersistsProjects checks the durable half of the registry:
// Create records the project in the manifest, Recover reopens it with
// its config intact, and Delete removes both the manifest entry and the
// namespace directory.
func TestManifestPersistsProjects(t *testing.T) {
	root := t.TempDir()
	r := NewRegistry(root, testutil.Logger(t))
	cfg := Config{Method: "MV", TaskType: "single-choice", Choices: 4, Seed: 9,
		Assign: &assign.Spec{Policy: "least-answered", Redundancy: 2}}
	p := mustCreate(t, r, "imgs", cfg)
	if !p.Durable() {
		t.Fatal("project under a durable registry is not durable")
	}
	if _, err := p.Service().Ingest(stream.Batch{NumTasks: 5, NumWorkers: 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := NewRegistry(root, testutil.Logger(t))
	defer r2.Close()
	if err := r2.Recover(); err != nil {
		t.Fatal(err)
	}
	p2, ok := r2.Get("imgs")
	if !ok {
		t.Fatal("manifest project not recovered")
	}
	if got := p2.Config(); got.Method != "MV" || got.TaskType != "single-choice" || got.Choices != 4 || got.Seed != 9 ||
		got.Assign == nil || got.Assign.Policy != "least-answered" {
		t.Fatalf("recovered config = %+v", got)
	}
	if tasks, workers, _ := p2.Store().Dims(); tasks != 5 || workers != 3 {
		t.Fatalf("recovered dims = %d×%d, want 5×3", tasks, workers)
	}
	if p2.Ledger() == nil {
		t.Fatal("recovered project lost its ledger")
	}

	dir := filepath.Join(root, "projects", "imgs")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("namespace dir missing before delete: %v", err)
	}
	if err := r2.Delete("imgs"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("namespace dir survived delete: %v", err)
	}
	// A third boot recovers nothing.
	r3 := NewRegistry(root, testutil.Logger(t))
	defer r3.Close()
	if err := r3.Recover(); err != nil {
		t.Fatal(err)
	}
	if n := len(r3.List()); n != 0 {
		t.Fatalf("deleted project recovered: %d projects", n)
	}
}

// TestDeletedProjectRejectsMutations pins the lifecycle contract: after
// Delete, in-flight handles keep reading but Ingest/Refresh report
// stream.ErrClosed.
func TestDeletedProjectRejectsMutations(t *testing.T) {
	r := NewRegistry("", nil)
	defer r.Close()
	p := mustCreate(t, r, "doomed", Config{Method: "MV"})
	if _, err := p.Service().Ingest(stream.Batch{NumTasks: 2, NumWorkers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Service().Ingest(stream.Batch{NumTasks: 3}); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("ingest after delete: %v, want stream.ErrClosed", err)
	}
	if err := p.Service().Refresh(); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("refresh after delete: %v, want stream.ErrClosed", err)
	}
	// Reads still serve the last published state.
	if _, _, err := p.Service().Truths(); err != nil {
		t.Fatalf("read after delete: %v", err)
	}
	// Close is idempotent.
	if err := p.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestCreateRefusesOrphanedNamespace: durable state under an id no
// manifest entry claims (half-deleted project, operator restore) must
// never be silently adopted as a "new" project's store.
func TestCreateRefusesOrphanedNamespace(t *testing.T) {
	root := t.TempDir()
	orphan := filepath.Join(root, "projects", "ghost")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "store.wal"), []byte("old data"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(root, testutil.Logger(t))
	defer r.Close()
	if _, err := r.Create("ghost", Config{Method: "MV"}); err == nil || !strings.Contains(err.Error(), "durable state") {
		t.Fatalf("Create adopted an orphaned namespace: %v", err)
	}
	// Removing the orphan frees the id.
	if err := os.RemoveAll(orphan); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, r, "ghost", Config{Method: "MV"})
}

// TestFailedCreateDoesNotBrickID: a durable create that fails after the
// WAL namespace was initialized must clean its artifacts up, so a retry
// of the same id (with a fixed config) succeeds instead of tripping the
// orphan guard forever.
func TestFailedCreateDoesNotBrickID(t *testing.T) {
	dataDir := t.TempDir()
	base := filepath.Join(dataDir, "crowd")
	if err := dataset.SaveFiles(base, testutil.Categorical(testutil.CrowdSpec{
		NumTasks: 4, NumWorkers: 3, NumChoices: 2, Redundancy: 2, Seed: 1,
	})); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	r := NewRegistry(root, testutil.Logger(t))
	defer r.Close()
	// Mean cannot serve the decision dataset; with Data set the mismatch
	// surfaces at open time, after wal.Open touched the namespace.
	if _, err := r.Create("retry", Config{Method: "Mean", Data: base}); err == nil {
		t.Fatal("mismatched preload accepted")
	}
	if _, err := os.Stat(filepath.Join(root, "projects", "retry")); !os.IsNotExist(err) {
		t.Fatalf("failed create left namespace artifacts: %v", err)
	}
	p := mustCreate(t, r, "retry", Config{Method: "MV", Data: base})
	if _, _, answers := p.Store().Dims(); answers == 0 {
		t.Fatal("retried create did not preload the dataset")
	}
}

// TestBudgetChargedAcrossRestart: a durable project's answer budget caps
// the store's total answers — after a restart the recovered answers are
// charged against it, so the cap cannot silently reset.
func TestBudgetChargedAcrossRestart(t *testing.T) {
	root := t.TempDir()
	cfg := Config{Method: "MV",
		Assign: &assign.Spec{Policy: "random", Redundancy: 1, Budget: 3}}
	r := NewRegistry(root, testutil.Logger(t))
	p := mustCreate(t, r, "capped", cfg)
	if _, err := p.Service().Ingest(stream.Batch{
		Answers:  []dataset.Answer{{Task: 0, Worker: 0, Value: 1}, {Task: 1, Worker: 0, Value: 1}},
		NumTasks: 4, NumWorkers: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := NewRegistry(root, testutil.Logger(t))
	defer r2.Close()
	if err := r2.Recover(); err != nil {
		t.Fatal(err)
	}
	p2, _ := r2.Get("capped")
	if st := p2.Ledger().Stats(); st.BudgetRemaining != 1 {
		t.Fatalf("recovered ledger: remaining=%d, want 1 (3 budget − 2 recovered answers)", st.BudgetRemaining)
	}
	// The accounting is continuous: a direct ingest mid-run spends
	// budget exactly like a recovered or routed answer.
	if _, err := p2.Service().Ingest(stream.Batch{
		Answers: []dataset.Answer{{Task: 2, Worker: 1, Value: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	if st := p2.Ledger().Stats(); st.BudgetRemaining != 0 {
		t.Fatalf("after direct ingest: remaining=%d, want 0", st.BudgetRemaining)
	}
	if _, err := p2.Ledger().Assign(2); err != assign.ErrBudgetExhausted {
		t.Fatalf("assign beyond store-total budget: %v, want ErrBudgetExhausted", err)
	}
}

// TestLegacySnapshotRenamedToProjectID walks the legacy-layout
// migration. Recover refuses a root that still holds the single-project
// <root>/truthserve.snap and prints the steps; after exactly those
// steps, the snapshot serves as the project "default". Snapshots of
// that era also persisted the old hardcoded store name ("live"), so
// recovery must rename the store to its project id for stats (and
// future snapshots) to self-describe.
func TestLegacySnapshotRenamedToProjectID(t *testing.T) {
	root := t.TempDir()
	d, err := dataset.New("live", dataset.Decision, 2, 2, 2,
		[]dataset.Answer{{Task: 0, Worker: 0, Value: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(root, "truthserve.snap")
	if err := wal.WriteSnapshot(legacy, d, 1); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(root, testutil.Logger(t))
	err = r.Recover()
	r.Close()
	if err == nil {
		t.Fatal("Recover accepted the legacy layout")
	}
	dir := filepath.Join(root, "projects", "default")
	manifest := filepath.Join(root, "projects.json")
	for _, step := range []string{
		"mkdir -p " + dir,
		"mv " + legacy + " " + filepath.Join(dir, "store.snap"),
		manifest,
		legacyDefaultEntry,
	} {
		if !strings.Contains(err.Error(), step) {
			t.Errorf("error does not print %q:\n%v", step, err)
		}
	}
	// Only the files that exist get a mv: no truthserve.wal was written.
	if strings.Contains(err.Error(), "truthserve.wal ") {
		t.Errorf("error moves a truthserve.wal that does not exist:\n%v", err)
	}

	// Run exactly those steps.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(legacy, filepath.Join(dir, "store.snap")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, []byte("{"+legacyDefaultEntry+"}"), 0o644); err != nil {
		t.Fatal(err)
	}
	r = NewRegistry(root, testutil.Logger(t))
	defer r.Close()
	if err := r.Recover(); err != nil {
		t.Fatalf("Recover after the migration steps: %v", err)
	}
	p, ok := r.Get("default")
	if !ok {
		t.Fatal("migrated project default not recovered")
	}
	if got := p.Service().Stats().Name; got != "default" {
		t.Fatalf("recovered legacy store reports name %q, want %q", got, "default")
	}
	if v := p.Store().Version(); v != 1 {
		t.Fatalf("migrated store at version %d, want the snapshot's 1", v)
	}
	if _, _, answers := p.Store().Dims(); answers != 1 {
		t.Fatalf("legacy snapshot data lost: %d answers", answers)
	}
}

// TestRecoverRejectsUnknownManifestField: the manifest is decoded as
// strictly as the boot file and the admin API, so a misspelled or
// retired field in a hand-edited entry fails the boot and is named,
// instead of being dropped silently.
func TestRecoverRejectsUnknownManifestField(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "projects.json"),
		[]byte(`{"p1": {"method": "MV", "assign": {"policy": "random", "no_charge_existing": true}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(root, testutil.Logger(t))
	defer r.Close()
	err := r.Recover()
	if err == nil || !strings.Contains(err.Error(), `"no_charge_existing"`) {
		t.Fatalf("Recover with an unknown manifest field: %v, want an error naming it", err)
	}
	if len(r.List()) != 0 {
		t.Fatalf("rejected manifest recovered projects: %+v", r.List())
	}
}

// TestRecoverWarnsAboutOrphans: a namespace directory no manifest entry
// claims is reported but not destroyed.
func TestRecoverWarnsAboutOrphans(t *testing.T) {
	root := t.TempDir()
	orphan := filepath.Join(root, "projects", "ghost")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "store.wal"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	r := NewRegistry(root, slog.New(slog.NewTextHandler(&logs, nil)))
	defer r.Close()
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "orphaned") {
		t.Fatalf("no orphan warning in %q", logs.String())
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("orphan was destroyed: %v", err)
	}
}

func TestDecodeConfigErrors(t *testing.T) {
	cases := map[string]string{
		"not json":      `nope`,
		"unknown field": `{"method":"MV","wat":1}`,
		"bad method":    `{"method":"Oops"}`,
		"bad duration":  `{"method":"MV","assign":{"policy":"random","lease_ttl":"soonish"}}`,
		"duration type": `{"method":"MV","assign":{"policy":"random","lease_ttl":true}}`,
	}
	for name, body := range cases {
		if _, err := DecodeConfig([]byte(body)); err == nil {
			t.Errorf("%s: DecodeConfig(%q) accepted", name, body)
		}
	}
	cfg, err := DecodeConfig([]byte(`{"method":"MV","assign":{"policy":"random","lease_ttl":"90s"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Assign.LeaseTTL; int64(got) != 90e9 {
		t.Fatalf("lease_ttl = %v, want 90s", got)
	}
}

func TestSnapshotEveryTriState(t *testing.T) {
	if got := (Config{}).snapshotEvery(); got != DefaultSnapshotEvery {
		t.Errorf("default snapshotEvery = %d", got)
	}
	if got := (Config{SnapshotEvery: -1}).snapshotEvery(); got != 0 {
		t.Errorf("disabled snapshotEvery = %d, want 0", got)
	}
	if got := (Config{SnapshotEvery: 7}).snapshotEvery(); got != 7 {
		t.Errorf("explicit snapshotEvery = %d, want 7", got)
	}
}
