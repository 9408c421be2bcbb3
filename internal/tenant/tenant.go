// Package tenant is the multi-tenant layer of the serving stack: a
// Registry owns N independent crowdsourcing projects, each with its own
// answer store (own shard count), inference service (own method, seed
// and epoch configuration), optional assignment ledger (own policy and
// budget) and — when the registry is durable — its own write-ahead log
// namespace. A project is configured only by its Config: declared in
// the daemon's boot file, or created, listed and deleted at runtime
// through the admin API (http.go), and addressed as
// /v1/projects/{id}/.... No id is reserved.
//
// # Lock discipline
//
// The registry's RWMutex guards only the id → *Project map (plus the
// pending-id reservation set); every per-project structure (store
// shards, service epochs, ledger leases) keeps its own locks, and the
// slow halves of admin operations — WAL recovery and dataset preload on
// create, the epoch drain and namespace removal on delete — run outside
// the lock behind an id reservation, with manifest writes serialized by
// their own mutex. Request routing therefore costs one short RLock of
// the registry and then contends only within the addressed project —
// tenants never serialize against each other's traffic, which is the
// isolation property all future scale work (quotas, eviction,
// placement) builds on.
//
// # Durability layout
//
//	<root>/projects.json                   the manifest: id → Config for
//	                                       every project
//	<root>/projects/<id>/store.{wal,snap}  one namespace per project
//
// Recover opens every manifest project at boot (replaying each WAL on
// top of its snapshot) and warns about orphaned namespaces no manifest
// entry claims. It refuses a root that still holds the single-project
// layout of earlier releases, <root>/truthserve.{wal,snap}, and prints
// the commands that move it into a "default" project namespace.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ti "truthinference"
	"truthinference/internal/assign"
	"truthinference/internal/dataset"
	"truthinference/internal/query"
	"truthinference/internal/stream"
	"truthinference/internal/stream/wal"
	"truthinference/internal/telemetry"
)

// ErrNotFound is returned when a project id is not registered.
var ErrNotFound = errors.New("tenant: no such project")

// ErrExists is returned by Create for an already-registered id.
var ErrExists = errors.New("tenant: project id already exists")

// Project is one tenant: a store, a serving service, an optional
// assignment ledger and an optional durability layer.
type Project struct {
	id      string
	cfg     Config
	store   *stream.Store
	svc     *stream.Service
	persist *wal.Persister
	ledger  *assign.Ledger
	handler http.Handler

	closeOnce sync.Once
	closeErr  error
}

// ID returns the project id.
func (p *Project) ID() string { return p.id }

// Config returns the project's configuration.
func (p *Project) Config() Config { return p.cfg }

// Service returns the project's inference service.
func (p *Project) Service() *stream.Service { return p.svc }

// Store returns the project's answer store.
func (p *Project) Store() *stream.Store { return p.store }

// Ledger returns the project's assignment ledger (nil when the project
// has no assignment control plane).
func (p *Project) Ledger() *assign.Ledger { return p.ledger }

// Handler returns the project's HTTP API: the streaming endpoints plus,
// when assignment is configured, the ledger endpoints.
func (p *Project) Handler() http.Handler { return p.handler }

// Durable reports whether the project has a write-ahead log attached.
func (p *Project) Durable() bool { return p.persist != nil }

// Close drains the project, as the daemon does for every project on
// SIGTERM: finish the in-flight epoch and flush the WAL (Service.Close),
// compact a final snapshot, and close the log. Idempotent; later calls
// return the first result.
func (p *Project) Close() error {
	p.closeOnce.Do(func() {
		var errs []error
		if err := p.svc.Close(); err != nil {
			errs = append(errs, err)
		}
		if p.persist != nil {
			if err := p.persist.Snapshot(); err != nil {
				errs = append(errs, fmt.Errorf("tenant: final snapshot of %s: %w", p.id, err))
			}
			if err := p.persist.Close(); err != nil {
				errs = append(errs, fmt.Errorf("tenant: close WAL of %s: %w", p.id, err))
			}
		}
		p.closeErr = errors.Join(errs...)
	})
	return p.closeErr
}

// Info is one project's row in the admin listing: identity, serving
// stats, and the assignment stats when a ledger is configured.
type Info struct {
	ID      string        `json:"id"`
	Durable bool          `json:"durable"`
	Stats   stream.Stats  `json:"stats"`
	Assign  *assign.Stats `json:"assign,omitempty"`
}

// Info returns the project's live stats row.
func (p *Project) Info() Info {
	info := Info{ID: p.id, Durable: p.persist != nil, Stats: p.svc.Stats()}
	if p.ledger != nil {
		st := p.ledger.Stats()
		info.Assign = &st
	}
	return info
}

// openProject builds one tenant from its config. base is the durable
// file base path ("" = not durable; the registry namespaces it per
// project), and tel is the registry's shared metrics registry (nil =
// uninstrumented) the project's per-tenant instrument bundles register
// on. It fails fast on config errors, recovers (or builds) the store,
// attaches the service, publishes an initial result when the store has
// state, and mounts the ledger endpoints next to the streaming API.
func openProject(id string, cfg Config, base string, logger *slog.Logger, tel *telemetry.Registry) (*Project, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := ti.GetMethod(cfg.Method)
	if err != nil {
		return nil, err
	}
	logger = logger.With("tenant", id)

	// fresh builds the store the project starts from when there is no
	// durable state to recover. Deterministic across restarts — the WAL
	// replays on top of it.
	fresh := func() (*stream.Store, error) {
		if cfg.Data != "" {
			d, err := ti.LoadDataset(cfg.Data)
			if err != nil {
				return nil, fmt.Errorf("tenant: preload %s: %w", id, err)
			}
			d.Name = id // stores are named by project so stats self-describe
			logger.Info("preloaded dataset", "path", cfg.Data,
				"tasks", d.NumTasks, "workers", d.NumWorkers, "answers", len(d.Answers))
			return stream.NewStoreAt(d, 1, cfg.Shards), nil
		}
		typ, err := ParseTaskType(cfg.taskTypeOrDefault())
		if err != nil {
			return nil, err
		}
		return stream.NewStoreN(id, typ, cfg.choicesOrDefault(), cfg.Shards)
	}

	var store *stream.Store
	var persist *wal.Persister
	if base != "" {
		p, rec, err := wal.Open(base, fresh, wal.Options{
			SnapshotEvery: cfg.snapshotEvery(),
			Shards:        cfg.Shards,
			Metrics:       wal.NewMetrics(tel, id),
		})
		if err != nil {
			return nil, fmt.Errorf("tenant: recover %s: %w", id, err)
		}
		if rec.TailErr != nil {
			logger.Warn("WAL tail damaged, recovered the consistent prefix", "err", rec.TailErr)
		}
		tasks, workers, answers := rec.Store.Dims()
		logger.Info("recovered store",
			"version", rec.Store.Version(), "snapshot_version", rec.SnapshotVersion,
			"replayed", rec.Replayed, "tasks", tasks, "workers", workers, "answers", answers)
		// Snapshots written before the multi-tenant layer persisted the
		// old hardcoded store name; rename so stats (and every future
		// snapshot) self-describe with the project id.
		rec.Store.SetName(id)
		store, persist = rec.Store, p
	} else if store, err = fresh(); err != nil {
		return nil, err
	}
	// From here on, any failure must release the WAL file handle.
	fail := func(err error) (*Project, error) {
		if persist != nil {
			persist.Close()
		}
		return nil, err
	}

	par := cfg.Parallelism
	if par == 0 {
		par = ti.AutoParallelism
	}
	svcCfg := stream.Config{
		Method:      m,
		Options:     ti.Options{Seed: cfg.Seed, MaxIterations: cfg.MaxIter, Parallelism: par},
		ColdStart:   cfg.ColdStart,
		AutoRefresh: !cfg.NoAutoRefresh,
		Metrics:     stream.NewMetrics(tel, id, m.Name()),
	}
	if persist != nil {
		svcCfg.Persist = persist
	}
	if cfg.Limits != nil {
		svcCfg.Limits = *cfg.Limits
	}
	svc, err := stream.NewService(store, svcCfg)
	if err != nil {
		return fail(err)
	}
	if store.Version() > 0 {
		// Preloaded or recovered state: publish an initial result so the
		// API serves immediately instead of 409ing until the first batch.
		if err := svc.Refresh(); err != nil {
			svc.Close()
			return fail(fmt.Errorf("tenant: initial inference of %s: %w", id, err))
		}
		st := svc.Stats()
		logger.Info("initial epoch published",
			"method", st.Method, "iterations", st.Iterations, "converged", st.Converged)
	}

	p := &Project{id: id, cfg: cfg, store: store, svc: svc, persist: persist}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	if cfg.Assign != nil {
		ledger, err := cfg.Assign.Ledger(svc, cfg.Seed, assign.NewMetrics(tel, id))
		if err != nil {
			svc.Close()
			return fail(err)
		}
		// Completed assignments land in the store as one-answer batches;
		// Complete holds the ledger lock across the ingest so a lease is
		// consumed exactly when its answer is committed. A delivery that
		// loses the race with project deletion is marked so the HTTP
		// layer answers 410 like every other mutation on a deleted
		// project.
		assignAPI := assign.Handler(ledger, func(task, worker int, value float64) (uint64, error) {
			v, err := svc.Ingest(stream.Batch{Answers: []dataset.Answer{
				{Task: task, Worker: worker, Value: value},
			}})
			if errors.Is(err, stream.ErrClosed) {
				err = fmt.Errorf("%w: %v", assign.ErrStoreClosed, err)
			}
			return v, err
		})
		for _, pattern := range []string{"GET /v1/assign", "POST /v1/complete", "GET /v1/assignstats"} {
			mux.Handle(pattern, assignAPI)
		}
		p.ledger = ledger
		logger.Info("assignment enabled",
			"policy", ledger.Policy().Name(), "redundancy", ledger.Stats().Redundancy,
			"budget", cfg.Assign.Budget, "lease_ttl", time.Duration(cfg.Assign.LeaseTTL))
	}
	// The relational query plane is mounted on every project; without a
	// ledger the lease/budget relations just report as unavailable. The
	// typed-nil dance keeps the query.Ledger interface genuinely nil.
	var ql query.Ledger
	if p.ledger != nil {
		ql = p.ledger
	}
	mux.Handle("POST /v1/query", query.NewHandler(svc, ql, query.NewMetrics(tel, id)))
	p.handler = mux
	logger.Info("serving", "method", m.Name(), "warm_start", !cfg.ColdStart,
		"auto_refresh", !cfg.NoAutoRefresh, "shards", store.Shards(), "durable", persist != nil)
	return p, nil
}

// Registry owns the live projects of one daemon, plus the daemon-wide
// telemetry registry every project's instrument bundles register on.
type Registry struct {
	root   string // durable root directory; "" = memory-only
	logger *slog.Logger

	tel        *telemetry.Registry
	httpMetric *telemetry.HTTPMetrics
	readyGauge *telemetry.Gauge
	ready      atomic.Bool

	// SlowRequest is the latency above which the HTTP middleware logs a
	// request as slow (0 disables). Set it before calling Handler.
	SlowRequest time.Duration

	mu       sync.RWMutex
	projects map[string]*Project
	// pending reserves ids whose slow work (WAL recovery on create,
	// drain + namespace removal on delete) runs outside the lock, so a
	// concurrent create of the same id cannot collide on disk — and a
	// half-deleted namespace can never be resurrected as a "new" project.
	pending map[string]struct{}
	closed  bool

	// manifestMu serializes read-modify-write cycles on projects.json
	// (manifest writes happen outside r.mu so slow admin operations do
	// not stall routing).
	manifestMu sync.Mutex
}

// NewRegistry builds an empty registry. root is the durable root
// directory (the daemon's -wal-dir; "" disables durability for every
// project). logger receives structured operational logging; nil
// discards it.
func NewRegistry(root string, logger *slog.Logger) *Registry {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	tel := telemetry.NewRegistry()
	return &Registry{
		root:       root,
		logger:     logger,
		tel:        tel,
		httpMetric: telemetry.NewHTTPMetrics(tel, "truthserve"),
		readyGauge: tel.Gauge("truthserve_ready",
			"1 once boot-time recovery of every tenant namespace completed.").With(),
		projects: map[string]*Project{},
		pending:  map[string]struct{}{},
	}
}

// Telemetry returns the daemon-wide metrics registry (for mounting the
// scrape on auxiliary listeners, e.g. the pprof debug mux).
func (r *Registry) Telemetry() *telemetry.Registry { return r.tel }

// SetReady marks boot-time recovery complete: GET /v1/readyz starts
// answering 200 and the truthserve_ready gauge flips to 1. The daemon
// calls it once Recover and the boot-file creates have finished.
func (r *Registry) SetReady() {
	r.ready.Store(true)
	r.readyGauge.Set(1)
}

// Ready reports whether SetReady has been called.
func (r *Registry) Ready() bool { return r.ready.Load() }

// Durable reports whether the registry persists project state.
func (r *Registry) Durable() bool { return r.root != "" }

// manifestPath is the on-disk index of every project.
func (r *Registry) manifestPath() string { return filepath.Join(r.root, "projects.json") }

// projectsDir holds one namespace directory per project.
func (r *Registry) projectsDir() string { return filepath.Join(r.root, "projects") }

// baseFor returns the durable file base for a project ("" when the
// registry is memory-only), creating its namespace directory.
func (r *Registry) baseFor(id string) (string, error) {
	if r.root == "" {
		return "", nil
	}
	dir, err := wal.NamespaceDir(r.projectsDir(), id)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, "store"), nil
}

// reserve claims id for a slow create/delete. It fails if the id is
// live, already reserved, or the registry is closed.
func (r *Registry) reserve(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errors.New("tenant: registry is closed")
	}
	if _, ok := r.projects[id]; ok {
		return fmt.Errorf("%w: %q", ErrExists, id)
	}
	if _, ok := r.pending[id]; ok {
		return fmt.Errorf("%w: %q (operation in progress)", ErrExists, id)
	}
	r.pending[id] = struct{}{}
	return nil
}

// release drops a reservation, optionally publishing a project in the
// same critical section. If the registry was closed while the slow
// create ran, the project is closed instead of published.
func (r *Registry) release(id string, publish *Project) {
	r.mu.Lock()
	closed := r.closed
	if publish != nil && !closed {
		r.projects[id] = publish
	}
	delete(r.pending, id)
	r.mu.Unlock()
	if publish != nil && closed {
		publish.Close()
	}
}

// Create registers a new project under id and, when durable, records it
// in the manifest so the next boot recovers it. The slow work (WAL
// recovery, dataset preload, initial inference) runs outside the
// registry lock — only the id reservation and the final publish take
// it, so an expensive create never stalls other tenants' routing.
func (r *Registry) Create(id string, cfg Config) (*Project, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	if err := r.reserve(id); err != nil {
		return nil, err
	}
	// Refuse to adopt an orphaned namespace: durable state under this id
	// that no manifest entry claims (a half-deleted project, or an
	// operator restore) must never silently become the "new" project's
	// store — wal.Open would recover the old answers under the new
	// config. The in-memory reservation below covers the same race
	// within one process lifetime; this check covers restarts.
	if r.root != "" {
		orphans, err := wal.Namespaces(r.projectsDir())
		if err != nil {
			// Cannot prove the namespace is clean — refuse rather than
			// risk adopting a previous tenant's data.
			r.release(id, nil)
			return nil, fmt.Errorf("tenant: cannot scan %s for orphaned state: %w", r.projectsDir(), err)
		}
		for _, o := range orphans {
			if o == id {
				r.release(id, nil)
				return nil, fmt.Errorf("tenant: namespace %q already holds durable state no manifest entry claims — remove %s to reuse the id",
					id, filepath.Join(r.projectsDir(), id))
			}
		}
	}
	// abort cleans up a failed create: the orphan check above proved the
	// namespace held no durable state before this attempt, so whatever
	// this attempt wrote (an empty WAL, a final snapshot from the abort
	// close) is removed — otherwise the failed create would trip the
	// orphan guard forever and brick the id.
	abort := func(err error) (*Project, error) {
		if r.root != "" {
			if dir, derr := wal.NamespaceDir(r.projectsDir(), id); derr == nil {
				os.RemoveAll(dir)
			}
		}
		r.release(id, nil)
		return nil, err
	}
	base, err := r.baseFor(id)
	if err != nil {
		return abort(err)
	}
	p, err := openProject(id, cfg, base, r.logger, r.tel)
	if err != nil {
		return abort(err)
	}
	if r.root != "" {
		if err := r.writeManifest(func(m map[string]Config) { m[id] = cfg }); err != nil {
			p.Close()
			return abort(err)
		}
	}
	r.release(id, p)
	return p, nil
}

// Delete closes a project, removes it from the manifest, and deletes its
// durable namespace. In-flight requests against the project finish
// against its closed service (mutations get ErrClosed → HTTP 410). The
// drain and directory removal run outside the registry lock; the id
// stays reserved meanwhile, and — if removing the durable state fails —
// stays reserved for the registry's lifetime, so a later create of the
// same id can never boot on top of the half-deleted project's data.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	p, ok := r.projects[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(r.projects, id) // routing stops now
	r.pending[id] = struct{}{}
	r.mu.Unlock()

	// A close error does not abort the delete (the operator asked for
	// the project to go away).
	if err := p.Close(); err != nil {
		r.logger.Warn("close during delete", "tenant", id, "err", err)
	}
	if r.root != "" {
		if err := r.writeManifest(func(m map[string]Config) { delete(m, id) }); err != nil {
			return err // id stays reserved
		}
		if dir, err := wal.NamespaceDir(r.projectsDir(), id); err == nil {
			if err := os.RemoveAll(dir); err != nil {
				return fmt.Errorf("tenant: remove durable state of %q (id stays reserved): %w", id, err)
			}
		}
	}
	r.release(id, nil)
	return nil
}

// Get returns a live project by id.
func (r *Registry) Get(id string) (*Project, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.projects[id]
	return p, ok
}

// List returns every live project's info row, sorted by id.
func (r *Registry) List() []Info {
	r.mu.RLock()
	projects := make([]*Project, 0, len(r.projects))
	for _, p := range r.projects {
		projects = append(projects, p)
	}
	r.mu.RUnlock()
	sort.Slice(projects, func(i, j int) bool { return projects[i].id < projects[j].id })
	out := make([]Info, len(projects))
	for i, p := range projects {
		out[i] = p.Info()
	}
	return out
}

// legacyDefaultEntry is the manifest entry the legacy-layout migration
// asks for: the config the single-project daemon's flag defaults built.
const legacyDefaultEntry = `"default": {"method": "D&S", "seed": 1}`

// refuseLegacyLayout fails when root still holds the single-project
// layout of earlier releases, <root>/truthserve.{wal,snap}, and names
// the exact steps that make it the namespace of a project "default".
// The manifest entry is part of the steps because Create refuses a
// namespace no manifest entry claims.
func (r *Registry) refuseLegacyLayout() error {
	dir := filepath.Join(r.projectsDir(), "default")
	var moves []string
	for _, ext := range []string{"wal", "snap"} {
		old := filepath.Join(r.root, "truthserve."+ext)
		if _, err := os.Stat(old); err == nil {
			moves = append(moves, fmt.Sprintf("  mv %s %s", old, filepath.Join(dir, "store."+ext)))
		}
	}
	if len(moves) == 0 {
		return nil
	}
	return fmt.Errorf("tenant: %s holds the single-project layout truthserve.{wal,snap}, which is no longer read; to serve it as the project \"default\", run\n"+
		"  mkdir -p %s\n%s\n"+
		"then add this entry to the JSON object in %s (create the file as {} if it is missing), with the method and settings the old flags gave:\n  %s",
		r.root, dir, strings.Join(moves, "\n"), r.manifestPath(), legacyDefaultEntry)
}

// Recover opens every project the manifest records (replaying each WAL
// namespace on top of its snapshot) and warns about orphaned namespaces
// the manifest does not claim. A memory-only registry recovers nothing.
func (r *Registry) Recover() error {
	if r.root == "" {
		return nil
	}
	if err := r.refuseLegacyLayout(); err != nil {
		return err
	}
	manifest, err := r.readManifest()
	if err != nil {
		return err
	}
	ids := make([]string, 0, len(manifest))
	for id := range manifest {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		cfg := manifest[id]
		base, err := r.baseFor(id)
		if err != nil {
			return err
		}
		p, err := openProject(id, cfg, base, r.logger, r.tel)
		if err != nil {
			return fmt.Errorf("tenant: recover project %q: %w", id, err)
		}
		r.mu.Lock()
		if _, ok := r.projects[id]; ok {
			r.mu.Unlock()
			p.Close()
			continue
		}
		r.projects[id] = p
		r.mu.Unlock()
	}
	// Orphan check: durable namespaces no manifest entry claims are left
	// in place (they may be a half-deleted project or an operator
	// restore) but loudly reported.
	if spaces, err := wal.Namespaces(r.projectsDir()); err == nil {
		for _, id := range spaces {
			if _, ok := manifest[id]; !ok {
				r.logger.Warn("orphaned durable namespace (no manifest entry) — not recovered", "namespace", id)
			}
		}
	}
	return nil
}

// Close drains every project concurrently (each close finishes its
// in-flight epoch, compacts a final snapshot and closes its WAL — the
// per-tenant fan-out of the daemon's graceful SIGTERM drain) and returns
// the joined errors.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	projects := make([]*Project, 0, len(r.projects))
	for _, p := range r.projects {
		projects = append(projects, p)
	}
	r.mu.Unlock()

	errs := make([]error, len(projects))
	var wg sync.WaitGroup
	for i, p := range projects {
		wg.Add(1)
		go func(i int, p *Project) {
			defer wg.Done()
			if err := p.Close(); err != nil {
				errs[i] = fmt.Errorf("tenant %s: %w", p.id, err)
			}
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// readManifest loads the manifest, treating a missing file as empty. It
// decodes with DecodeProjects, the boot file's and admin API's strict
// decoder, so a hand-edited entry with an unknown field fails instead of
// being dropped.
func (r *Registry) readManifest() (map[string]Config, error) {
	data, err := os.ReadFile(r.manifestPath())
	if os.IsNotExist(err) {
		return map[string]Config{}, nil
	}
	if err != nil {
		return nil, err
	}
	m, err := DecodeProjects(data)
	if err != nil {
		return nil, fmt.Errorf("tenant: manifest %s: %w", r.manifestPath(), err)
	}
	return m, nil
}

// writeManifest applies mutate to the on-disk manifest and writes it
// back atomically (tmp + rename); manifestMu serializes the
// read-modify-write cycle.
func (r *Registry) writeManifest(mutate func(map[string]Config)) error {
	r.manifestMu.Lock()
	defer r.manifestMu.Unlock()
	m, err := r.readManifest()
	if err != nil {
		return err
	}
	mutate(m)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.root, 0o755); err != nil {
		return err
	}
	tmp := r.manifestPath() + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, r.manifestPath()); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
