package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ti "truthinference"
	"truthinference/internal/api"
	"truthinference/internal/assign"
	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/query"
	"truthinference/internal/stream"
	"truthinference/internal/stream/wal"
	"truthinference/internal/telemetry"
	"truthinference/internal/tenant"
)

// project is one truthserve tenant under load: the URL its API is served
// at, plus the in-process handles the output checks read.
type project struct {
	base   string
	hc     *http.Client
	svc    *stream.Service
	ledger *assign.Ledger
	dir    string // durable namespace directory ("" = memory-only)
	hand   *hand  // non-nil on the traced wiring
	close  func() error
}

// projectID names the one tenant each benchmark daemon serves.
const projectID = "bench"

// openProject boots a daemon and creates the benchmark tenant in it. root
// is the durable root ("" = memory-only). Without a tracer the tenant is
// served exactly as truthserve serves it: tenant.Registry.Handler() and a
// create through the admin API. With one, it is wired by hand (see
// openTraced).
func openProject(root string, cfg tenant.Config, tr *Tracer) (*project, error) {
	if tr != nil {
		return openTraced(root, cfg, tr)
	}
	reg := tenant.NewRegistry(root, nil)
	srv := httptest.NewServer(reg.Handler())
	reg.SetReady()
	p := &project{base: srv.URL + "/v1/projects/" + projectID, hc: newHTTPClient(), close: func() error {
		srv.Close()
		return reg.Close()
	}}
	raw, err := json.Marshal(cfg)
	if err == nil {
		body, _ := json.Marshal(api.CreateProjectRequest{ID: projectID, Config: raw})
		err = call(p.hc, "POST", srv.URL+"/v1/admin/projects", "application/json", body, nil)
	}
	if err != nil {
		p.close()
		return nil, fmt.Errorf("create project: %w", err)
	}
	tp, _ := reg.Get(projectID)
	p.svc, p.ledger = tp.Service(), tp.Ledger()
	if root != "" {
		p.dir = filepath.Join(root, "projects", projectID)
	}
	return p, nil
}

// hand is the traced wiring of one tenant. It builds the same store,
// service, WAL and ledger that tenant.Registry builds, but hands the
// service a tracedMethod and a tracedPersister, serves the routes whose
// inner calls are timed through the handlers below, and drives epochs
// from its own refresher so each Service.Refresh call can be spanned.
type hand struct {
	tr     *Tracer
	svc    *stream.Service
	ledger *assign.Ledger
	method *tracedMethod

	// ingestMu is held around Service.Ingest, which serializes on its own
	// ingest lock anyway, so the wal.append span knows its parent.
	ingestMu     sync.Mutex
	appendParent atomic.Uint64
	epoch        atomic.Uint64 // the epoch.total span in flight

	kick    chan struct{} // capacity 1: a batch during an epoch queues one more
	stopped chan struct{}
	epochs  int // epochs that ran Infer; refresher goroutine only

	mu         sync.Mutex
	watermarks map[uint64]bool // durable watermarks seen by acks
	acks       int
}

func openTraced(root string, cfg tenant.Config, tr *Tracer) (*project, error) {
	m, err := ti.GetMethod(cfg.Method)
	if err != nil {
		return nil, err
	}
	typ, err := tenant.ParseTaskType(orDefault(cfg.TaskType, "decision"))
	if err != nil {
		return nil, err
	}
	tel := telemetry.NewRegistry()
	fresh := func() (*stream.Store, error) {
		return stream.NewStoreN(projectID, typ, max(cfg.Choices, 2), cfg.Shards)
	}
	h := &hand{tr: tr, watermarks: map[uint64]bool{}}
	h.method = &tracedMethod{Method: m, tr: tr, name: "epoch.infer", parent: &h.epoch}
	scfg := stream.Config{
		Method:  h.method,
		Options: core.Options{Seed: cfg.Seed, MaxIterations: cfg.MaxIter, Parallelism: orDefault(cfg.Parallelism, ti.AutoParallelism)},
		Metrics: stream.NewMetrics(tel, projectID, m.Name()),
	}
	var (
		store   *stream.Store
		persist *wal.Persister
		dir     string
	)
	if root != "" {
		dir = filepath.Join(root, projectID)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var rec *wal.Recovery
		persist, rec, err = wal.Open(filepath.Join(dir, "store"), fresh, wal.Options{
			SnapshotEvery: tenant.DefaultSnapshotEvery,
			Shards:        cfg.Shards,
			Metrics:       wal.NewMetrics(tel, projectID),
		})
		if err != nil {
			return nil, err
		}
		store = rec.Store
		scfg.Persist = &tracedPersister{Persister: persist, tr: tr, appendParent: &h.appendParent, syncParent: &h.epoch}
	} else if store, err = fresh(); err != nil {
		return nil, err
	}
	if h.svc, err = stream.NewService(store, scfg); err != nil {
		if persist != nil {
			persist.Close()
		}
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", h.svc.Handler())
	mux.HandleFunc("POST /v1/ingest-batch", h.ingestBatch)
	mux.HandleFunc("POST /v1/ingest", h.ingestOne)
	mux.HandleFunc("GET /v1/truth/{task}", h.truth)
	mux.HandleFunc("POST /v1/query", h.query)
	if cfg.Assign != nil {
		if h.ledger, err = cfg.Assign.Ledger(h.svc, cfg.Seed, assign.NewMetrics(tel, projectID)); err != nil {
			h.svc.Close()
			if persist != nil {
				persist.Close()
			}
			return nil, err
		}
		mux.HandleFunc("GET /v1/assign", h.assign)
		mux.HandleFunc("POST /v1/complete", h.complete)
	}
	// Route /v1/projects/bench/<rest> to the tenant mux as /v1/<rest>, the
	// way the registry re-addresses a project request.
	prefix := "/v1/projects/" + projectID
	routed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u := *r.URL
		u.Path, u.RawPath = "/v1"+strings.TrimPrefix(u.Path, prefix), ""
		r2 := new(http.Request)
		*r2 = *r
		r2.URL = &u
		mux.ServeHTTP(w, r2)
	})
	label := func(*http.Request) (string, string) { return prefix, projectID }
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := httptest.NewServer(traceHTTP(tr, telemetry.Middleware(routed,
		telemetry.NewHTTPMetrics(tel, "truthserve"), logger, 0, label)))

	h.stopped = make(chan struct{})
	if h.svc.Stats().Incremental {
		close(h.stopped)
	} else {
		h.kick = make(chan struct{}, 1)
		go h.refresher()
	}
	p := &project{base: srv.URL + prefix, hc: newHTTPClient(), svc: h.svc, ledger: h.ledger, dir: dir, hand: h}
	p.close = func() error {
		srv.Close() // waits for in-flight requests, so nothing kicks after this
		if h.kick != nil {
			close(h.kick)
		}
		<-h.stopped
		errs := []error{h.svc.Close()}
		if persist != nil {
			errs = append(errs, persist.Snapshot(), persist.Close())
		}
		return errors.Join(errs...)
	}
	return p, nil
}

// refresher runs one epoch per kick, the way auto-refresh coalesces
// background epochs, until the kick channel closes.
func (h *hand) refresher() {
	defer close(h.stopped)
	for range h.kick {
		h.runEpoch()
	}
}

// runEpoch spans one Service.Refresh as epoch.total. Store.Snapshot cannot
// be wrapped, so epoch.snapshot is the time from Refresh entry to
// Method.Infer entry. Every fourth epoch replays dataset.New and
// dataset.BuildCSR on the epoch's snapshot to time epoch.index and
// epoch.csr; epoch.sweep is that epoch's Infer minus its CSR build.
func (h *hand) runEpoch() {
	id := h.tr.ids.Add(1)
	h.epoch.Store(id)
	start := time.Now()
	err := h.svc.Refresh()
	end := time.Now()
	h.epoch.Store(0)
	call := h.method.last.Swap(nil)
	if err != nil || call == nil || call.start.Before(start) {
		return // failed, or the result was already fresh
	}
	h.tr.record(id, "epoch.total", 0, "", start, end)
	h.tr.span("epoch.snapshot", id, start, call.start)
	h.tr.note("epoch.iterations", float64(call.iterations))
	h.epochs++
	if h.epochs%4 != 1 {
		return
	}
	d := call.d
	t0 := time.Now()
	_, ierr := dataset.New(d.Name, d.Type, d.NumChoices, d.NumTasks, d.NumWorkers, d.Answers, d.Truth)
	t1 := time.Now()
	dataset.BuildCSR(d)
	t2 := time.Now()
	if ierr == nil {
		h.tr.span("epoch.index", 0, t0, t1)
		h.tr.span("epoch.csr", 0, t1, t2)
		h.tr.note("epoch.sweep", (call.end.Sub(call.start) - t2.Sub(t1)).Seconds())
	}
}

// ingest spans one Service.Ingest as store.append under parent.
func (h *hand) ingest(parent uint64, b stream.Batch) (uint64, error) {
	o := h.tr.start("store.append", parent, "") // includes the wait for the ingest lock
	h.ingestMu.Lock()
	h.appendParent.Store(o.id)
	v, err := h.svc.Ingest(b)
	o.end()
	h.ingestMu.Unlock()
	if err == nil && h.kick != nil {
		select {
		case h.kick <- struct{}{}:
		default:
		}
	}
	return v, err
}

// ingestBatch is POST /v1/ingest-batch with its decode, store append and
// durable flush spanned. Admission is left out: no benchmark tenant sets
// limits, so the served handler admits everything too.
func (h *hand) ingestBatch(w http.ResponseWriter, r *http.Request) {
	parent := spanOf(r)
	o := h.tr.start("http.decode", parent, "")
	var batches []stream.Batch
	total := 0
	_, err := stream.ReadBatchStream(http.MaxBytesReader(w, r.Body, api.MaxBatchBody), func(b stream.Batch) error {
		batches = append(batches, b)
		total += len(b.Answers)
		return nil
	})
	o.end()
	if err == nil && len(batches) == 0 {
		err = errors.New("batch stream carries no frames")
	}
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	var version uint64
	for _, b := range batches {
		if version, err = h.ingest(parent, b); err != nil {
			api.Error(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	o = h.tr.start("wal.sync_to", parent, "")
	dv, durable, err := h.svc.DurableTo(version)
	o.end()
	if err != nil {
		api.Error(w, http.StatusInternalServerError, err)
		return
	}
	if durable {
		h.mu.Lock()
		h.watermarks[dv] = true
		h.acks++
		h.mu.Unlock()
	}
	tasks, workers, answers := h.svc.Dims()
	api.WriteJSON(w, http.StatusOK, api.BatchIngestResponse{
		Batches: len(batches), Ingested: total, Version: version, Durable: durable,
		DurableVersion: dv, Tasks: tasks, Workers: workers, Answers: answers,
	})
}

// ingestOne is POST /v1/ingest for answer-only bodies.
func (h *hand) ingestOne(w http.ResponseWriter, r *http.Request) {
	var req api.IngestRequest
	if !api.DecodeJSON(w, r, api.MaxIngestBody, &req) {
		return
	}
	b := stream.Batch{NumTasks: req.NumTasks, NumWorkers: req.NumWorkers}
	for _, a := range req.Answers {
		b.Answers = append(b.Answers, dataset.Answer{Task: a.Task, Worker: a.Worker, Value: a.Value})
	}
	version, err := h.ingest(spanOf(r), b)
	if err != nil {
		api.Error(w, http.StatusUnprocessableEntity, err)
		return
	}
	tasks, workers, answers := h.svc.Dims()
	api.WriteJSON(w, http.StatusOK, api.IngestResponse{Version: version, Ingested: len(b.Answers),
		Tasks: tasks, Workers: workers, Answers: answers})
}

// truth is GET /v1/truth/{task} with Service.Truth spanned as read.truth.
func (h *hand) truth(w http.ResponseWriter, r *http.Request) {
	task, err := strconv.Atoi(r.PathValue("task"))
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	o := h.tr.start("read.truth", spanOf(r), "")
	info, err := h.svc.Truth(task)
	o.end()
	if err != nil {
		api.Error(w, http.StatusNotFound, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"task": info.Task, "truth": info.Truth, "version": info.Version})
}

// query is POST /v1/query for canned views: query.NewCatalog is spanned
// as query.catalog, query.View plus query.Collect as query.<view>.
func (h *hand) query(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if !api.DecodeJSON(w, r, api.MaxAdminBody, &req) {
		return
	}
	var ledger query.Ledger
	if h.ledger != nil {
		ledger = h.ledger
	}
	parent := spanOf(r)
	o := h.tr.start("query.catalog", parent, "")
	cat := query.NewCatalog(h.svc, ledger)
	o.end()
	o = h.tr.start("query."+req.View, parent, "")
	rel, err := query.View(cat, req.View)
	var rows []query.Row
	var truncated bool
	if err == nil {
		rows, truncated = query.Collect(rel, orDefault(req.Limit, query.DefaultLimit))
	}
	o.end()
	if err != nil {
		api.Error(w, http.StatusUnprocessableEntity, err)
		return
	}
	h.tr.note("query."+req.View+".rows", float64(len(rows)))
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = row
	}
	api.WriteJSON(w, http.StatusOK, api.QueryResponse{StoreVersion: cat.StoreVersion, ResultVersion: cat.ResultVersion,
		Cols: rel.Cols, Rows: out, Truncated: truncated})
}

// assign is GET /v1/assign with Ledger.Assign spanned as assign.score.
func (h *hand) assign(w http.ResponseWriter, r *http.Request) {
	worker, err := strconv.Atoi(r.URL.Query().Get("worker"))
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	o := h.tr.start("assign.score", spanOf(r), "")
	lease, err := h.ledger.Assign(worker)
	o.end()
	if errors.Is(err, assign.ErrNoTask) {
		h.tr.note("assign.no_task", 1)
	}
	if err != nil {
		api.Error(w, http.StatusNotFound, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, lease)
}

// complete is POST /v1/complete with Ledger.CompleteValue spanned as
// assign.complete; the answer it delivers is a store.append child.
func (h *hand) complete(w http.ResponseWriter, r *http.Request) {
	var req api.CompleteRequest
	if !api.DecodeJSON(w, r, api.MaxAdminBody, &req) {
		return
	}
	var version uint64
	o := h.tr.start("assign.complete", spanOf(r), "")
	err := h.ledger.CompleteValue(req.LeaseID, req.Worker, req.Value, func(task int) error {
		v, err := h.ingest(o.id, stream.Batch{Answers: []dataset.Answer{{Task: task, Worker: req.Worker, Value: req.Value}}})
		version = v
		return err
	})
	o.end()
	if err != nil {
		api.Error(w, http.StatusUnprocessableEntity, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.CompleteResponse{LeaseID: req.LeaseID, Version: version})
}

// fsyncsPerAck is the durable-watermark advances the acks saw, per ack.
func (h *hand) fsyncsPerAck() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.acks == 0 {
		return 0
	}
	return float64(len(h.watermarks)) / float64(h.acks)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, ierr := e.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// orDefault returns v, or def when v is the zero value.
func orDefault[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

func newHTTPClient() *http.Client {
	return &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

// statusError is a non-2xx response.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// call sends one request and decodes a 2xx JSON response into out.
func call(hc *http.Client, method, url, ctype string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{resp.StatusCode, string(data)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
