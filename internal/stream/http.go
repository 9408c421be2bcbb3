package stream

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"truthinference/internal/api"
	"truthinference/internal/dataset"
)

// The HTTP API over a Service, mounted by cmd/truthserve and exercised
// end-to-end by the httptest suite:
//
//	POST /v1/ingest        {"answers":[{"task":0,"worker":1,"value":1}],
//	                        "truth":{"0":1}, "num_tasks":10, "num_workers":5}
//	POST /v1/ingest-batch  binary batch stream (see codec.go): magic
//	                       "TIBAT\x01\r\n" + CRC-framed batch payloads;
//	                       the response distinguishes accepted (version)
//	                       from durable (durable_version)
//	POST /v1/refresh       run one inference epoch now (no-op when fresh)
//	GET  /v1/truth/{task}  one task's truth + confidence
//	GET  /v1/truths        the full truth vector + the version it reflects
//	GET  /v1/worker/{id}   one worker's estimated quality
//	GET  /v1/stats         store + serving statistics
//	GET  /v1/healthz       liveness probe
//
// Errors use the shared envelope from internal/api, unmatched routes
// included (api.NoRoute: 404, also for a wrong method); both ingest
// endpoints enforce Config.Limits, shedding load with 429 + Retry-After
// before committing anything — a rejected request acknowledges nothing.
//
// Reads are served from the last published result and never block behind
// a running inference epoch; the reported version says how fresh they are.

func toBatch(r api.IngestRequest) (Batch, error) {
	b := Batch{NumTasks: r.NumTasks, NumWorkers: r.NumWorkers}
	if len(r.Answers) > 0 {
		b.Answers = make([]dataset.Answer, len(r.Answers))
		for i, a := range r.Answers {
			b.Answers[i] = dataset.Answer{Task: a.Task, Worker: a.Worker, Value: a.Value}
		}
	}
	if len(r.Truth) > 0 {
		b.Truth = make(map[int]float64, len(r.Truth))
		for k, v := range r.Truth {
			t, err := strconv.Atoi(k)
			if err != nil {
				return Batch{}, fmt.Errorf("truth key %q is not a task id", k)
			}
			b.Truth[t] = v
		}
	}
	return b, nil
}

// Handler returns the HTTP API over the service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/ingest-batch", s.handleIngestBatch)
	mux.HandleFunc("POST /v1/refresh", s.handleRefresh)
	mux.HandleFunc("GET /v1/truth/{task}", s.handleTruth)
	mux.HandleFunc("GET /v1/truths", s.handleTruths)
	mux.HandleFunc("GET /v1/worker/{worker}", s.handleWorker)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.Health{Status: "ok"})
	})
	mux.HandleFunc("/", api.NoRoute)
	return mux
}

// admit charges n answers against the service's rate and quota limits,
// writing the 429 itself on rejection. Nothing may be committed before
// admit says yes: a shed request must acknowledge no data.
//
// Quota headroom is *reserved* atomically here, not merely checked:
// checking Dims() and committing later would let two concurrent
// requests, each individually under MaxAnswers, pass the check together
// and jointly exceed it. The returned release hands the reservation
// back and must run only once the request's outcome is reflected in the
// store's answer count (after Ingest returned, success or failure) —
// callers defer it — so at every instant the quota covers stored plus
// in-flight answers and the cap is hard under concurrency.
func (s *Service) admit(w http.ResponseWriter, n int) (release func(), ok bool) {
	// The rate limiter charges at least 1 so probes are never free, but
	// the quota reserves only the actual answer count: MaxAnswers caps
	// stored answers, and charging metadata-only requests against it
	// would leave a tenant at quota unable to ever grow its task board
	// or post workers again.
	charge := n
	if charge < 1 {
		charge = 1
	}
	release = func() {}
	if q := s.cfg.Limits.MaxAnswers; q > 0 && n > 0 {
		for {
			// The reservation is loaded before the store count: a racing
			// request releases only after its answers are in the count, so
			// this order can at worst see both (a spurious 429), never
			// neither (an over-commit past the quota).
			reserved := s.quotaReserved.Load()
			_, _, answers := s.store.Dims()
			if answers+int(reserved)+n > q {
				s.cfg.Metrics.observeShed(n, true)
				api.RateLimited(w, QuotaRetryAfter,
					fmt.Errorf("%w: %d stored + %d in flight + %d incoming exceeds the %d-answer quota",
						ErrQuotaExceeded, answers, reserved, n, q))
				return nil, false
			}
			if s.quotaReserved.CompareAndSwap(reserved, reserved+int64(n)) {
				break
			}
		}
		m := int64(n)
		s.cfg.Metrics.quotaReserve(m)
		release = func() {
			s.quotaReserved.Add(-m)
			s.cfg.Metrics.quotaReserve(-m)
		}
	}
	if wait, limOK := s.limiter.Admit(charge); !limOK {
		release()
		s.cfg.Metrics.observeShed(charge, false)
		api.RateLimited(w, wait, ErrRateLimited)
		return nil, false
	}
	s.cfg.Metrics.observeAdmitted(charge)
	return release, true
}

// ingestStatus maps an Ingest error onto its HTTP status.
func ingestStatus(err error) int {
	if errors.Is(err, ErrClosed) {
		// The project was deleted while this request was in flight.
		return http.StatusGone
	}
	return http.StatusUnprocessableEntity
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req api.IngestRequest
	if !api.DecodeJSON(w, r, api.MaxIngestBody, &req) {
		return
	}
	b, err := toBatch(req)
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	release, ok := s.admit(w, len(b.Answers))
	if !ok {
		return
	}
	defer release()
	version, err := s.Ingest(b)
	if err != nil {
		api.Error(w, ingestStatus(err), err)
		return
	}
	tasks, workers, answers := s.store.Dims()
	api.WriteJSON(w, http.StatusOK, api.IngestResponse{
		Version:  version,
		Ingested: len(b.Answers),
		Tasks:    tasks,
		Workers:  workers,
		Answers:  answers,
	})
}

func (s *Service) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, api.MaxBatchBody)
	var batches []Batch
	total := 0
	if _, err := ReadBatchStream(body, func(b Batch) error {
		batches = append(batches, b)
		total += len(b.Answers)
		return nil
	}); err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			api.Error(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch stream exceeds the %d-byte cap", tooBig.Limit))
		case errors.Is(err, ErrFrameTooLarge):
			api.Error(w, http.StatusRequestEntityTooLarge, err)
		default:
			api.Error(w, http.StatusBadRequest, err)
		}
		return
	}
	if len(batches) == 0 {
		api.Error(w, http.StatusBadRequest, errors.New("batch stream carries no frames"))
		return
	}
	// The whole request is admitted or shed as one unit, before any
	// frame commits — a 429 therefore never acknowledges an answer. The
	// reservation is held until this handler returns: by then every
	// committed frame is in the store count and every failed one never
	// will be.
	release, ok := s.admit(w, total)
	if !ok {
		return
	}
	defer release()
	var version uint64
	for i, b := range batches {
		v, err := s.Ingest(b)
		if err != nil {
			// Frames commit in order; i of them are already in. Report
			// the commit point so the client can resume past it.
			api.Error(w, ingestStatus(err),
				fmt.Errorf("frame %d of %d rejected after %d committed through version %d: %w",
					i, len(batches), i, version, err))
			return
		}
		version = v
	}
	// One group-committed flush for the whole request: concurrent
	// requests queue behind a shared fsync leader instead of paying one
	// fsync per frame. The response states the durable watermark
	// explicitly — "accepted" (version) is not "durable"
	// (durable_version) until the WAL has flushed past it.
	durableVersion, durable, err := s.DurableTo(version)
	if err != nil {
		api.Error(w, http.StatusInternalServerError,
			fmt.Errorf("committed through version %d but durability not confirmed past %d: %w",
				version, durableVersion, err))
		return
	}
	tasks, workers, answers := s.store.Dims()
	api.WriteJSON(w, http.StatusOK, api.BatchIngestResponse{
		Batches:        len(batches),
		Ingested:       total,
		Version:        version,
		Durable:        durable,
		DurableVersion: durableVersion,
		Tasks:          tasks,
		Workers:        workers,
		Answers:        answers,
	})
}

func (s *Service) handleRefresh(w http.ResponseWriter, _ *http.Request) {
	if err := s.Refresh(); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrClosed) {
			status = http.StatusGone
		}
		api.Error(w, status, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleTruth(w http.ResponseWriter, r *http.Request) {
	task, err := strconv.Atoi(r.PathValue("task"))
	if err != nil {
		api.Error(w, http.StatusBadRequest, fmt.Errorf("task id %q is not an integer", r.PathValue("task")))
		return
	}
	info, err := s.Truth(task)
	if err != nil {
		api.Error(w, queryStatus(err), err)
		return
	}
	resp := map[string]any{"task": info.Task, "truth": info.Truth, "version": info.Version}
	if !math.IsNaN(info.Confidence) {
		resp["confidence"] = info.Confidence
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (s *Service) handleTruths(w http.ResponseWriter, _ *http.Request) {
	truths, version, err := s.Truths()
	if err != nil {
		api.Error(w, queryStatus(err), err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"version": version, "truths": truths})
}

func (s *Service) handleWorker(w http.ResponseWriter, r *http.Request) {
	worker, err := strconv.Atoi(r.PathValue("worker"))
	if err != nil {
		api.Error(w, http.StatusBadRequest, fmt.Errorf("worker id %q is not an integer", r.PathValue("worker")))
		return
	}
	quality, err := s.WorkerQuality(worker)
	if err != nil {
		api.Error(w, queryStatus(err), err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"worker": worker, "quality": quality})
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.Stats())
}

// queryStatus maps service query errors onto HTTP statuses: asking before
// the first epoch is a conflict the client resolves by refreshing, an
// unknown id is a plain 404.
func queryStatus(err error) int {
	if err == ErrNotInferred {
		return http.StatusConflict
	}
	return http.StatusNotFound
}
