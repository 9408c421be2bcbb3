package tenant

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"truthinference/internal/api"
	"truthinference/internal/telemetry"
)

// The multi-tenant HTTP surface, mounted by cmd/truthserve:
//
//	POST   /v1/admin/projects        {"id":"p1","config":{...}}  create
//	GET    /v1/admin/projects        list every project + stats
//	GET    /v1/admin/projects/{id}   one project's stats
//	DELETE /v1/admin/projects/{id}   close + delete a project
//	*      /v1/projects/{id}/...     that project's full API
//	GET    /v1/healthz, /v1/readyz   daemon liveness and readiness
//	GET    /metrics                  Prometheus scrape
//
// Project APIs are exactly the stream + assign + query handlers; the
// registry only rewrites /v1/projects/{id}/ingest to /v1/ingest and
// dispatches to the addressed project. Errors use the shared envelope
// from internal/api; any other path, or a known path with the wrong
// method, answers 404 (api.NoRoute).

// Handler returns the registry's full HTTP surface.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/admin/projects", r.handleCreate)
	mux.HandleFunc("GET /v1/admin/projects", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, map[string]any{"projects": r.List()})
	})
	mux.HandleFunc("GET /v1/admin/projects/{id}", func(w http.ResponseWriter, req *http.Request) {
		p, ok := r.Get(req.PathValue("id"))
		if !ok {
			api.Error(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrNotFound, req.PathValue("id")))
			return
		}
		api.WriteJSON(w, http.StatusOK, p.Info())
	})
	mux.HandleFunc("DELETE /v1/admin/projects/{id}", r.handleDelete)
	mux.HandleFunc("/v1/projects/{id}/{rest...}", r.route)
	// Daemon-level liveness: answered by the registry itself, in the
	// same shape as the per-project probes.
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.Health{Status: "ok"})
	})
	// Readiness is distinct from liveness: it flips to 200 only after
	// boot-time recovery of every tenant namespace (Registry.SetReady),
	// so load balancers do not route traffic into a daemon still
	// replaying WALs.
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !r.Ready() {
			api.WriteJSON(w, http.StatusServiceUnavailable, api.Health{Status: "starting"})
			return
		}
		api.WriteJSON(w, http.StatusOK, api.Health{Status: "ready"})
	})
	// The scrape endpoint for the daemon-wide metrics registry.
	mux.Handle("GET /metrics", r.tel.Handler())
	mux.HandleFunc("/", api.NoRoute)
	// Every request flows through the telemetry middleware: request-ID
	// stamping (minted or accepted from X-Request-ID), per-route/tenant
	// count + latency, and slow-request logging above r.SlowRequest.
	return telemetry.Middleware(mux, r.httpMetric, r.logger, r.SlowRequest, r.routeLabel)
}

// routeLabel classifies a request into bounded route and tenant label
// values for the HTTP metrics. Routes come from a fixed vocabulary (no
// raw paths — task ids and worker ids would explode cardinality) and
// the tenant label only carries ids of live projects, so a scan of
// random project names cannot mint series.
func (r *Registry) routeLabel(req *http.Request) (route, tenant string) {
	path := req.URL.Path
	switch {
	case path == "/metrics":
		return "/metrics", ""
	case path == "/v1/healthz":
		return "/v1/healthz", ""
	case path == "/v1/readyz":
		return "/v1/readyz", ""
	case path == "/v1/admin/projects":
		return "/v1/admin/projects", ""
	case strings.HasPrefix(path, "/v1/admin/projects/"):
		return "/v1/admin/projects/{id}", ""
	case strings.HasPrefix(path, "/v1/projects/"):
		rest := strings.TrimPrefix(path, "/v1/projects/")
		id, sub, _ := strings.Cut(rest, "/")
		return "/v1/projects/{id}" + subRoute(sub), r.tenantLabel(id)
	default:
		return "/other", ""
	}
}

// tenantLabel returns id when it names a live project, else "unknown",
// keeping the tenant label's cardinality bounded by real projects.
func (r *Registry) tenantLabel(id string) string {
	if _, ok := r.Get(id); ok {
		return id
	}
	return "unknown"
}

// subRoute maps a project-relative sub-path onto the fixed route
// vocabulary of the per-project API.
func subRoute(sub string) string {
	head, _, _ := strings.Cut(sub, "/")
	switch head {
	case "ingest", "ingest-batch", "refresh", "truths", "stats",
		"healthz", "assign", "complete", "assignstats", "query":
		return "/" + head
	case "truth":
		return "/truth/{task}"
	case "worker":
		return "/worker/{id}"
	default:
		return "/other"
	}
}

// route dispatches /v1/projects/{id}/<rest> to project id's own handler
// as /v1/<rest>.
func (r *Registry) route(w http.ResponseWriter, req *http.Request) {
	p, ok := r.Get(req.PathValue("id"))
	if !ok {
		api.Error(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrNotFound, req.PathValue("id")))
		return
	}
	// Shallow-clone the request with the project prefix stripped, the
	// same way http.StripPrefix re-addresses a request.
	u := *req.URL
	u.Path = "/v1/" + req.PathValue("rest")
	u.RawPath = ""
	r2 := new(http.Request)
	*r2 = *req
	r2.URL = &u
	p.Handler().ServeHTTP(w, r2)
}

func (r *Registry) handleCreate(w http.ResponseWriter, req *http.Request) {
	var body api.CreateProjectRequest
	if !api.DecodeJSON(w, req, api.MaxAdminBody, &body) {
		return
	}
	if len(body.Config) == 0 {
		api.Error(w, http.StatusBadRequest, errors.New("tenant: create request has no config"))
		return
	}
	cfg, err := DecodeConfig(body.Config)
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	p, err := r.Create(body.ID, cfg)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, ErrExists) {
			status = http.StatusConflict
		}
		api.Error(w, status, err)
		return
	}
	api.WriteJSON(w, http.StatusCreated, p.Info())
}

func (r *Registry) handleDelete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if err := r.Delete(id); err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, ErrNotFound) {
			status = http.StatusNotFound
		}
		api.Error(w, status, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]string{"deleted": id})
}
