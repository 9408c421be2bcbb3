package query

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"

	"truthinference/internal/api"
)

// Row-limit policy of the query endpoint: a request without a limit
// gets DefaultLimit rows; asking for more than MaxLimit is rejected —
// the plane is for analytical reads, not bulk export (that is what the
// batch codec is for).
const (
	DefaultLimit = 1000
	MaxLimit     = 10000
)

// NewHandler returns the HTTP face of the query plane, one route:
//
//	POST /v1/query  {"view":"disagreement"} |
//	                {"plan":{"op":...},"limit":100}
//
// Request bodies are capped at api.MaxAdminBody and decoded strictly
// (unknown fields rejected). Failures use the shared error envelope:
// 400 malformed body or view+plan confusion, 404 unknown view, 409 the
// backing data does not exist yet (retry after an epoch), 413 oversized
// body, 422 structurally invalid plan or one whose joins outgrew
// MaxJoinRows. ledger may be nil (no assignment
// plane): lease/budget relations then answer 422. m, when non-nil,
// counts served queries, rows scanned vs returned, and truncations.
func NewHandler(src Source, ledger Ledger, m *Metrics) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(w, r, src, ledger, m)
	})
	return mux
}

func handleQuery(w http.ResponseWriter, r *http.Request, src Source, ledger Ledger, m *Metrics) {
	var req api.QueryRequest
	if !api.DecodeJSON(w, r, api.MaxAdminBody, &req) {
		return
	}
	switch {
	case req.View == "" && len(req.Plan) == 0:
		api.Error(w, http.StatusBadRequest, errors.New("query requires a view or a plan"))
		return
	case req.View != "" && len(req.Plan) > 0:
		api.Error(w, http.StatusBadRequest, errors.New("view and plan are mutually exclusive"))
		return
	case req.Limit < 0 || req.Limit > MaxLimit:
		api.Error(w, http.StatusUnprocessableEntity,
			fmt.Errorf("limit %d out of range [0, %d]", req.Limit, MaxLimit))
		return
	}
	limit := req.Limit
	if limit == 0 {
		limit = DefaultLimit
	}

	cat := NewCatalog(src, ledger)
	var (
		rel Relation
		err error
	)
	if req.View != "" {
		rel, err = View(cat, req.View)
	} else {
		var node Node
		if derr := api.DecodeStrict(bytes.NewReader(req.Plan), &node); derr != nil {
			api.Error(w, http.StatusBadRequest, fmt.Errorf("decode plan: %w", derr))
			return
		}
		rel, err = Compile(cat, &node)
	}
	if err != nil {
		api.Error(w, statusFor(err), err)
		return
	}

	rows, truncated := Collect(rel, limit)
	if err := cat.Err(); err != nil {
		api.Error(w, statusFor(err), err)
		return
	}
	m.observe(req.View, len(rows), cat.Scanned, truncated)
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	api.WriteJSON(w, http.StatusOK, api.QueryResponse{
		StoreVersion:  cat.StoreVersion,
		ResultVersion: cat.ResultVersion,
		Cols:          rel.Cols,
		Rows:          out,
		Truncated:     truncated,
	})
}

// statusFor maps plan/catalog errors onto HTTP statuses.
func statusFor(err error) int {
	var unknown ErrUnknownView
	var unavailable ErrUnavailable
	switch {
	case errors.As(err, &unknown):
		return http.StatusNotFound
	case errors.As(err, &unavailable):
		// The plan is fine; the epoch it needs has not published yet.
		return http.StatusConflict
	default:
		// Structural: unknown relation/column/op, caps, no-ledger.
		return http.StatusUnprocessableEntity
	}
}
