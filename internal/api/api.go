// Package api is the shared wire surface of the serving stack: the one
// JSON error envelope every endpoint answers failures with, the typed
// request/response structs the stream, assign and tenant HTTP layers
// exchange, and the request-decoding helpers that enforce body-size
// caps uniformly.
//
// # Error envelope
//
// Every non-2xx response is
//
//	{"error":{"code":"<machine code>","message":"<human message>","request_id":"<id>"}}
//
// with a stable machine-readable code (see ErrorCode) alongside the HTTP
// status, so clients branch on codes instead of parsing prose; the
// request_id field (present when the request passed through the
// telemetry middleware) joins the failure to the server's structured
// logs. 429
// responses always carry a Retry-After header (seconds) — backpressure
// is actionable, not just an error. A request no route matches — an
// unknown path, or a known path with the wrong method — is a 404
// (NoRoute), in the envelope like every other failure.
//
// # Body caps
//
// Every JSON endpoint reads its body through http.MaxBytesReader with a
// per-endpoint cap (MaxAdminBody, MaxIngestBody, MaxBatchBody); an
// oversized body is a 413 with code "payload_too_large", never an
// unbounded allocation.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Body-size caps, per endpoint class. The JSON ingest cap admits a few
// hundred thousand answers per request; anything bigger belongs on the
// binary batch endpoint, whose cap matches the WAL's per-record bound.
const (
	// MaxAdminBody caps small control-plane bodies (project create,
	// lease complete, refresh).
	MaxAdminBody = 1 << 20 // 1 MiB
	// MaxIngestBody caps the JSON ingest body.
	MaxIngestBody = 8 << 20 // 8 MiB
	// MaxBatchBody caps the binary batch-ingest body (magic + frames).
	MaxBatchBody = 1 << 26 // 64 MiB
)

// ErrorCode is the machine-readable failure class in the error envelope.
type ErrorCode string

const (
	CodeBadRequest    ErrorCode = "bad_request"       // 400: malformed body, ids, framing
	CodeForbidden     ErrorCode = "forbidden"         // 403: lease held by another worker
	CodeNotFound      ErrorCode = "not_found"         // 404: unknown task/worker/project/route
	CodeConflict      ErrorCode = "conflict"          // 409: version conflict, duplicate id, budget
	CodeGone          ErrorCode = "gone"              // 410: deleted project, expired lease
	CodeTooLarge      ErrorCode = "payload_too_large" // 413: body over the endpoint cap
	CodeUnprocessable ErrorCode = "unprocessable"     // 422: semantically invalid request
	CodeRateLimited   ErrorCode = "rate_limited"      // 429: per-tenant rate/quota shed
	CodeInternal      ErrorCode = "internal"          // 5xx
)

// CodeFor maps an HTTP status onto its default error code.
func CodeFor(status int) ErrorCode {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusForbidden:
		return CodeForbidden
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusGone:
		return CodeGone
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case http.StatusTooManyRequests:
		return CodeRateLimited
	default:
		return CodeInternal
	}
}

// ErrorBody is the inner object of the error envelope. RequestID echoes
// the X-Request-ID the telemetry middleware stamped on the response, so
// a client error report can be joined against the server's structured
// logs; it is empty on responses written outside the middleware (tests
// driving handlers directly).
type ErrorBody struct {
	Code      ErrorCode `json:"code"`
	Message   string    `json:"message"`
	RequestID string    `json:"request_id,omitempty"`
}

// ErrorEnvelope is the JSON shape of every non-2xx response.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Error writes the error envelope with the status's default code. The
// request ID, when the telemetry middleware has already stamped one on
// the response headers, rides along in the envelope.
func Error(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Code:      CodeFor(status),
		Message:   err.Error(),
		RequestID: w.Header().Get("X-Request-ID"),
	}})
}

// RateLimited writes a 429 with code "rate_limited" and a Retry-After
// header of ceil(retryAfter) seconds (minimum 1 — a Retry-After of 0
// invites an immediate retry storm).
func RateLimited(w http.ResponseWriter, retryAfter time.Duration, err error) {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	Error(w, http.StatusTooManyRequests, err)
}

// NoRoute answers a request no route matched with a 404 in the error
// envelope. The serving muxes mount it at "/", so a wrong method on a
// known route lands here too, not on the mux's plain-text 405.
func NoRoute(w http.ResponseWriter, r *http.Request) {
	Error(w, http.StatusNotFound, fmt.Errorf("no route for %s %s", r.Method, r.RequestURI))
}

// DecodeJSON decodes one JSON body into v with unknown fields rejected
// and the body capped at maxBytes. On failure it writes the error
// response itself (413 for an oversized body, 400 otherwise) and
// returns false; handlers simply return on false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			Error(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte cap", tooBig.Limit))
			return false
		}
		Error(w, http.StatusBadRequest, fmt.Errorf("decode request body: %w", err))
		return false
	}
	return true
}

// Answer is the JSON wire shape of one crowdsourced answer.
type Answer struct {
	Task   int     `json:"task"`
	Worker int     `json:"worker"`
	Value  float64 `json:"value"`
}

// IngestRequest is the body of POST /v1/ingest. Truth keys are strings
// because JSON objects cannot have integer keys.
type IngestRequest struct {
	Answers    []Answer           `json:"answers"`
	Truth      map[string]float64 `json:"truth,omitempty"`
	NumTasks   int                `json:"num_tasks,omitempty"`
	NumWorkers int                `json:"num_workers,omitempty"`
}

// IngestResponse is the body of a successful POST /v1/ingest.
type IngestResponse struct {
	Version  uint64 `json:"version"`
	Ingested int    `json:"ingested"`
	Tasks    int    `json:"tasks"`
	Workers  int    `json:"workers"`
	Answers  int    `json:"answers"`
}

// BatchIngestResponse is the body of a successful POST /v1/ingest-batch.
// Version is the store version after the last committed batch —
// "accepted". DurableVersion is the store version fsynced to the
// write-ahead log when the response was written — "durable"; a client
// that needs durability waits for DurableVersion >= its Version before
// treating the answers as safe. On a project without a WAL, Durable is
// false and DurableVersion 0: nothing is ever durable there.
type BatchIngestResponse struct {
	Batches        int    `json:"batches"`
	Ingested       int    `json:"ingested"`
	Version        uint64 `json:"version"`
	Durable        bool   `json:"durable"`
	DurableVersion uint64 `json:"durable_version"`
	Tasks          int    `json:"tasks"`
	Workers        int    `json:"workers"`
	Answers        int    `json:"answers"`
}

// CompleteRequest is the body of POST /v1/complete.
type CompleteRequest struct {
	LeaseID uint64  `json:"lease_id"`
	Worker  int     `json:"worker"`
	Value   float64 `json:"value"`
}

// CompleteResponse is the body of a successful POST /v1/complete.
type CompleteResponse struct {
	LeaseID uint64 `json:"lease_id"`
	Version uint64 `json:"version"`
}

// QueryRequest is the body of POST /v1/query: either the name of a
// canned view or a relational-plan AST (exactly one of the two). Plan
// stays raw here — internal/query owns the AST shape and decodes it
// strictly. Limit caps the returned rows (0 means the server default);
// the server also enforces a hard maximum.
type QueryRequest struct {
	View  string          `json:"view,omitempty"`
	Plan  json.RawMessage `json:"plan,omitempty"`
	Limit int             `json:"limit,omitempty"`
}

// QueryResponse is the body of a successful POST /v1/query. Every
// answer-sourced row reflects exactly StoreVersion; model-derived
// columns (posteriors, worker qualities) reflect ResultVersion, the
// inference epoch they were published at (0 when the query touched
// none). Truncated reports that the row limit cut the result short.
type QueryResponse struct {
	StoreVersion  uint64      `json:"store_version"`
	ResultVersion uint64      `json:"result_version,omitempty"`
	Cols          []string    `json:"cols"`
	Rows          [][]float64 `json:"rows"`
	Truncated     bool        `json:"truncated,omitempty"`
}

// CreateProjectRequest is the body of POST /v1/admin/projects; Config
// is the tenant config shape, decoded by the tenant layer.
type CreateProjectRequest struct {
	ID     string          `json:"id"`
	Config json.RawMessage `json:"config"`
}

// Health is the body of every healthz probe.
type Health struct {
	Status string `json:"status"`
}
