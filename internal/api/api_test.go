package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCodeFor(t *testing.T) {
	cases := []struct {
		status int
		want   ErrorCode
	}{
		{http.StatusBadRequest, CodeBadRequest},
		{http.StatusForbidden, CodeForbidden},
		{http.StatusNotFound, CodeNotFound},
		{http.StatusConflict, CodeConflict},
		{http.StatusGone, CodeGone},
		{http.StatusRequestEntityTooLarge, CodeTooLarge},
		{http.StatusUnprocessableEntity, CodeUnprocessable},
		{http.StatusTooManyRequests, CodeRateLimited},
		{http.StatusInternalServerError, CodeInternal},
		{http.StatusTeapot, CodeInternal},
	}
	for _, c := range cases {
		if got := CodeFor(c.status); got != c.want {
			t.Errorf("CodeFor(%d) = %q, want %q", c.status, got, c.want)
		}
	}
}

func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) ErrorEnvelope {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("unmarshal envelope: %v (body %q)", err, rec.Body.String())
	}
	return env
}

func TestErrorEnvelopeShape(t *testing.T) {
	rec := httptest.NewRecorder()
	Error(rec, http.StatusNotFound, errNamed("no such task"))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	env := decodeEnvelope(t, rec)
	if env.Error.Code != CodeNotFound || env.Error.Message != "no such task" {
		t.Fatalf("envelope = %+v", env)
	}
	// The wire shape must be exactly {"error":{"code","message"}}.
	var raw map[string]map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatalf("raw unmarshal: %v", err)
	}
	if len(raw) != 1 || len(raw["error"]) != 2 {
		t.Fatalf("unexpected wire shape: %v", raw)
	}
}

type errNamed string

func (e errNamed) Error() string { return string(e) }

func TestRateLimitedRetryAfter(t *testing.T) {
	cases := []struct {
		wait time.Duration
		want string
	}{
		{0, "1"},
		{time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{10 * time.Second, "10"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		RateLimited(rec, c.wait, errNamed("slow down"))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != c.want {
			t.Errorf("Retry-After for %v = %q, want %q", c.wait, got, c.want)
		}
		if env := decodeEnvelope(t, rec); env.Error.Code != CodeRateLimited {
			t.Errorf("code = %q, want rate_limited", env.Error.Code)
		}
	}
}

func TestDecodeJSON(t *testing.T) {
	type body struct {
		N int `json:"n"`
	}

	t.Run("ok", func(t *testing.T) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/", strings.NewReader(`{"n":7}`))
		var v body
		if !DecodeJSON(rec, req, 64, &v) {
			t.Fatalf("DecodeJSON failed: %s", rec.Body.String())
		}
		if v.N != 7 {
			t.Fatalf("n = %d, want 7", v.N)
		}
	})

	t.Run("unknown field", func(t *testing.T) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/", strings.NewReader(`{"n":7,"zzz":1}`))
		var v body
		if DecodeJSON(rec, req, 64, &v) {
			t.Fatal("DecodeJSON accepted an unknown field")
		}
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
		if env := decodeEnvelope(t, rec); env.Error.Code != CodeBadRequest {
			t.Fatalf("code = %q, want bad_request", env.Error.Code)
		}
	})

	t.Run("malformed", func(t *testing.T) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/", strings.NewReader(`{`))
		var v body
		if DecodeJSON(rec, req, 64, &v) {
			t.Fatal("DecodeJSON accepted malformed JSON")
		}
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
	})

	t.Run("oversized", func(t *testing.T) {
		rec := httptest.NewRecorder()
		big := `{"n":` + strings.Repeat("1", 100) + `}`
		req := httptest.NewRequest("POST", "/", strings.NewReader(big))
		var v body
		if DecodeJSON(rec, req, 16, &v) {
			t.Fatal("DecodeJSON accepted an oversized body")
		}
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", rec.Code)
		}
		if env := decodeEnvelope(t, rec); env.Error.Code != CodeTooLarge {
			t.Fatalf("code = %q, want payload_too_large", env.Error.Code)
		}
	})
}

// TestDecodeStrict pins the one-value rule: whitespace may follow the
// value, anything else may not, so a second concatenated value is an
// error instead of being dropped.
func TestDecodeStrict(t *testing.T) {
	cases := []struct {
		in string
		ok bool
	}{
		{`{"n":7}`, true},
		{"{\"n\":7}\n\t ", true},
		{`{"n":7}{"n":8}`, false},
		{`{"n":7} 8`, false},
		{`{"n":7}]`, false},
		{`{"n":7} x`, false},
		{`{"n":7,"zzz":1}`, false},
		{``, false},
	}
	for _, c := range cases {
		var v struct {
			N int `json:"n"`
		}
		err := DecodeStrict(strings.NewReader(c.in), &v)
		if (err == nil) != c.ok {
			t.Errorf("DecodeStrict(%q) = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && v.N != 7 {
			t.Errorf("DecodeStrict(%q) decoded n=%d, want 7", c.in, v.N)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, IngestResponse{Version: 3, Ingested: 2})
	if rec.Code != http.StatusCreated {
		t.Fatalf("status = %d, want 201", rec.Code)
	}
	var out IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Version != 3 || out.Ingested != 2 {
		t.Fatalf("round trip = %+v", out)
	}
}
