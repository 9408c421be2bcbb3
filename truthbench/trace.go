package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/stream"
	"truthinference/internal/stream/wal"
	"truthinference/internal/telemetry"
)

// Span is one timed call into a layer, as written to the span file.
// Times are nanoseconds since the tracer started.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the traced run ends, plus plain
// per-name samples (row counts, iteration counts) noted at the same
// boundaries.
type Tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	on    atomic.Bool
	mu    sync.Mutex
	spans []Span
	notes map[string][]float64
}

// newTracer returns a paused tracer; resume starts recording.
func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), notes: map[string][]float64{}}
}

// resume and pause bracket the measured windows, so set-up and teardown
// calls leave no spans. Both are no-ops on a nil tracer.
func (t *Tracer) resume() {
	if t != nil {
		t.on.Store(true)
	}
}

func (t *Tracer) pause() {
	if t != nil {
		t.on.Store(false)
	}
}

// openSpan is a started span; end records it.
type openSpan struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	req    string
	start  time.Time
}

func (t *Tracer) start(name string, parent uint64, req string) openSpan {
	return openSpan{tr: t, id: t.ids.Add(1), parent: parent, name: name, req: req, start: time.Now()}
}

func (o openSpan) end() { o.tr.record(o.id, o.name, o.parent, o.req, o.start, time.Now()) }

// span records a span whose bounds the caller measured itself.
func (t *Tracer) span(name string, parent uint64, start, end time.Time) {
	t.record(t.ids.Add(1), name, parent, "", start, end)
}

func (t *Tracer) record(id uint64, name string, parent uint64, req string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s := Span{ID: id, Parent: parent, Name: name, Req: req, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// note adds one sample to a named series.
func (t *Tracer) note(name string, v float64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.notes[name] = append(t.notes[name], v)
	t.mu.Unlock()
}

// count returns how many samples name has so far.
func (t *Tracer) count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.notes[name])
}

// result returns the recorded spans, with every child's request id
// filled in from its parent, and the noted samples.
func (t *Tracer) result() ([]Span, map[string][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// A parent ends after its children, so it sits later in the slice.
	req := map[uint64]string{}
	for i := len(t.spans) - 1; i >= 0; i-- {
		s := &t.spans[i]
		if s.Req == "" {
			s.Req = req[s.Parent]
		}
		req[s.ID] = s.Req
	}
	return t.spans, t.notes
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, in nanoseconds.
func selfTimes(spans []Span) map[uint64]int64 {
	kids := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// stageSamples groups span self times by span name, in seconds. Names in
// whole keep their full duration instead: their children are reported as
// stages of their own.
func stageSamples(spans []Span, whole map[string]bool) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		d := self[s.ID]
		if whole[s.Name] {
			d = s.End - s.Start
		}
		out[s.Name] = append(out[s.Name], float64(d)/1e9)
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sanitize keeps only [A-Za-z0-9_.-] of a method name, so it can be part
// of a metric name ("D&S" becomes "DS").
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			return r
		}
		return -1
	}, name)
}

// inferCall is the last Infer a tracedMethod saw.
type inferCall struct {
	d          *dataset.Dataset
	start, end time.Time
	iterations int
}

// tracedMethod spans every Infer of the method it wraps, under the span
// parent holds when the call starts.
type tracedMethod struct {
	core.Method
	tr     *Tracer
	name   string
	parent *atomic.Uint64
	last   atomic.Pointer[inferCall]
}

func (m *tracedMethod) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	o := m.tr.start(m.name, m.parent.Load(), "")
	res, err := m.Method.Infer(d, opts)
	o.end()
	if err != nil {
		return nil, err
	}
	m.last.Store(&inferCall{d: d, start: o.start, end: time.Now(), iterations: res.Iterations})
	return res, nil
}

// tracedPersister spans Record (wal.append, under the store.append span
// appendParent holds) and Sync (epoch.flush, under the epoch syncParent
// holds). SyncTo and the rest pass through to the WAL unwrapped: the
// benchmark spans the DurableTo call that reaches SyncTo itself.
type tracedPersister struct {
	*wal.Persister
	tr           *Tracer
	appendParent *atomic.Uint64
	syncParent   *atomic.Uint64
}

func (p *tracedPersister) Record(version uint64, b stream.Batch) error {
	o := p.tr.start("wal.append", p.appendParent.Load(), "")
	err := p.Persister.Record(version, b)
	o.end()
	return err
}

func (p *tracedPersister) Sync() error {
	o := p.tr.start("epoch.flush", p.syncParent.Load(), "")
	err := p.Persister.Sync()
	o.end()
	return err
}

type spanKey struct{}

// traceHTTP spans every ServeHTTP of next as http.serve, naming the
// request by its X-Request-ID (minted when the client sent none) and
// handing the span id to inner handlers through the request context.
func traceHTTP(tr *Tracer, next http.Handler) http.Handler {
	var seq atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(telemetry.RequestIDHeader)
		if id == "" {
			id = fmt.Sprintf("bench-%d", seq.Add(1))
			r.Header.Set(telemetry.RequestIDHeader, id)
		}
		o := tr.start("http.serve", 0, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, o.id)))
		o.end()
	})
}

// spanOf returns the http.serve span a request runs under.
func spanOf(r *http.Request) uint64 {
	id, _ := r.Context().Value(spanKey{}).(uint64)
	return id
}
