package main

import (
	"math"
	"testing"
	"time"
)

func TestTailRuleNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want, got int }{
		{1000, 990, 990}, // exactly 10 beyond p99
		{999, 990, 980},  // 9 beyond p99, 19 beyond p98
		{10000, 999, 999},
		{10000, 990, 990}, // never above the wanted percentile
		{200, 990, 950},
		{40, 990, 750},
		{39, 990, 0}, // 9 beyond p75: no tail at all
	} {
		if got := tailPerMille(c.n, c.want); got != c.got {
			t.Errorf("tailPerMille(%d, %d) = %d, want %d", c.n, c.want, got, c.got)
		}
	}
	for _, c := range []struct{ n, pm, beyond int }{{1000, 990, 10}, {999, 990, 9}, {100, 500, 50}, {101, 500, 50}} {
		if got := beyond(c.n, c.pm); got != c.beyond {
			t.Errorf("beyond(%d, %d) = %d, want %d", c.n, c.pm, got, c.beyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	s := summarize(xs, 990)
	if s.N != 1000 || s.Median != 500.5 || s.Q1 != 250.75 || s.Q3 != 750.25 || s.Sum != 500500 {
		t.Fatalf("summary %+v", s)
	}
	if s.TailPM != 990 || math.Abs(s.Tail-990.01) > 1e-9 {
		t.Fatalf("tail p%d = %v, want p990 = 990.01", s.TailPM, s.Tail)
	}
	if s := summarize(xs[:30], 990); s.TailPM != 0 || s.Tail != 0 {
		t.Fatalf("30 samples reported a tail: %+v", s)
	}
	if s := summarize(nil, 990); s.N != 0 || !math.IsNaN(s.Median) {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "http.serve", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "store.append", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "store.append", Start: 20, End: 50}, // overlaps its sibling
		{ID: 4, Parent: 1, Name: "wal.sync_to", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "wal.append", Start: 12, End: 18},
		{ID: 6, Name: "epoch.total", Start: 200, End: 260},
		{ID: 7, Parent: 6, Name: "epoch.snapshot", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6, 6: 50, 7: 10} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	got := stageSamples(spans, map[string]bool{"epoch.total": true})
	if len(got["store.append"]) != 2 || got["epoch.total"][0] != 60e-9 || got["http.serve"][0] != 50e-9 {
		t.Fatalf("stage samples %v", got)
	}
}

func TestTracerFillsRequestIDs(t *testing.T) {
	tr := newTracer()
	tr.resume()
	root := tr.start("http.serve", 0, "req-1")
	child := tr.start("store.append", root.id, "")
	tr.span("wal.append", child.id, time.Now(), time.Now())
	child.end()
	root.end()
	tr.pause()
	tr.start("dropped", 0, "").end()
	spans, _ := tr.result()
	if len(spans) != 3 {
		t.Fatalf("%d spans recorded, want 3 (nothing while paused)", len(spans))
	}
	for _, s := range spans {
		if s.Req != "req-1" {
			t.Errorf("span %s has request id %q", s.Name, s.Req)
		}
	}
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{"D&S": "DS", "VI-BP": "VI-BP", "LFC_N": "LFC_N", "a b/c.d": "abc.d", "Mean": "Mean"} {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// smokeLayers lists, per workload, per-layer metrics its traced pass
// must measure as non-zero.
var smokeLayers = map[string][]string{
	"ingest": {"http.serve_us", "http.decode_us", "store.append_us", "wal.append_us", "wal.sync_to_us",
		"wal.bytes_per_answer", "wal.fsyncs_per_ack"},
	"refresh": {"epoch.total_ms", "epoch.snapshot_ms", "epoch.index_ms", "epoch.csr_ms", "epoch.sweep_ms",
		"epoch.count", "epoch.iterations_mean", "read.truth_us", "setup.preload_s", "setup.first_epoch_s"},
	"serve-mix": {"http.serve_us", "read.truth_us", "query.catalog_us", "query.disagreement_ms",
		"assign.score_us", "assign.complete_us", "store.append_us"},
	"offline": {"infer.GLAD_s", "infer.DS_s", "infer.csr_s", "infer.iterations", "infer.passes"},
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the outputs pass and the workload's metrics are measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, drive := range workloads {
		t.Run(name, func(t *testing.T) {
			o := opts{workload: name, seed: 3, window: 300 * time.Millisecond, work: t.TempDir()}
			r, err := drive(o, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.bad) > 0 || r.failed > 0 || r.attempted == 0 {
				t.Fatalf("untraced: %d of %d failed: %v", r.failed, r.attempted, r.bad)
			}
			for k, v := range r.endToEnd() {
				if !(v > 0) {
					t.Errorf("end-to-end %s = %v", k, v)
				}
			}
			tr := newTracer()
			traced, err := drive(o, tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(traced.bad) > 0 || traced.failed > 0 {
				t.Fatalf("traced: %d failed: %v", traced.failed, traced.bad)
			}
			spans, notes := tr.result()
			layers := perLayer(spans, notes, traced)
			if len(layers) != len(layerMetrics) {
				t.Errorf("%d per-layer values for %d metrics", len(layers), len(layerMetrics))
			}
			for _, m := range smokeLayers[name] {
				if !(layers[m] > 0) {
					t.Errorf("per-layer %s = %v", m, layers[m])
				}
			}
		})
	}
}
