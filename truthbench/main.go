// Command truthbench is the repository's benchmark: it runs one named
// workload against truthserve, as tenant.Registry.Handler() serves it, or
// against the offline Infer path, checks the outputs, and prints every
// metric by name. The last line of standard output is one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced run (--trace 1). README.md in this directory maps every
// metric to the call that produces it.
//
//	bash truthbench/run.sh --workload refresh --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to the function that runs its
// set-ups and measured window with tr (nil = untraced) and returns what
// it saw.
var workloads = map[string]func(o opts, tr *Tracer) (*run, error){
	"ingest":    runIngest,
	"refresh":   runRefresh,
	"serve-mix": runServeMix,
	"offline":   runOffline,
}

// dataSeed generates the paper datasets the workloads preload or infer
// over. They stay fixed, as the paper's datasets are; the benchmark seed
// drives the traffic and the order of the work.
const dataSeed = 1

// opts is one invocation's settings.
type opts struct {
	workload string
	seed     int64
	window   time.Duration // measured time
	work     string        // directory for the workloads' durable state
}

// run is what one pass over a workload saw.
type run struct {
	setups  []float64 // seconds per set-up: boot to ready
	lat     []float64 // the headline latency, ms
	work    float64   // units of work completed in the measured window
	elapsed float64   // measured seconds
	rates   []float64 // work per second in each sub-window, when the workload has them

	attempted, failed int
	bad               []string // the first failures, for the report

	rows []row // the named metrics, for the human-readable table

	// Per-layer samples in seconds and single values the workload measured
	// itself, beside the tracer's spans (traced pass only).
	layerSamples map[string][]float64
	layerVals    map[string]float64
}

func newRun() *run {
	return &run{layerSamples: map[string][]float64{}, layerVals: map[string]float64{}}
}

// op counts one attempted operation, and a failure when err is non-nil.
// It reports whether the operation succeeded.
func (r *run) op(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.fault("%s: %v", what, err)
	}
	return err == nil
}

// check counts one output check; a failed check counts in fail_ratio.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fault(format, args...)
	}
}

func (r *run) fault(format string, args ...any) {
	r.failed++
	if len(r.bad) < 20 {
		r.bad = append(r.bad, fmt.Sprintf(format, args...))
	}
}

// row is one named metric of the human-readable table.
type row struct {
	name, unit string
	s          summary
	value      float64 // used when s.N == 0
	tail       bool    // report s.Tail rather than s.Median
}

func latencyRows(prefix string, samples []float64, withTail bool) []row {
	s := summarize(samples, 990)
	rows := []row{{name: prefix + "_p50_ms", unit: "ms", s: s}}
	if withTail {
		rows = append(rows, row{name: prefix + "_p99_ms", unit: "ms", s: s, tail: true})
	}
	return rows
}

// endToEnd reduces a run to the metrics BENCHMARK.json gates on: the
// median set-up, the median headline latency, and the work rate (the
// median over sub-windows where the workload has them, so a burst of
// outside load moves it less).
func (r *run) endToEnd() map[string]float64 {
	work := r.work / r.elapsed
	if len(r.rates) > 0 {
		work = summarize(r.rates, 0).Median
	}
	return map[string]float64{
		"setup_s":    summarize(r.setups, 0).Median,
		"p50_ms":     summarize(r.lat, 0).Median,
		"work_per_s": work,
	}
}

// e2eNames lists the gated end-to-end metrics with their units.
var e2eNames = []struct{ name, unit string }{{"setup_s", "s"}, {"p50_ms", "ms"}, {"work_per_s", "1/s"}}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func main() {
	var o opts
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: ingest, refresh, serve-mix or offline")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&seconds, "seconds", 30, "measured seconds per pass")
	flag.IntVar(&trace, "trace", 0, "1 = also make a traced pass and report per-layer metrics")
	record := flag.String("record-quality", "", "write the offline quality table to this file and exit")
	flag.Parse()
	o.window = time.Duration(seconds * float64(time.Second))
	o.work = filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	workDir = o.work
	if *record != "" {
		if err := recordQuality(*record); err != nil {
			fail(err)
		}
		return
	}
	drive, ok := workloads[o.workload]
	if !ok || o.window <= 0 || trace < 0 || trace > 1 {
		fail(fmt.Errorf("usage: --workload ingest|refresh|serve-mix|offline --seed N --seconds S --trace 0|1"))
	}
	defer os.RemoveAll(o.work)

	res, err := drive(o, nil)
	if err != nil {
		fail(err)
	}
	e2e := res.endToEnd()
	printTable(o.workload, res, e2e)
	out := map[string]metric{}
	for _, m := range e2eNames {
		out[m.name] = metric{e2e[m.name], m.unit}
	}
	correct := len(res.bad) == 0 && res.failed == 0
	attempted, failed := res.attempted, res.failed
	if trace == 1 {
		tr := newTracer()
		traced, err := drive(o, tr)
		if err != nil {
			fail(err)
		}
		spans, notes := tr.result()
		path := filepath.Join(".bench_build", "spans-"+o.workload+".jsonl")
		if err := writeSpans(path, spans); err != nil {
			fail(err)
		}
		layers := perLayer(spans, notes, traced)
		te2e := traced.endToEnd()
		for _, m := range e2eNames {
			layers["overhead."+m.name] = te2e[m.name] - e2e[m.name]
		}
		fmt.Printf("traced pass: %d spans written to %s; tracing overhead = traced minus untraced end-to-end\n", len(spans), path)
		out = map[string]metric{}
		for _, l := range layerMetrics {
			out[l.name] = metric{layers[l.name], l.unit}
		}
		correct = correct && len(traced.bad) == 0 && traced.failed == 0
		attempted += traced.attempted
		failed += traced.failed
		for _, b := range traced.bad {
			fmt.Println("traced pass output check failed:", b)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, out})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !correct {
		os.RemoveAll(o.work)
		os.Exit(1)
	}
}

// metric is one entry of the JSON result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON keeps the line valid JSON should a value be undefined.
func (m metric) MarshalJSON() ([]byte, error) {
	v := m.Value
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return json.Marshal(struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}{v, m.Unit})
}

// workDir is removed on every exit path, fail included.
var workDir string

func fail(err error) {
	os.RemoveAll(workDir)
	fmt.Fprintln(os.Stderr, "truthbench:", err)
	os.Exit(2)
}

// printTable prints the workload's named metrics with unit, spread and
// sample count, then the gated end-to-end values and any failed check.
func printTable(workload string, r *run, e2e map[string]float64) {
	fmt.Printf("workload %s: %.1f s measured, %d operations attempted, %d failed\n", workload, r.elapsed, r.attempted, r.failed)
	rows := append([]row{
		{name: "setup_s", unit: "s", s: summarize(r.setups, 0)},
		{name: "fail_ratio", unit: "ratio", value: float64(r.failed) / float64(max(r.attempted, 1))},
	}, r.rows...)
	for _, x := range rows {
		switch {
		case x.s.N == 0:
			fmt.Printf("  %-22s %14.6g %-6s\n", x.name, x.value, x.unit)
		case x.tail && x.s.TailPM < 990:
			fmt.Printf("  %-22s %14s %-6s n=%d: p99 needs %d samples beyond it; highest reportable is p%.1f = %.6g\n",
				x.name, "n/a", x.unit, x.s.N, minBeyond, float64(x.s.TailPM)/10, x.s.Tail)
		case x.tail:
			fmt.Printf("  %-22s %14.6g %-6s n=%d\n", x.name, x.s.Tail, x.unit, x.s.N)
		default:
			fmt.Printf("  %-22s %14.6g %-6s q1..q3 %.6g..%.6g  n=%d\n", x.name, x.s.Median, x.unit, x.s.Q1, x.s.Q3, x.s.N)
		}
	}
	fmt.Print("  gated:")
	for _, m := range e2eNames {
		fmt.Printf(" %s=%.6g %s", m.name, e2e[m.name], m.unit)
	}
	fmt.Println()
	for _, b := range r.bad {
		fmt.Println("  output check failed:", b)
	}
}
