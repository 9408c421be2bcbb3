package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	ti "truthinference"
	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/simulate"
)

// The offline workload: the paper's own experiment. Every method runs a
// cold Infer on each of the five paper datasets it supports, in one
// process with no HTTP or WAL, pass after pass until the window is over.
// The datasets are fixed (generated from dataSeed, as the paper's
// datasets are fixed), so each cell's quality can be checked against
// offline_quality.json; the benchmark seed orders the cells.
const (
	offlineScale      = 0.1
	offlineMethodSeed = 1
	offlineSetups     = 9
	// qualityTol absorbs float reassociation in the numeric methods' MAE;
	// categorical accuracies are ratios of counts and match exactly.
	qualityTol = 1e-9
)

//go:embed offline_quality.json
var qualityJSON []byte

// qualityTable is offline_quality.json: each "dataset/method" cell's
// accuracy (categorical) or MAE (numeric) at offlineScale.
type qualityTable struct {
	Scale      float64            `json:"scale"`
	DataSeed   int64              `json:"data_seed"`
	MethodSeed int64              `json:"method_seed"`
	Quality    map[string]float64 `json:"quality"`
}

type cell struct {
	d *dataset.Dataset
	m core.Method
}

func (c cell) key() string { return c.d.Name + "/" + c.m.Name() }

// offlineCells generates the five datasets and pairs each with every
// method that supports its task type, in registry order.
func offlineCells() []cell {
	var cells []cell
	for _, k := range simulate.Kinds {
		d := simulate.GenerateScaled(k, dataSeed, offlineScale)
		for _, m := range ti.MethodsForType(d.Type) {
			cells = append(cells, cell{d, m})
		}
	}
	return cells
}

// quality is the paper's quality metric for one result.
func quality(d *dataset.Dataset, res *core.Result) float64 {
	if d.Type == dataset.Numeric {
		return ti.MAE(res.Truth, d.Truth)
	}
	return ti.Accuracy(res.Truth, d.Truth)
}

func runOffline(o opts, tr *Tracer) (*run, error) {
	var want qualityTable
	if err := json.Unmarshal(qualityJSON, &want); err != nil {
		return nil, fmt.Errorf("offline_quality.json: %w", err)
	}
	r := newRun()
	var cells []cell
	for i := 0; i < offlineSetups; i++ {
		t := time.Now()
		cells = offlineCells()
		r.setups = append(r.setups, time.Since(t).Seconds())
	}
	rand.New(rand.NewSource(o.seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	var noParent atomic.Uint64
	if tr != nil {
		for i := range cells {
			cells[i].m = &tracedMethod{Method: cells[i].m, tr: tr, name: "infer." + sanitize(cells[i].m.Name()), parent: &noParent}
		}
	}
	opts := core.Options{Seed: offlineMethodSeed}
	var passTimes []float64
	iterations, answers := 0, 0
	tr.resume()
	start := time.Now()
	for len(passTimes) == 0 || time.Since(start) < o.window {
		pass := time.Now()
		for _, c := range cells {
			res, err := c.m.Infer(c.d, opts)
			if !r.op(err, c.key()) {
				continue
			}
			answers += len(c.d.Answers)
			iterations += res.Iterations
			if len(passTimes) == 0 {
				got, ok := want.Quality[c.key()]
				q := quality(c.d, res)
				r.check(ok && math.Abs(q-got) <= qualityTol*math.Max(1, math.Abs(got)),
					"%s: quality %v, offline_quality.json records %v", c.key(), q, got)
			}
		}
		if tr != nil {
			built := map[*dataset.Dataset]bool{}
			for _, c := range cells {
				if !built[c.d] {
					built[c.d] = true
					t := time.Now()
					dataset.BuildCSR(c.d)
					tr.span("infer.csr", 0, t, time.Now())
				}
			}
		}
		took := time.Since(pass).Seconds()
		passTimes = append(passTimes, took)
		r.lat = append(r.lat, took*1e3)
		r.rates = append(r.rates, float64(answers)/took)
		r.work += float64(answers)
		answers = 0
	}
	r.elapsed = time.Since(start).Seconds()
	tr.pause()
	r.rows = []row{{name: "infer_s", unit: "s", s: summarize(passTimes, 0)}}
	r.layerVals["infer.passes"] = float64(len(passTimes))
	r.layerVals["infer.iterations"] = float64(iterations) / float64(len(passTimes))
	return r, nil
}

// recordQuality runs every cell once and writes the quality table the
// offline output check compares against.
func recordQuality(path string) error {
	t := qualityTable{Scale: offlineScale, DataSeed: dataSeed, MethodSeed: offlineMethodSeed, Quality: map[string]float64{}}
	for _, c := range offlineCells() {
		res, err := c.m.Infer(c.d, core.Options{Seed: offlineMethodSeed})
		if err != nil {
			return fmt.Errorf("%s: %w", c.key(), err)
		}
		t.Quality[c.key()] = quality(c.d, res)
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
