package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"truthinference/internal/api"
	"truthinference/internal/assign"
	"truthinference/internal/query"
	"truthinference/internal/simulate"
	"truthinference/internal/tenant"
)

// The serve-mix workload: reads beside writes. A memory-only MV tenant
// with an uncertainty assignment ledger, preloaded with D_Product at
// scale 1.0, serves two closed-loop clients drawing a seeded mix: 70% GET
// truth, 10% a canned query view (round-robin), 10% assign plus complete
// for a fresh worker id, and 10% a single-answer JSON ingest.
const serveMixClients = 2

func runServeMix(o opts, tr *Tracer) (*run, error) {
	d := simulate.Generate(simulate.DProduct, dataSeed)
	preload, err := preloadBody(d)
	if err != nil {
		return nil, err
	}
	// Fresh workers never repeat a task and the budget is unlimited, so the
	// ledger always has a task to lease.
	cfg := tenant.Config{Method: "MV", Seed: o.seed, Assign: &assign.Spec{Policy: "uncertainty", Redundancy: 1 << 20}}
	r := newRun()
	p, err := setupRepeated(o, "serve-mix", false, cfg, preload, tr, r)
	if err != nil {
		return nil, err
	}
	defer p.close()

	var (
		mu                      sync.Mutex
		reads, queries, assigns []float64
		writes, ends            []float64
		completes, written      int
		leased                  = map[[2]int]bool{}
		nextWorker              atomic.Int64
		nextView                atomic.Uint64
	)
	nextWorker.Store(int64(d.NumWorkers))
	rngs := make([]*rand.Rand, serveMixClients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(o.seed*1000 + int64(c)))
	}
	tr.resume()
	start := time.Now()
	r.elapsed = closedLoop(serveMixClients, o.window, func(c, _ int) {
		rng := rngs[c]
		t := time.Now()
		var (
			err  error
			kind *[]float64
		)
		switch x := rng.Float64(); {
		case x < 0.7:
			kind = &reads
			err = call(p.hc, "GET", fmt.Sprintf("%s/truth/%d", p.base, rng.Intn(d.NumTasks)), "", nil, nil)
		case x < 0.8:
			kind = &queries
			body, _ := json.Marshal(api.QueryRequest{View: query.ViewNames[nextView.Add(1)%uint64(len(query.ViewNames))]})
			err = call(p.hc, "POST", p.base+"/query", "application/json", body, nil)
		case x < 0.9:
			kind = &assigns
			worker := int(nextWorker.Add(1))
			var lease assign.Lease
			if err = call(p.hc, "GET", fmt.Sprintf("%s/assign?worker=%d", p.base, worker), "", nil, &lease); err == nil {
				body, _ := json.Marshal(api.CompleteRequest{LeaseID: lease.ID, Worker: worker, Value: float64(rng.Intn(2))})
				err = call(p.hc, "POST", p.base+"/complete", "application/json", body, nil)
			}
			if err == nil {
				mu.Lock()
				r.check(!leased[[2]int{worker, lease.Task}], "worker %d was leased task %d twice", worker, lease.Task)
				leased[[2]int{worker, lease.Task}] = true
				completes++
				mu.Unlock()
			}
		default:
			kind = &writes
			body, _ := json.Marshal(api.IngestRequest{Answers: []api.Answer{{Task: rng.Intn(d.NumTasks), Worker: rng.Intn(d.NumWorkers), Value: float64(rng.Intn(2))}}})
			if err = call(p.hc, "POST", p.base+"/ingest", "application/json", body, nil); err == nil {
				mu.Lock()
				written++
				mu.Unlock()
			}
		}
		took := msSince(t)
		mu.Lock()
		defer mu.Unlock()
		if r.op(err, "serve-mix request") {
			*kind = append(*kind, took)
			r.lat = append(r.lat, took)
			ends = append(ends, time.Since(start).Seconds())
		}
	})
	tr.pause()

	want := len(d.Answers) + completes + written
	got := p.svc.Stats().Answers
	r.check(got == want, "store holds %d answers, want preload %d + completes %d + single writes %d", got, len(d.Answers), completes, written)
	r.work = float64(len(r.lat))
	r.rows = append(latencyRows("ack", writes, true), latencyRows("read", reads, true)...)
	r.rows = append(r.rows, latencyRows("query", queries, false)...)
	r.rows = append(r.rows, latencyRows("assign", assigns, true)...)
	r.rates = perSecond(ends, r.elapsed)
	r.rows = append(r.rows, row{name: "ops_per_s", unit: "1/s", s: summarize(r.rates, 0)})
	return r, nil
}

// perSecond counts the events in each whole second of a window, given
// their times in seconds from its start.
func perSecond(at []float64, window float64) []float64 {
	out := make([]float64, int(window))
	for _, t := range at {
		if i := int(t); i < len(out) {
			out[i]++
		}
	}
	return out
}
