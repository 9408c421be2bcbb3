package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"truthinference/internal/api"
	"truthinference/internal/dataset"
	"truthinference/internal/simulate"
	"truthinference/internal/stream"
	"truthinference/internal/tenant"
)

// The refresh workload: freshness. A durable D&S tenant preloaded with
// S_Rel at scale 1.0 (generated from dataSeed; the benchmark seed drives
// the traffic) re-infers after every batch (auto-refresh, warm
// start, at most 2 iterations per epoch). One open-loop client posts a
// 50-answer batch every 20 ms, timed from when it was due; a second
// client polls GET truth and notes the served version, so a batch is
// visible at the first poll that reports its acked version or later.
//
// Epochs run sequentially (parallelism 1). On two cores a two-worker
// sweep shares them with the poller, the client and the fsyncs, so its
// time followed the scheduler and the host's load far more than the
// epoch's own work (README.md gives the spreads).
const (
	refreshEvery    = 20 * time.Millisecond
	refreshPerBatch = 50
	setups          = 9 // boots per run; the last one is measured
	refreshPoll     = 2 * time.Millisecond
	visibleTimeout  = 30 * time.Second
)

// preloadFrame is the answer count of one preload frame.
const preloadFrame = 10000

func runRefresh(o opts, tr *Tracer) (*run, error) {
	d := simulate.Generate(simulate.SRel, dataSeed)
	preload, err := preloadBody(d)
	if err != nil {
		return nil, err
	}
	cfg := tenant.Config{Method: "D&S", TaskType: "single-choice", Choices: d.NumChoices, Seed: o.seed, MaxIter: 2, Parallelism: 1}
	r := newRun()
	p, err := setupRepeated(o, "refresh", true, cfg, preload, tr, r)
	if err != nil {
		return nil, err
	}
	defer p.close()

	rng := rand.New(rand.NewSource(o.seed))
	n := int(o.window / refreshEvery)
	bodies := make([][]byte, n)
	for i := range bodies {
		if bodies[i], err = stream.EncodeBatchStream(randomBatches(rng, 1, refreshPerBatch, d.NumTasks, d.NumWorkers, d.NumChoices)); err != nil {
			return nil, err
		}
	}

	type poll struct {
		at      time.Time
		version uint64
	}
	var (
		polls    []poll // poller goroutine only, until it has stopped
		pollErrs []error
		seen     atomic.Uint64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	tr.resume()
	wg.Add(1)
	go func() {
		defer wg.Done()
		prng := rand.New(rand.NewSource(o.seed + 1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			t := time.Now()
			var resp struct{ Version uint64 }
			if err := call(p.hc, "GET", fmt.Sprintf("%s/truth/%d", p.base, prng.Intn(d.NumTasks)), "", nil, &resp); err != nil {
				pollErrs = append(pollErrs, err)
			} else {
				polls = append(polls, poll{time.Now(), resp.Version})
				seen.Store(max(seen.Load(), resp.Version))
			}
			time.Sleep(time.Until(t.Add(refreshPoll)))
		}
	}()

	type batch struct {
		due, sent, acked time.Time
		version          uint64
	}
	batches := make([]batch, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * refreshEvery)
		time.Sleep(time.Until(due))
		b := batch{due: due, sent: time.Now()}
		var resp api.BatchIngestResponse
		err := call(p.hc, "POST", p.base+"/ingest-batch", "application/octet-stream", bodies[i], &resp)
		b.acked = time.Now()
		if err == nil && (!resp.Durable || resp.DurableVersion < resp.Version) {
			err = fmt.Errorf("ack of version %d is not durable", resp.Version)
		}
		if r.op(err, "POST ingest-batch") {
			b.version = resp.Version
			batches = append(batches, b)
		}
	}
	r.elapsed = time.Since(start).Seconds()
	var last uint64
	for _, b := range batches {
		last = max(last, b.version)
	}
	for wait := time.Now(); seen.Load() < last && time.Since(wait) < visibleTimeout; {
		time.Sleep(refreshPoll)
	}
	close(stop)
	wg.Wait()
	tr.pause()

	for _, err := range pollErrs {
		r.op(err, "GET truth")
	}
	r.attempted += len(polls)
	monotone := sort.SliceIsSorted(polls, func(i, j int) bool { return polls[i].version < polls[j].version })
	r.check(monotone, "served versions went backwards")
	var durable, lateness []float64
	for _, b := range batches {
		durable = append(durable, ms(b.acked.Sub(b.due)))
		lateness = append(lateness, ms(b.sent.Sub(b.due)))
		j := sort.Search(len(polls), func(j int) bool { return polls[j].version >= b.version })
		r.check(j < len(polls), "batch at version %d never became visible", b.version)
		if j < len(polls) {
			r.lat = append(r.lat, ms(polls[j].at.Sub(b.due)))
		}
	}
	r.work = float64(len(r.lat) * refreshPerBatch)
	late := summarize(lateness, 990)
	r.rows = append(latencyRows("durable_ack", durable, true), latencyRows("visible", r.lat, true)...)
	r.rows = append(r.rows, row{name: "generator_lateness_ms", unit: "ms", s: late},
		row{name: "generator_late_max_ms", unit: "ms", value: quantile(sortedCopy(lateness), 1)})
	if tr != nil {
		epochs := float64(tr.count("epoch.iterations"))
		r.layerVals["epoch.batches_per_epoch"] = float64(len(batches)) / math.Max(epochs, 1)
		r.layerVals["client.lateness_ms"] = late.Median
		r.layerVals["wal.bytes_per_answer"] = float64(dirBytes(p.dir)) / float64(max(p.svc.Stats().Answers, 1))
		r.layerVals["wal.fsyncs_per_ack"] = p.hand.fsyncsPerAck()
	}
	return r, nil
}

// setupRepeated boots the tenant setups times, tearing down all
// but the last, and records each boot as a set-up sample: project
// create, preload ingest and first epoch.
func setupRepeated(o opts, name string, durable bool, cfg tenant.Config, preload []byte, tr *Tracer, r *run) (*project, error) {
	var p *project
	root := ""
	for i := 0; i < setups; i++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(root)
		}
		if durable {
			root = filepath.Join(o.work, fmt.Sprintf("%s-%d", name, i))
		}
		t0 := time.Now()
		var err error
		if p, err = openProject(root, cfg, tr); err != nil {
			return nil, err
		}
		t1 := time.Now()
		err = call(p.hc, "POST", p.base+"/ingest-batch", "application/octet-stream", preload, nil)
		t2 := time.Now()
		if err == nil {
			err = call(p.hc, "POST", p.base+"/refresh", "", nil, nil)
		}
		t3 := time.Now()
		if err != nil {
			p.close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		r.setups = append(r.setups, t3.Sub(t0).Seconds())
		r.layerSamples["setup.preload"] = append(r.layerSamples["setup.preload"], t2.Sub(t1).Seconds())
		r.layerSamples["setup.first_epoch"] = append(r.layerSamples["setup.first_epoch"], t3.Sub(t2).Seconds())
	}
	return p, nil
}

// preloadBody encodes a dataset as one batch-stream request: the first
// frame carries the board size and the recorded truths.
func preloadBody(d *dataset.Dataset) ([]byte, error) {
	var batches []stream.Batch
	for lo := 0; lo < len(d.Answers); lo += preloadFrame {
		batches = append(batches, stream.Batch{Answers: d.Answers[lo:min(lo+preloadFrame, len(d.Answers))]})
	}
	if len(batches) == 0 {
		return nil, errors.New("preload dataset has no answers")
	}
	batches[0].NumTasks, batches[0].NumWorkers, batches[0].Truth = d.NumTasks, d.NumWorkers, d.Truth
	return stream.EncodeBatchStream(batches)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
