// Package pm implements PM (Li et al., "Resolving conflicts in
// heterogeneous data by truth discovery and source reliability
// estimation", SIGMOD 2014; Aydin et al., AAAI 2014) as surveyed in
// §5.2(1) and worked through in the paper's §3 running example.
//
// PM minimizes  f({q_w},{v*_i}) = Σ_w q_w Σ_{i∈T^w} d(v^w_i, v*_i)
// by coordinate descent:
//
//	Step 1 (truth):   v*_i = argmin_v Σ_{w∈W_i} q_w · d(v^w_i, v)
//	                  (for categorical tasks: the quality-weighted vote)
//	Step 2 (quality): q_w = -log( Σ_{i∈T^w} d(v^w_i, v*_i)
//	                              / max_{w'} Σ_{i∈T^w'} d(v^{w'}_i, v*_i) )
//
// For categorical tasks d is the 0/1 loss; for numeric tasks d is the
// squared loss normalized by each task's answer spread, which makes the
// losses comparable across tasks of different scales (the standard CRH
// normalization).
package pm

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
)

// lossEpsilon regularizes the -log quality step: a worker with zero
// accumulated loss would otherwise get infinite weight, and the worker
// with maximal loss zero weight forever. The paper's running example
// exhibits exactly this (q_{w1} → 4.9e-15), so the epsilon is kept tiny.
const lossEpsilon = 1e-12

// PM is the conflict-resolution optimization method.
type PM struct{}

// New returns a PM instance.
func New() *PM { return &PM{} }

// Name implements core.Method.
func (*PM) Name() string { return "PM" }

// Capabilities implements core.Method (Table 4 row: decision-making,
// single-choice and numeric tasks, worker probability, optimization).
func (*PM) Capabilities() core.Capabilities {
	return core.Capabilities{
		TaskTypes:     []dataset.TaskType{dataset.Decision, dataset.SingleChoice, dataset.Numeric},
		TaskModel:     "none",
		WorkerModel:   "worker probability",
		Technique:     core.Optimization,
		Qualification: true,
		Golden:        true,
	}
}

// Infer implements core.Method.
func (m *PM) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	var q []float64
	// floor replaces a new weight of zero or below: lossEpsilon keeps
	// numeric weights strictly positive, while the categorical worst
	// worker keeps weight 0 (there the floor only turns the -0 of -log(1)
	// into +0, since a loss never exceeds the maximum).
	floor := lossEpsilon
	if d.Categorical() {
		// Map qualification accuracy onto the PM weight scale: a worker
		// with error rate (1-acc) behaves like one whose normalized loss
		// is (1-acc), so seed with -log(1-acc).
		q = initialQuality(d, opts, func(acc float64) float64 {
			return -math.Log(math.Max(1-acc, lossEpsilon))
		})
		floor = 0
	} else {
		q = initialQuality(d, opts, func(_ float64) float64 { return 1 })
		if opts.QualificationError != nil {
			maxErr := lossEpsilon
			for _, e := range opts.QualificationError {
				if !math.IsNaN(e) && e > maxErr {
					maxErr = e
				}
			}
			for w := range q {
				if !math.IsNaN(opts.QualificationError[w]) {
					q[w] = -math.Log((opts.QualificationError[w] + lossEpsilon) / (maxErr + lossEpsilon))
					if q[w] <= 0 {
						q[w] = lossEpsilon
					}
				}
			}
		}
	}
	warmQuality(opts, q)

	c := d.CSR()
	// Step 2: q_w = -log(loss_w / max loss). O(workers) per iteration,
	// far off the hot path.
	truth, iter, converged := Optimize(d, opts, q, func(losses []float64) {
		maxLoss := lossEpsilon
		for _, loss := range losses {
			if loss > maxLoss {
				maxLoss = loss
			}
		}
		for w, loss := range losses {
			if c.WorkerDegree(w) == 0 {
				continue
			}
			qw := -math.Log((loss + lossEpsilon) / (maxLoss + lossEpsilon))
			if qw <= 0 {
				qw = floor
			}
			q[w] = qw
		}
	})
	return &core.Result{
		Truth:         truth,
		WorkerQuality: q,
		Iterations:    iter,
		Converged:     converged,
	}, nil
}

// Optimize runs the coordinate descent PM and CATD share, the paper's
// Algorithm 1 with a weighted-aggregation truth step, and leaves the
// quality step to weigh. q holds the starting weights. Each iteration
// sets every truth to the q-weighted vote (categorical tasks) or the
// q-weighted mean (numeric tasks), golden tasks keeping their known
// truth, then sums each worker's loss against the new truths, the 0/1
// loss or the squared loss scaled by TaskScales, and passes the sums to
// weigh, which must rewrite q in place; a worker without answers has
// loss 0. Numeric runs stop once no truth moves by the tolerance.
// Categorical truths are labels: the run stops once an iteration after
// the first changed no label, whatever the tolerance.
func Optimize(d *dataset.Dataset, opts core.Options, q []float64, weigh func(losses []float64)) (truth []float64, iterations int, converged bool) {
	if d.Categorical() {
		return optimizeCategorical(d, opts, q, weigh)
	}
	return optimizeNumeric(d, opts, q, weigh)
}

func optimizeCategorical(d *dataset.Dataset, opts core.Options, q []float64, weigh func(losses []float64)) ([]float64, int, bool) {
	pool := opts.EnginePool()
	c := d.CSR()
	truth := make([]float64, d.NumTasks)
	prevTruth := make([]float64, d.NumTasks)
	losses := make([]float64, d.NumWorkers)
	// Per-slot scratch: ForSlot guarantees concurrent chunks see distinct
	// slots, so one buffer per pool worker replaces the fresh scratch the
	// old per-chunk closure allocated. A slot may claim several chunks per
	// sweep, so its loss accumulator is zeroed before the sweep, never
	// inside it.
	votesBySlot := make([][]float64, pool.Workers())
	lossBySlot := make([][]float64, pool.Workers())
	for s := range votesBySlot {
		votesBySlot[s] = make([]float64, d.NumChoices)
		lossBySlot[s] = make([]float64, d.NumWorkers)
	}

	// Fused step 1 + loss count: the quality-weighted vote fans out over
	// tasks, and because the categorical 0/1 loss is an exact integer
	// count, each task can fold its answers' losses into a per-slot
	// accumulator on the spot — integer-valued float64 additions are exact
	// in any order, so the per-slot sums reduced in fixed slot order
	// reproduce a separate worker-major sweep bit for bit while visiting
	// every answer once instead of twice. Vote ties are broken by a hash
	// of (seed, iteration, task) instead of a shared RNG so the pick is
	// the same at every parallelism level. curIter is read through the
	// closure each sweep.
	var curIter int64
	hasGolden := len(opts.Golden) > 0
	truthStep := func(slot, ilo, ihi int) {
		// Hoist the CSR arrays into locals: the writes through votes and
		// lossW would otherwise force the compiler to reload the struct
		// fields' slice headers on every iteration.
		taskOff, taskLabel, taskWorker := c.TaskOff, c.TaskLabel, c.TaskWorker
		votes := votesBySlot[slot]
		lossW := lossBySlot[slot]
		for i := ilo; i < ihi; i++ {
			lo, hi := int(taskOff[i]), int(taskOff[i+1])
			// Reslicing to the task's band lets range drive the label loop
			// with a single up-front bounds check instead of one per answer.
			labels := taskLabel[lo:hi]
			workers := taskWorker[lo:hi]
			if gv, ok := goldenAt(opts.Golden, hasGolden, i); ok {
				truth[i] = gv
			} else {
				if lo == hi {
					continue
				}
				for k := range votes {
					votes[k] = 0
				}
				for j, lb := range labels {
					votes[lb] += q[workers[j]]
				}
				// The argmax with exact ties broken by
				// randx.HashPick3(ties, seed, iteration, task), the rank
				// counted in index order among the tied labels, written
				// out inline because this is the method's hottest loop.
				best := votes[0]
				pick, ties := 0, 1
				for k := 1; k < len(votes); k++ {
					switch x := votes[k]; {
					case x > best:
						best, pick, ties = x, k, 1
					case x == best:
						ties++
					}
				}
				if ties > 1 {
					rank := randx.HashPick3(ties, opts.Seed, curIter, int64(i))
					for k := pick; ; k++ {
						if votes[k] == best {
							if rank == 0 {
								pick = k
								break
							}
							rank--
						}
					}
				}
				truth[i] = float64(pick)
			}
			lab := int(truth[i])
			// Branchless 0/1 loss: the mismatch bit becomes a +0.0/+1.0
			// addend (a conditional move, not a ~half-mispredicted branch),
			// and adding +0.0 is exact, so the counts are unchanged.
			for j, lb := range labels {
				var miss float64
				if int(lb) != lab {
					miss = 1
				}
				lossW[workers[j]] += miss
			}
		}
	}
	if d.NumChoices == 2 {
		// Decision fast path: the two vote tallies live in registers
		// instead of the votes array, accumulated branchlessly — adding
		// q·0.0 to the other tally is an exact no-op for finite weights,
		// so the per-label accumulation order (and hence every bit)
		// matches the generic kernel — and the two-way argmax + hash
		// tie-break is inlined (rank 0 keeps label 0, so the pick is the
		// hash rank itself, exactly the generic kernel's walk).
		truthStep = func(slot, ilo, ihi int) {
			taskOff, taskLabel, taskWorker := c.TaskOff, c.TaskLabel, c.TaskWorker
			lossW := lossBySlot[slot]
			for i := ilo; i < ihi; i++ {
				lo, hi := int(taskOff[i]), int(taskOff[i+1])
				labels := taskLabel[lo:hi]
				workers := taskWorker[lo:hi]
				if gv, ok := goldenAt(opts.Golden, hasGolden, i); ok {
					truth[i] = gv
				} else {
					if lo == hi {
						continue
					}
					var v0, v1 float64
					for j, lb := range labels {
						qw := q[workers[j]]
						fl := float64(lb)
						v0 += qw * (1 - fl)
						v1 += qw * fl
					}
					pick := 0
					switch {
					case v1 > v0:
						pick = 1
					case v1 == v0:
						pick = randx.HashPick3(2, opts.Seed, curIter, int64(i))
					}
					truth[i] = float64(pick)
				}
				lab := int(truth[i])
				for j, lb := range labels {
					var miss float64
					if int(lb) != lab {
						miss = 1
					}
					lossW[workers[j]] += miss
				}
			}
		}
	}

	iter, converged := core.Iterate(opts, func(iter int) bool {
		copy(prevTruth, truth)
		curIter = int64(iter)
		for _, ls := range lossBySlot {
			for w := range ls {
				ls[w] = 0
			}
		}
		pool.ForSlot(d.NumTasks, truthStep)
		// Reduce the per-slot counts in fixed slot order: O(slots·workers),
		// far off the hot path.
		copy(losses, lossBySlot[0])
		for s := 1; s < len(lossBySlot); s++ {
			for w, v := range lossBySlot[s] {
				losses[w] += v
			}
		}
		weigh(losses)
		return iter > 1 && core.MaxAbsDiff(truth, prevTruth) == 0
	})
	return truth, iter, converged
}

func optimizeNumeric(d *dataset.Dataset, opts core.Options, q []float64, weigh func(losses []float64)) ([]float64, int, bool) {
	// Per-task scale for the CRH loss normalization.
	scale := TaskScales(d)

	pool := opts.EnginePool()
	c := d.CSR()
	truth := make([]float64, d.NumTasks)
	losses := make([]float64, d.NumWorkers)

	// Step 1: weighted mean minimizes the weighted squared loss; fanned
	// out over tasks.
	truthStep := func(_, ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			if gv, ok := opts.Golden[i]; ok {
				truth[i] = gv
				continue
			}
			if c.TaskDegree(i) == 0 {
				continue
			}
			var num, den float64
			for p := c.TaskOff[i]; p < c.TaskOff[i+1]; p++ {
				qw := q[c.TaskWorker[p]]
				num += qw * c.TaskValue[p]
				den += qw
			}
			if den > 0 {
				truth[i] = num / den
			}
		}
	}
	// Normalized squared losses, fanned out over workers.
	lossStep := func(_, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			var loss float64
			for p := c.WorkerOff[w]; p < c.WorkerOff[w+1]; p++ {
				t := c.WorkerTask[p]
				dv := (c.WorkerValue[p] - truth[t]) / scale[t]
				loss += dv * dv
			}
			losses[w] = loss
		}
	}

	iter, converged := core.Iterate(opts, func(int) bool {
		pool.ForSlot(d.NumTasks, truthStep)
		pool.ForSlot(d.NumWorkers, lossStep)
		weigh(losses)
		return false
	}, truth)
	return truth, iter, converged
}

// warmQuality resumes the previous epoch's -log-scale weights for every
// worker a warm start covers; later arrivals keep their cold weights.
func warmQuality(opts core.Options, q []float64) {
	for w := range q {
		q[w] = opts.WarmStart.QualityOr(w, q[w])
	}
}

// initialQuality starts every worker at weight 1 (the paper's §3
// initialization) or maps a qualification-test accuracy through seed.
func initialQuality(d *dataset.Dataset, opts core.Options, seed func(acc float64) float64) []float64 {
	q := make([]float64, d.NumWorkers)
	for w := range q {
		q[w] = 1
		if opts.QualificationAccuracy != nil && !math.IsNaN(opts.QualificationAccuracy[w]) {
			q[w] = math.Max(seed(mathx.Clamp(opts.QualificationAccuracy[w], 0, 1)), lossEpsilon)
		}
	}
	return q
}

// TaskScales returns the per-task normalizer of the numeric loss (the
// standard CRH normalization): the standard deviation of the task's
// answers, floored at a small fraction of the dataset-wide spread so that
// unanimous tasks do not produce infinite losses.
func TaskScales(d *dataset.Dataset) []float64 {
	global := 0.0
	{
		vals := make([]float64, 0, len(d.Answers))
		for _, a := range d.Answers {
			vals = append(vals, a.Value)
		}
		global = math.Sqrt(mathx.Variance(vals))
		if !(global > 0) {
			global = 1
		}
	}
	floor := 0.01 * global
	out := make([]float64, d.NumTasks)
	vals := make([]float64, 0, 64)
	for i := 0; i < d.NumTasks; i++ {
		idxs := d.TaskAnswers(i)
		if len(idxs) == 0 {
			out[i] = global
			continue
		}
		vals = vals[:0]
		for _, ai := range idxs {
			vals = append(vals, d.Answers[ai].Value)
		}
		s := math.Sqrt(mathx.Variance(vals))
		if s < floor {
			s = floor
		}
		out[i] = s
	}
	return out
}

// goldenAt is the hot-loop golden lookup: the hoisted hasGolden flag
// turns the per-task map access into one predictable branch on the
// (typical) golden-free run.
func goldenAt(golden map[int]float64, hasGolden bool, i int) (float64, bool) {
	if !hasGolden {
		return 0, false
	}
	gv, ok := golden[i]
	return gv, ok
}
