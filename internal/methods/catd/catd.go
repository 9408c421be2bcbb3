// Package catd implements CATD (Li et al., "A confidence-aware approach
// for truth discovery on long-tail data", PVLDB 2014) as surveyed in
// §5.2(2) of the paper.
//
// CATD models each worker with a worker probability *scaled by a
// confidence coefficient*: because most workers answer only a few tasks
// (the long tail of Figure 2), a point estimate of their quality is
// unreliable, so CATD scales the weight by the chi-square upper-confidence
// coefficient χ²_{(0.975, |T^w|)}:
//
//	q_w = χ²_{(0.975, |T^w|)} / Σ_{i∈T^w} d(v^w_i, v*_i)
//
// and alternates this quality step with a weighted-aggregation truth step
// (weighted vote for categorical tasks, weighted mean for numeric ones).
// The chi-square quantile is computed by internal/mathx from scratch.
package catd

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
)

// lossEpsilon keeps quality weights finite for workers with zero loss.
const lossEpsilon = 1e-9

// CATD is the confidence-aware optimization method.
type CATD struct{}

// New returns a CATD instance.
func New() *CATD { return &CATD{} }

// Name implements core.Method.
func (*CATD) Name() string { return "CATD" }

// Capabilities implements core.Method (Table 4 row: all three task types,
// worker probability + confidence, optimization).
func (*CATD) Capabilities() core.Capabilities {
	return core.Capabilities{
		TaskTypes:     []dataset.TaskType{dataset.Decision, dataset.SingleChoice, dataset.Numeric},
		TaskModel:     "none",
		WorkerModel:   "worker probability + confidence",
		Technique:     core.Optimization,
		Qualification: true,
		Golden:        true,
	}
}

// Infer implements core.Method.
func (m *CATD) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	pool := opts.EnginePool()

	// Precompute each worker's chi-square confidence coefficient; it
	// depends only on |T^w|.
	chi := make([]float64, d.NumWorkers)
	for w := range chi {
		n := len(d.WorkerAnswers(w))
		if n == 0 {
			chi[w] = 0
			continue
		}
		chi[w] = mathx.ChiSquareQuantile(0.975, float64(n))
	}

	q := make([]float64, d.NumWorkers)
	for w := range q {
		q[w] = 1
	}
	applyQualification(d, opts, chi, q)
	if opts.WarmStart != nil {
		// Resume the previous epoch's confidence-scaled weights, then
		// restore the mean-1 scale over the mix of warm and cold entries.
		for w := range q {
			q[w] = opts.WarmStart.QualityOr(w, q[w])
		}
		normalizeWeights(q)
	}

	var scale []float64
	if !d.Categorical() {
		scale = taskScales(d)
	}

	c := d.CSR()
	truth := make([]float64, d.NumTasks)
	prevTruth := make([]float64, d.NumTasks)
	categorical := d.Categorical()
	// Per-slot vote scratch; ForSlot keeps concurrent chunks on distinct
	// slots, replacing the old per-chunk allocation.
	votesBySlot := make([][]float64, pool.Workers())
	for s := range votesBySlot {
		votesBySlot[s] = make([]float64, d.NumChoices)
	}

	// Truth step, fanned out over tasks. Vote ties break on a hash of
	// (seed, iteration, task) so the pick is order-independent.
	var curIter int64
	truthStep := func(slot, ilo, ihi int) {
		votes := votesBySlot[slot]
		for i := ilo; i < ihi; i++ {
			if gv, ok := opts.Golden[i]; ok {
				truth[i] = gv
				continue
			}
			if c.TaskDegree(i) == 0 {
				continue
			}
			if categorical {
				for k := range votes {
					votes[k] = 0
				}
				for p := c.TaskOff[i]; p < c.TaskOff[i+1]; p++ {
					votes[c.TaskLabel[p]] += q[c.TaskWorker[p]]
				}
				truth[i] = float64(core.ArgmaxHashTie(votes, opts.Seed, curIter, int64(i)))
			} else {
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
	}
	// Quality step: χ² coefficient over accumulated loss, fanned out over
	// workers; the mean-1 renormalization stays sequential.
	qualityStep := func(_, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			if c.WorkerDegree(w) == 0 {
				continue
			}
			var loss float64
			for p := c.WorkerOff[w]; p < c.WorkerOff[w+1]; p++ {
				t := c.WorkerTask[p]
				if categorical {
					if int(c.WorkerLabel[p]) != int(truth[t]) {
						loss++
					}
				} else {
					dv := (c.WorkerValue[p] - truth[t]) / scale[t]
					loss += dv * dv
				}
			}
			q[w] = chi[w] / (loss + lossEpsilon)
		}
	}

	var iter int
	converged := false
	for iter = 1; iter <= opts.MaxIter(); iter++ {
		copy(prevTruth, truth)
		curIter = int64(iter)
		pool.ForSlot(d.NumTasks, truthStep)
		pool.ForSlot(d.NumWorkers, qualityStep)
		normalizeWeights(q)

		var done bool
		if d.Categorical() {
			done = iter > 1 && core.MaxAbsDiff(truth, prevTruth) == 0
		} else {
			done = core.MaxAbsDiff(truth, prevTruth) < opts.Tol()
		}
		if done {
			converged = true
			break
		}
	}
	if iter > opts.MaxIter() {
		iter = opts.MaxIter()
	}
	return &core.Result{
		Truth:         truth,
		WorkerQuality: q,
		Iterations:    iter,
		Converged:     converged,
	}, nil
}

// applyQualification seeds qualities from qualification-test performance:
// accuracy a maps to the loss a worker with |T^w| answers would accrue,
// error e (numeric MSE) likewise.
func applyQualification(d *dataset.Dataset, opts core.Options, chi, q []float64) {
	for w := range q {
		n := float64(len(d.WorkerAnswers(w)))
		if n == 0 {
			continue
		}
		if opts.QualificationAccuracy != nil && !math.IsNaN(opts.QualificationAccuracy[w]) {
			expectedLoss := (1 - mathx.Clamp(opts.QualificationAccuracy[w], 0, 1)) * n
			q[w] = chi[w] / (expectedLoss + lossEpsilon)
		}
		if opts.QualificationError != nil && !math.IsNaN(opts.QualificationError[w]) {
			q[w] = chi[w] / (opts.QualificationError[w]*n + lossEpsilon)
		}
	}
	normalizeWeights(q)
}

// normalizeWeights rescales weights to mean 1; CATD's truth step is
// invariant to the scale, and the normalization keeps the convergence
// check and golden-task mixing numerically tame.
func normalizeWeights(q []float64) {
	var s float64
	n := 0
	for _, x := range q {
		if x > 0 {
			s += x
			n++
		}
	}
	if n == 0 || s <= 0 {
		return
	}
	mean := s / float64(n)
	for i := range q {
		q[i] /= mean
	}
}

// taskScales mirrors the CRH normalization used by package pm.
func taskScales(d *dataset.Dataset) []float64 {
	vals := make([]float64, 0, len(d.Answers))
	for _, a := range d.Answers {
		vals = append(vals, a.Value)
	}
	global := math.Sqrt(mathx.Variance(vals))
	if !(global > 0) {
		global = 1
	}
	floor := 0.01 * global
	out := make([]float64, d.NumTasks)
	buf := make([]float64, 0, 64)
	for i := 0; i < d.NumTasks; i++ {
		idxs := d.TaskAnswers(i)
		if len(idxs) == 0 {
			out[i] = global
			continue
		}
		buf = buf[:0]
		for _, ai := range idxs {
			buf = append(buf, d.Answers[ai].Value)
		}
		s := math.Sqrt(mathx.Variance(buf))
		if s < floor {
			s = floor
		}
		out[i] = s
	}
	return out
}
