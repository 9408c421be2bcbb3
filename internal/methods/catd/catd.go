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
// That truth step and the loss d are PM's, so CATD runs PM's loop,
// pm.Optimize, with its own quality step. The chi-square quantile is
// computed by internal/mathx from scratch.
package catd

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/methods/pm"
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

	// The truth step and the loss sums are PM's; the quality step is the
	// χ² coefficient over each worker's loss, renormalized to mean 1.
	truth, iter, converged := pm.Optimize(d, opts, q, func(losses []float64) {
		for w, loss := range losses {
			if chi[w] == 0 {
				continue // no answers: the weight stays put
			}
			q[w] = chi[w] / (loss + lossEpsilon)
		}
		normalizeWeights(q)
	})
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
