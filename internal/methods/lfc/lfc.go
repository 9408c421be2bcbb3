// Package lfc implements LFC and LFC_N (Raykar et al., "Learning from
// crowds", JMLR 2010) as surveyed in §5.3(2) of the paper.
//
// LFC extends D&S by placing Beta/Dirichlet priors on each worker's
// confusion-matrix rows: q^w_{j,·} ~ Dir(α^w_{j,·}), which turns the
// maximum-likelihood M-step into a MAP step with pseudo-counts. The paper
// finds this smoothing makes LFC one of the most robust categorical
// methods (Table 6, §7 recommendations).
//
// LFC_N is the numeric variant: worker w's answer is modeled as
// v^w_i ~ N(v*_i, σ_w²); EM alternates the precision-weighted truth
// estimate with per-worker variance re-estimation, with an inverse-gamma
// prior keeping variances strictly positive.
package lfc

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/methods/ds"
)

// DefaultPrior is the symmetric Dirichlet pseudo-count placed on each
// confusion row: the diagonal receives DiagonalBoost times more mass,
// encoding the prior belief that workers are better than random.
const (
	DefaultPrior  = 1.0
	DiagonalBoost = 2.0
)

// LFC is the categorical MAP-EM method.
type LFC struct {
	// Prior and Boost override the default pseudo-counts when non-zero;
	// they exist for the ablation benchmarks.
	Prior, Boost float64
}

// New returns an LFC instance with the default priors.
func New() *LFC { return &LFC{} }

// Name implements core.Method.
func (*LFC) Name() string { return "LFC" }

// Capabilities implements core.Method.
func (*LFC) Capabilities() core.Capabilities {
	return core.Capabilities{
		TaskTypes:     []dataset.TaskType{dataset.Decision, dataset.SingleChoice},
		TaskModel:     "none",
		WorkerModel:   "confusion matrix",
		Technique:     core.PGM,
		Qualification: true,
		Golden:        true,
	}
}

// Infer implements core.Method by delegating to the shared D&S EM chassis
// with Dirichlet pseudo-counts.
func (m *LFC) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	prior := m.Prior
	if prior == 0 {
		prior = DefaultPrior
	}
	boost := m.Boost
	if boost == 0 {
		boost = DiagonalBoost
	}
	return ds.RunWithPriors(d, opts, func(_, j, k int) float64 {
		if j == k {
			return prior * boost
		}
		return prior
	})
}

// Variance floors and prior pseudo-observations for LFC_N. The
// inverse-gamma prior (shape a0, scale b0) acts as a0 pseudo-answers with
// squared error b0, keeping σ_w² away from zero for workers whose answers
// exactly match the current truth estimate.
const (
	varPriorShape = 1.0
	varPriorScale = 1.0
	varFloor      = 1e-9
)

// LFCN is the numeric Gaussian EM method (LFC_N in the paper's tables).
type LFCN struct{}

// NewNumeric returns an LFC_N instance.
func NewNumeric() *LFCN { return &LFCN{} }

// Name implements core.Method.
func (*LFCN) Name() string { return "LFC_N" }

// Capabilities implements core.Method (Table 4 row: numeric tasks, worker
// variance model, PGM).
func (*LFCN) Capabilities() core.Capabilities {
	return core.Capabilities{
		TaskTypes:     []dataset.TaskType{dataset.Numeric},
		TaskModel:     "none",
		WorkerModel:   "worker variance",
		Technique:     core.PGM,
		Qualification: true,
		Golden:        true,
	}
}

// Infer implements core.Method.
func (m *LFCN) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	c := d.CSR()
	// Initialize truth with per-task means and variances at the global
	// answer variance (or the qualification-test error when provided).
	// A warm start resumes the previous epoch's truth estimates instead.
	truth := make([]float64, d.NumTasks)
	for i := 0; i < d.NumTasks; i++ {
		deg := c.TaskDegree(i)
		if deg == 0 {
			continue
		}
		var s float64
		for p := c.TaskOff[i]; p < c.TaskOff[i+1]; p++ {
			s += c.TaskValue[p]
		}
		truth[i] = opts.WarmStart.TruthOr(i, s/float64(deg))
	}
	pinGoldenNumeric(truth, opts.Golden)

	globalVar := answerVariance(d)
	if globalVar < varFloor {
		globalVar = 1
	}
	variance := make([]float64, d.NumWorkers)
	for w := range variance {
		variance[w] = globalVar
		if opts.QualificationError != nil && !math.IsNaN(opts.QualificationError[w]) {
			variance[w] = math.Max(opts.QualificationError[w], varFloor)
		}
		// A warm start resumes the previous epoch's learned variances
		// alongside the truth estimates, so the EM restarts from its full
		// previous state instead of re-learning precisions from scratch.
		// Workers the state does not cover keep the global/qualification
		// initialization.
		variance[w] = math.Max(opts.WarmStart.VarianceOr(w, variance[w]), varFloor)
	}

	pool := opts.EnginePool()

	// Truth step: precision-weighted mean, fanned out over tasks.
	truthStep := func(_, ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			if _, ok := opts.Golden[i]; ok {
				continue
			}
			if c.TaskDegree(i) == 0 {
				continue
			}
			var num, den float64
			for p := c.TaskOff[i]; p < c.TaskOff[i+1]; p++ {
				prec := 1 / math.Max(variance[c.TaskWorker[p]], varFloor)
				num += prec * c.TaskValue[p]
				den += prec
			}
			truth[i] = num / den
		}
	}
	// Variance step: per-worker MSE with inverse-gamma smoothing, fanned
	// out over workers.
	varStep := func(_, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			deg := c.WorkerDegree(w)
			if deg == 0 {
				continue
			}
			ss := varPriorScale
			for p := c.WorkerOff[w]; p < c.WorkerOff[w+1]; p++ {
				dv := c.WorkerValue[p] - truth[c.WorkerTask[p]]
				ss += dv * dv
			}
			variance[w] = math.Max(ss/(float64(deg)+varPriorShape), varFloor)
		}
	}

	// Basin re-anchoring on warm start: precisions carried over from a
	// low-redundancy prefix of a stream can be collapsed onto a worker the
	// prefix happened to agree with, and the first truth step would then
	// propagate that degenerate basin into the grown dataset — the failure
	// mode the old warm start avoided by discarding variances entirely.
	// Re-deriving every answering worker's variance from the warm truths
	// over the *current* data keeps the resumed state self-consistent: the
	// truths carry the converged signal, and the precisions re-anchor to
	// full-data residuals, so the EM descends into the same basin a cold
	// run reaches. Workers without answers keep their resumed variance.
	if opts.WarmStart != nil && len(opts.WarmStart.Truth) > 0 {
		pool.ForSlot(d.NumWorkers, varStep)
	}

	// Converge on both parameter families: on the first iteration the
	// truth step reproduces the per-task means (all variances start
	// equal), so the truth delta alone would spuriously trip.
	iter, converged := core.Iterate(opts, func(int) bool {
		pool.ForSlot(d.NumTasks, truthStep)
		pool.ForSlot(d.NumWorkers, varStep)
		return false
	}, truth, variance)

	quality := make([]float64, d.NumWorkers)
	for w := range quality {
		quality[w] = 1 / math.Sqrt(variance[w]) // precision-style summary
	}
	return &core.Result{
		Truth:          truth,
		WorkerQuality:  quality,
		WorkerVariance: append([]float64(nil), variance...),
		Iterations:     iter,
		Converged:      converged,
	}, nil
}

func pinGoldenNumeric(truth []float64, golden map[int]float64) {
	for t, v := range golden {
		if t >= 0 && t < len(truth) {
			truth[t] = v
		}
	}
}

func answerVariance(d *dataset.Dataset) float64 {
	n := len(d.Answers)
	if n == 0 {
		return 0
	}
	var mean float64
	for _, a := range d.Answers {
		mean += a.Value
	}
	mean /= float64(n)
	var ss float64
	for _, a := range d.Answers {
		dv := a.Value - mean
		ss += dv * dv
	}
	return ss / float64(n)
}
