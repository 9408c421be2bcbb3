// Package zc implements ZC (Demartini, Difallah, Cudré-Mauroux,
// "ZenCrowd", WWW 2012) as surveyed in §5.3(1) of the paper: an
// expectation–maximization method that models each worker with a single
// worker probability q_w ∈ [0,1] and maximizes the likelihood of the
// observed answers Pr(V | {q_w}) with the task truths as latent variables.
//
// E-step (truth): Pr(v*_i = z) ∝ Π_{w ∈ W_i} q_w^{1[v^w_i = z]} ·
// ((1-q_w)/(ℓ-1))^{1[v^w_i ≠ z]}, computed in log space.
//
// M-step (quality): q_w = Σ_{i ∈ T^w} Pr(v*_i = v^w_i) / |T^w|, i.e. the
// expected fraction of tasks the worker answered correctly.
//
// ZC accepts qualification-test initialization (q_w set from golden-task
// accuracy, §6.3.2) and hidden-test golden tasks (their posteriors pinned
// to the known truth during the E-step, §6.3.3).
package zc

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
)

// DefaultInitialQuality is the optimistic prior used when no qualification
// test is provided: workers are assumed mostly reliable, which is the
// standard symmetric-breaking initialization for EM truth inference.
const DefaultInitialQuality = 0.8

// qualityFloor keeps q_w strictly inside (0,1) so log-likelihood terms stay
// finite even for workers the E-step judges always wrong (or right).
const qualityFloor = 1e-4

// ZC is the ZenCrowd EM method.
type ZC struct{}

// New returns a ZC instance.
func New() *ZC { return &ZC{} }

// Name implements core.Method.
func (*ZC) Name() string { return "ZC" }

// Capabilities implements core.Method (Table 4 row: decision-making and
// single-choice tasks, no task model, worker probability, PGM).
func (*ZC) Capabilities() core.Capabilities {
	return core.Capabilities{
		TaskTypes:     []dataset.TaskType{dataset.Decision, dataset.SingleChoice},
		TaskModel:     "none",
		WorkerModel:   "worker probability",
		Technique:     core.PGM,
		Qualification: true,
		Golden:        true,
	}
}

// Infer implements core.Method.
func (m *ZC) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	rng := randx.New(opts.Seed)
	ell := float64(d.NumChoices)

	q := make([]float64, d.NumWorkers)
	for w := range q {
		q[w] = DefaultInitialQuality
		if opts.QualificationAccuracy != nil && !math.IsNaN(opts.QualificationAccuracy[w]) {
			q[w] = mathx.Clamp(opts.QualificationAccuracy[w], qualityFloor, 1-qualityFloor)
		}
		// A warm start resumes the previous epoch's worker probabilities.
		q[w] = mathx.Clamp(opts.WarmStart.QualityOr(w, q[w]), qualityFloor, 1-qualityFloor)
	}

	pool := opts.EnginePool()
	c := d.CSR()
	post := core.UniformPosterior(d.NumTasks, d.NumChoices)
	prevQ := make([]float64, d.NumWorkers)
	logCorrect := make([]float64, d.NumWorkers)
	logWrong := make([]float64, d.NumWorkers)

	// Per-worker log terms, taken once per iteration instead of once per
	// answer in the E-step: q_w is constant within an E-step, so these are
	// the same math.Log values the per-answer form produced.
	logStep := func(_, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			qw := mathx.Clamp(q[w], qualityFloor, 1-qualityFloor)
			logCorrect[w] = math.Log(qw)
			logWrong[w] = math.Log((1 - qw) / (ell - 1))
		}
	}
	// E-step: task posteriors from current worker qualities, fanned out
	// over tasks (each goroutine owns disjoint post rows, computed in
	// place — same op sequence as the old scratch-then-copy).
	eStep := func(_, ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			row := post[i]
			for k := range row {
				row[k] = 0
			}
			for p := c.TaskOff[i]; p < c.TaskOff[i+1]; p++ {
				w := c.TaskWorker[p]
				lab := int(c.TaskLabel[p])
				lc, lw := logCorrect[w], logWrong[w]
				for k := range row {
					if lab == k {
						row[k] += lc
					} else {
						row[k] += lw
					}
				}
			}
			mathx.NormalizeLog(row)
		}
	}
	// M-step: expected accuracy per worker, fanned out over workers.
	mStep := func(_, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			deg := c.WorkerDegree(w)
			if deg == 0 {
				continue
			}
			var s float64
			for p := c.WorkerOff[w]; p < c.WorkerOff[w+1]; p++ {
				s += post[c.WorkerTask[p]][c.WorkerLabel[p]]
			}
			q[w] = mathx.Clamp(s/float64(deg), qualityFloor, 1-qualityFloor)
		}
	}

	var iter int
	converged := false
	for iter = 1; iter <= opts.MaxIter(); iter++ {
		pool.ForSlot(d.NumWorkers, logStep)
		pool.ForSlot(d.NumTasks, eStep)
		core.PinGolden(post, opts.Golden)

		copy(prevQ, q)
		pool.ForSlot(d.NumWorkers, mStep)

		if core.MaxAbsDiff(q, prevQ) < opts.Tol() {
			converged = true
			break
		}
	}
	if iter > opts.MaxIter() {
		iter = opts.MaxIter()
	}

	truth := core.PosteriorLabels(post, opts.Golden, rng.Intn)
	return &core.Result{
		Truth:         truth,
		Posterior:     post,
		WorkerQuality: q,
		Iterations:    iter,
		Converged:     converged,
	}, nil
}
