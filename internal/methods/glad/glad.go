// Package glad implements GLAD (Whitehill et al., "Whose vote should count
// more: Optimal integration of labels from labelers of unknown expertise",
// NIPS 2009) as surveyed in §5.3(1) of the paper: the ZC model extended
// with a per-task difficulty parameter.
//
// The probability that worker w answers task i correctly is
//
//	Pr(v^w_i = v*_i | α_w, β_i) = σ(α_w · β_i)
//
// where α_w ∈ ℝ is the worker's ability and β_i > 0 the task's easiness
// (the paper's d_i; higher = easier). EM alternates task posteriors with
// gradient ascent on (α, log β) over the expected complete log-likelihood,
// with standard-normal priors on α-1 and log β as in the original paper.
// Wrong answers spread the residual mass uniformly over the ℓ-1 remaining
// choices.
package glad

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
)

// Gradient-ascent hyperparameters for the M-step. GLAD's original
// implementation uses conjugate gradient; a few fixed-rate ascent steps
// per EM iteration keep the method dependency-free, but they do not
// reach the same stationary points. A worker's α step sums over all of
// its answers, so it grows with the worker's answer count, and on the
// paper's datasets α keeps growing through the default iteration cap
// instead of converging (ROADMAP item 6).
const (
	gradSteps    = 10
	learningRate = 0.05
	priorWeight  = 0.01 // weight of the Gaussian priors on α and log β
	clampAbility = 8.0  // |α·β| cap to keep the sigmoid away from saturation
)

// GLAD is the task-difficulty EM method.
type GLAD struct{}

// New returns a GLAD instance.
func New() *GLAD { return &GLAD{} }

// Name implements core.Method.
func (*GLAD) Name() string { return "GLAD" }

// Capabilities implements core.Method (Table 4 row: decision-making and
// single-choice, task difficulty model, worker probability, PGM).
func (*GLAD) Capabilities() core.Capabilities {
	return core.Capabilities{
		TaskTypes:     []dataset.TaskType{dataset.Decision, dataset.SingleChoice},
		TaskModel:     "task difficulty",
		WorkerModel:   "worker probability",
		Technique:     core.PGM,
		Qualification: true,
		Golden:        true,
	}
}

// Infer implements core.Method.
func (m *GLAD) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	rng := randx.New(opts.Seed)
	ell := float64(d.NumChoices)

	alpha := make([]float64, d.NumWorkers) // worker ability
	for w := range alpha {
		alpha[w] = 1
		if opts.QualificationAccuracy != nil && !math.IsNaN(opts.QualificationAccuracy[w]) {
			// σ(α·1) = accuracy at unit easiness → α = logit(acc).
			alpha[w] = mathx.Logit(mathx.Clamp(opts.QualificationAccuracy[w], 0.05, 0.95))
		}
		// A warm start resumes the previous epoch's abilities (GLAD's
		// WorkerQuality is α itself); task easiness is re-learned, since
		// the E-step and the β gradient recover it from α in a few
		// iterations.
		alpha[w] = opts.WarmStart.QualityOr(w, alpha[w])
	}
	logBeta := make([]float64, d.NumTasks) // log task easiness, β = e^{logBeta}

	pool := opts.EnginePool()
	c := d.CSR()
	post := core.UniformPosterior(d.NumTasks, d.NumChoices)
	gradAlpha := make([]float64, d.NumWorkers)
	gradLogBeta := make([]float64, d.NumTasks)

	// Per-state caches: beta[i] = e^{logBeta[i]} and, for the answer at
	// task-major position p, sigma[p] = σ(α_w·β_i). Both passes of a
	// gradient step read the same (α, log β), so each exp is taken once
	// per distinct input instead of once per use. The worker-major α pass
	// finds an answer's σ through taskPos, which maps each worker-major
	// position to the task-major position of the same answer.
	beta := make([]float64, d.NumTasks)
	sigma := make([]float64, len(d.Answers))
	taskPos := taskPositions(d, c)

	// E-step: posterior over the true label of each task, fanned out over
	// tasks — each goroutine owns disjoint post rows, computed in place
	// (same op sequence as the old scratch-then-copy). It leaves beta and
	// sigma at the current state, which gradient step 0 reuses.
	eStep := func(_, ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			row := post[i]
			for k := range row {
				row[k] = 0
			}
			b := math.Exp(logBeta[i])
			beta[i] = b
			for p := c.TaskOff[i]; p < c.TaskOff[i+1]; p++ {
				pc := correctProb(alpha[c.TaskWorker[p]], b)
				sigma[p] = pc
				logCorrect := math.Log(pc)
				logWrong := math.Log((1 - pc) / (ell - 1))
				lab := int(c.TaskLabel[p])
				for k := range row {
					if lab == k {
						row[k] += logCorrect
					} else {
						row[k] += logWrong
					}
				}
			}
			mathx.NormalizeLog(row)
		}
	}
	// M-step gradient passes: the single answers pass of the textbook
	// formulation is split into a per-task pass (∂Q/∂ log β) and a
	// per-worker pass (∂Q/∂α): each gradient entry is then owned by
	// exactly one loop index, which lets both passes fan out with no
	// shared accumulators and a summation order (the ascending answer
	// order of the CSR rows) that is independent of the chunk layout.
	// The β pass runs first and, when refresh is set, recomputes the
	// task's beta and sigma entries; the α pass only reads them.
	refresh := false
	betaStep := func(_, ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			lo, hi := c.TaskOff[i], c.TaskOff[i+1]
			b := beta[i]
			if refresh {
				b = math.Exp(logBeta[i])
				beta[i] = b
				for p := lo; p < hi; p++ {
					sigma[p] = correctProb(alpha[c.TaskWorker[p]], b)
				}
			}
			g := -priorWeight * logBeta[i] // N(0,1) prior on log β
			for p := lo; p < hi; p++ {
				g += (post[i][c.TaskLabel[p]] - sigma[p]) * alpha[c.TaskWorker[p]] * b
			}
			gradLogBeta[i] = g
		}
	}
	alphaStep := func(_, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			g := -priorWeight * (alpha[w] - 1) // N(1,1) prior on α
			for q := c.WorkerOff[w]; q < c.WorkerOff[w+1]; q++ {
				t := c.WorkerTask[q]
				// pCorrect = posterior probability the worker's
				// answer equals the truth; ∂Q/∂(αβ) = pCorrect - σ(αβ).
				g += (post[t][c.WorkerLabel[q]] - sigma[taskPos[q]]) * beta[t]
			}
			gradAlpha[w] = g
		}
	}

	iter, converged := core.Iterate(opts, func(int) bool {
		pool.ForSlot(d.NumTasks, eStep)
		core.PinGolden(post, opts.Golden)

		// M-step: gradient ascent on the expected complete
		// log-likelihood Q(α, log β).
		for step := 0; step < gradSteps; step++ {
			refresh = step > 0
			pool.ForSlot(d.NumTasks, betaStep)
			pool.ForSlot(d.NumWorkers, alphaStep)
			for w := range alpha {
				alpha[w] += learningRate * gradAlpha[w]
			}
			for i := range logBeta {
				logBeta[i] = mathx.Clamp(logBeta[i]+learningRate*gradLogBeta[i], -5, 5)
			}
		}
		return false
	}, alpha)

	truth := core.PosteriorLabels(post, opts.Golden, rng.Intn)
	return &core.Result{
		Truth:         truth,
		Posterior:     post,
		WorkerQuality: append([]float64(nil), alpha...),
		Iterations:    iter,
		Converged:     converged,
	}, nil
}

// taskPositions maps each worker-major CSR position to the task-major
// position of the same answer. Both CSR layouts list each row's answers
// in ascending answer order (a stable scatter), so replaying that
// scatter pairs the two positions of every answer.
func taskPositions(d *dataset.Dataset, c *dataset.CSR) []int32 {
	taskCur := append([]int32(nil), c.TaskOff[:d.NumTasks]...)
	workerCur := append([]int32(nil), c.WorkerOff[:d.NumWorkers]...)
	pos := make([]int32, len(d.Answers))
	for i := range d.Answers {
		a := &d.Answers[i]
		pos[workerCur[a.Worker]] = taskCur[a.Task]
		taskCur[a.Task]++
		workerCur[a.Worker]++
	}
	return pos
}

// σ at the clamp bounds, where every saturated α·β lands: about a tenth
// of GLAD's σ evaluations on the paper datasets at scale 0.1, and a third
// on D_Product.
var (
	sigmaHi = mathx.Logistic(clampAbility)
	sigmaLo = mathx.Logistic(-clampAbility)
)

// correctProb returns σ(α·β) clamped away from 0 and 1 so that logs stay
// finite; with ℓ choices the wrong-answer probability (1-σ)/(ℓ-1) then
// also stays positive. It equals Logistic(Clamp(α·β, ±clampAbility)) for
// every input, with no exp at the bounds.
func correctProb(alpha, beta float64) float64 {
	x := alpha * beta
	switch {
	case x >= clampAbility:
		return sigmaHi
	case x <= -clampAbility:
		return sigmaLo
	}
	return mathx.Logistic(x)
}
