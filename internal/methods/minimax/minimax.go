// Package minimax implements Minimax (Zhou, Basu, Mao, Platt, "Learning
// from the wisdom of crowds by minimax entropy", NIPS 2012) as surveyed in
// §5.2(3) of the paper.
//
// The model assumes worker w's answers on task i are generated from a
// per-(task, worker) distribution π^w_{i,·} constrained on two margins:
// per-task answer counts and per-worker confusion counts. The minimax
// entropy solution has the exponential-family form
//
//	π^w_{i,k} ∝ exp(σ_{i,k} + τ^w_{j,k})   given the truth of i is j,
//
// where σ are task parameters (the "diverse skills"/task confusability
// part) and τ^w worker parameters. Inference alternates:
//
//  1. fitting (σ, τ) by L2-regularized gradient ascent on the expected
//     log-likelihood under the current truth distribution μ (the dual of
//     the regularized minimax entropy program), and
//  2. updating μ_i(j) ∝ exp Σ_{w∈W_i} log π^w_{i,j,v^w_i}.
//
// Minimax supports hidden-test golden tasks (μ pinned) but, matching
// §6.3.2, not qualification-test initialization (its worker parameters
// are confusion-style matrices fit jointly with task parameters, with no
// single-number entry point).
package minimax

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
)

// Gradient-ascent hyperparameters of the inner dual fit.
const (
	gradSteps    = 15
	learningRate = 0.1
	// l2Sigma regularizes the per-task parameters much more strongly than
	// l2Tau regularizes the per-worker confusion parameters: with a weak
	// penalty the task parameters σ absorb each task's answer marginal
	// entirely, leaving no evidence for the truth update (the degeneracy
	// the regularized minimax-entropy formulation of Zhou et al. controls
	// with separate α/β penalties).
	l2Sigma = 1.0
	l2Tau   = 0.05
	// tauAnchor is the diagonal value the τ regularizer pulls toward:
	// instead of shrinking to zero (a uniform worker), unconstrained or
	// weakly-constrained rows shrink to a mildly diagonal matrix. Without
	// the anchor, a label that currently owns few tasks has near-zero τ
	// rows whose combination with the per-task σ behaves like a saturated
	// model — it out-scores the honest confusion rows on any answer
	// pattern and the labels flip en masse (catastrophic on imbalanced
	// crowds like D_Product).
	tauAnchor  = 1.0
	paramClamp = 6.0
	// DefaultOuterIterations bounds the alternation when
	// Options.MaxIterations is zero. The coordinate descent settles into
	// a small label-churn orbit rather than a fixed point on skewed
	// crowds; the churn criterion below usually stops it first, this cap
	// bounds the worst case (the paper itself reports Minimax among the
	// slowest methods, §6.3.1(2)).
	DefaultOuterIterations = 30
	// churnFraction: the loop is declared converged when fewer than this
	// fraction of labels changed in an iteration.
	churnFraction = 0.001
	// muDamping blends the previous truth distribution into each update;
	// it suppresses the two-cycle label oscillations of hard-EM without
	// changing the fixed points.
	muDamping = 0.4
	// voteTether adds the (smoothed, log-scaled) raw vote distribution as
	// pseudo-evidence to every truth update. Hard-EM on crowds with
	// *systematic class-structured* confusion (e.g. graders that shift
	// every judgment one grade) otherwise drifts monotonically into the
	// shifted labeling, which is a perfectly self-consistent fixed point
	// of the unanchored model. The tether keeps the truth distribution in
	// the basin of the observed votes while still letting the worker
	// model overturn individual tasks.
	voteTether = 2.0
)

// Minimax is the minimax-entropy optimization method.
type Minimax struct{}

// New returns a Minimax instance.
func New() *Minimax { return &Minimax{} }

// Name implements core.Method.
func (*Minimax) Name() string { return "Minimax" }

// Capabilities implements core.Method (Table 4 row: decision-making and
// single-choice, no task model column but diverse-skills worker model,
// optimization technique).
func (*Minimax) Capabilities() core.Capabilities {
	return core.Capabilities{
		TaskTypes:   []dataset.TaskType{dataset.Decision, dataset.SingleChoice},
		TaskModel:   "none",
		WorkerModel: "diverse skills",
		Technique:   core.Optimization,
		Golden:      true,
	}
}

// Infer implements core.Method.
func (m *Minimax) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	rng := randx.New(opts.Seed)
	ell := d.NumChoices

	// μ: current soft truth assignment, initialized by majority voting.
	mu := core.UniformPosterior(d.NumTasks, ell)
	for i := 0; i < d.NumTasks; i++ {
		row := mu[i]
		for k := range row {
			row[k] = 0.1 // light smoothing so no label starts at zero
		}
		for _, ai := range d.TaskAnswers(i) {
			row[d.Answers[ai].Label()]++
		}
		mathx.Normalize(row)
	}
	core.PinGolden(mu, opts.Golden)
	muInit := make([][]float64, d.NumTasks)
	for i, row := range mu {
		muInit[i] = append([]float64(nil), row...)
	}

	sigma := make([]float64, d.NumTasks*ell)     // σ_{i,k}
	tau := make([]float64, d.NumWorkers*ell*ell) // τ^w_{j,k}
	for idx := range tau {
		if (idx/ell)%ell == idx%ell {
			tau[idx] = tauAnchor // start at the regularizer's anchor
		}
	}
	tauRow := func(w, j int) []float64 {
		base := (w*ell + j) * ell
		return tau[base : base+ell]
	}
	sigmaRow := func(i int) []float64 { return sigma[i*ell : (i+1)*ell] }

	pool := opts.EnginePool()
	gradSigma := make([]float64, len(sigma))
	gradTau := make([]float64, len(tau))
	// gbuf[e*ell+k] caches each answer's softmax residual (1[v=k] - π_k)
	// for the current gradient step: it is computed once per answer in a
	// parallel pass over answers, then consumed by the per-task σ pass
	// and the per-worker τ pass — each gradient entry is owned by exactly
	// one loop index, so the fan-out needs no shared accumulators.
	gbuf := make([]float64, len(d.Answers)*ell)
	// Per-degree normalizers: each answer's contribution is divided by
	// its task's (for σ) or worker's (for τ) answer count, so the ascent
	// step size is independent of crowd size and no parameter slams into
	// the clamp on heavy workers (hundreds of answers would otherwise
	// scale the raw gradient far past any usable learning rate).
	taskDeg := make([]float64, d.NumTasks)
	for i := range taskDeg {
		taskDeg[i] = float64(len(d.TaskAnswers(i)))
		if taskDeg[i] == 0 {
			taskDeg[i] = 1
		}
	}
	workerDeg := make([]float64, d.NumWorkers)
	for w := range workerDeg {
		workerDeg[w] = float64(len(d.WorkerAnswers(w)))
		if workerDeg[w] == 0 {
			workerDeg[w] = 1
		}
	}
	pi := make([]float64, ell) // scratch softmax
	// Every write to μ lands in place in UniformPosterior's flat backing
	// array, so the loop watches μ as that one slice.
	var flatMu []float64
	if d.NumTasks > 0 {
		flatMu = mu[0][:d.NumTasks*ell]
	}

	outer := opts
	if outer.MaxIterations <= 0 {
		outer.MaxIterations = DefaultOuterIterations
	}
	// Converge on the soft distribution or, since only the argmax
	// determines the output, on near-stability of the hard labels (which
	// also halts the small label-churn orbits the inner fit can enter on
	// skewed crowds).
	iter, converged := core.Iterate(outer, func(int) bool {
		// Inner dual fit of (σ, τ) by gradient ascent against the current
		// hard labels (argmax of μ). Fitting against the soft μ is
		// unstable here: a soft truth distribution spreads each answer's
		// evidence over all rows of τ^w, the rows wash out, the next μ
		// becomes softer still, and the loop collapses to the uniform
		// fixed point. Hard assignments (the classic hard-EM variant of
		// the same coordinate descent) keep the worker constraints sharp.
		hard := hardLabels(mu)
		for step := 0; step < gradSteps; step++ {
			// Pass 1: per-answer softmax residuals into gbuf (each
			// answer owns its ℓ-wide slice).
			pool.For(len(d.Answers), func(elo, ehi int) {
				pi := make([]float64, ell)
				for e := elo; e < ehi; e++ {
					a := d.Answers[e]
					sr := sigmaRow(a.Task)
					tr := tauRow(a.Worker, hard[a.Task])
					softmax(sr, tr, pi)
					row := gbuf[int(e)*ell : int(e+1)*ell]
					for k := 0; k < ell; k++ {
						ind := 0.0
						if a.Label() == k {
							ind = 1
						}
						row[k] = ind - pi[k]
					}
				}
			})
			// Pass 2: σ gradient per task. With degree-normalized data
			// gradients (≤ 1 in magnitude) a unit penalty suffices to
			// stop σ from absorbing each task's answer marginal (the
			// degeneracy the regularized minimax-entropy formulation
			// controls with its per-task slack term).
			pool.For(d.NumTasks, func(ilo, ihi int) {
				for i := ilo; i < ihi; i++ {
					gs := gradSigma[i*ell : (i+1)*ell]
					for k := range gs {
						gs[k] = -l2Sigma * sigma[i*ell+k]
					}
					for _, e := range d.TaskAnswers(i) {
						row := gbuf[int(e)*ell : int(e+1)*ell]
						for k := 0; k < ell; k++ {
							gs[k] += row[k] / taskDeg[i]
						}
					}
				}
			})
			// Pass 3: τ gradient per worker (row j = the hard label of
			// the answered task).
			pool.For(d.NumWorkers, func(wlo, whi int) {
				for w := wlo; w < whi; w++ {
					gt := gradTau[w*ell*ell : (w+1)*ell*ell]
					for jk := range gt {
						anchor := 0.0
						if jk/ell == jk%ell { // diagonal of a τ^w row block
							anchor = tauAnchor
						}
						gt[jk] = -l2Tau * (tau[w*ell*ell+jk] - anchor)
					}
					for _, e := range d.WorkerAnswers(w) {
						a := d.Answers[e]
						j := hard[a.Task]
						row := gbuf[int(e)*ell : int(e+1)*ell]
						for k := 0; k < ell; k++ {
							gt[j*ell+k] += row[k] / workerDeg[w]
						}
					}
				}
			})
			for idx := range sigma {
				sigma[idx] = mathx.Clamp(sigma[idx]+learningRate*gradSigma[idx], -paramClamp, paramClamp)
			}
			for idx := range tau {
				tau[idx] = mathx.Clamp(tau[idx]+learningRate*gradTau[idx], -paramClamp, paramClamp)
			}
		}

		// Truth update: μ_i(j) ∝ exp Σ_w log π^w_{i,j,v^w_i}, fanned out
		// over tasks (each goroutine owns disjoint μ rows).
		pool.For(d.NumTasks, func(ilo, ihi int) {
			logw := make([]float64, ell)
			piLocal := make([]float64, ell)
			for i := ilo; i < ihi; i++ {
				for j := range logw {
					logw[j] = 0
				}
				sr := sigmaRow(i)
				for _, ai := range d.TaskAnswers(i) {
					a := d.Answers[ai]
					for j := 0; j < ell; j++ {
						tr := tauRow(a.Worker, j)
						softmax(sr, tr, piLocal)
						logw[j] += math.Log(math.Max(piLocal[a.Label()], 1e-12))
					}
				}
				for j := range logw {
					logw[j] += voteTether * math.Log(muInit[i][j])
				}
				mathx.NormalizeLog(logw)
				for j := range logw {
					mu[i][j] = muDamping*mu[i][j] + (1-muDamping)*logw[j]
				}
			}
		})
		core.PinGolden(mu, opts.Golden)
		return labelChurn(hard, hardLabels(mu)) <= churnFraction*float64(d.NumTasks)
	}, flatMu)

	truth := core.PosteriorLabels(mu, opts.Golden, rng.Intn)
	// Worker quality summary: mean diagonal of the implied confusion
	// matrices averaged over that worker's tasks is expensive; use the
	// softmax of τ's diagonal as the scale-free skill summary.
	quality := make([]float64, d.NumWorkers)
	for w := 0; w < d.NumWorkers; w++ {
		var s float64
		zero := make([]float64, ell)
		for j := 0; j < ell; j++ {
			softmax(zero, tauRow(w, j), pi)
			s += pi[j]
		}
		quality[w] = s / float64(ell)
	}
	return &core.Result{
		Truth:         truth,
		Posterior:     mu,
		WorkerQuality: quality,
		Iterations:    iter,
		Converged:     converged,
	}, nil
}

// hardLabels returns the per-task argmax of μ (first index on ties, which
// the smoothed majority-vote initialization makes vanishingly rare).
func hardLabels(mu [][]float64) []int {
	out := make([]int, len(mu))
	for i, row := range mu {
		best := 0
		for k := 1; k < len(row); k++ {
			if row[k] > row[best] {
				best = k
			}
		}
		out[i] = best
	}
	return out
}

// labelChurn counts positions where the two label vectors differ.
func labelChurn(a, b []int) float64 {
	var n float64
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// softmax writes softmax(a+b) into out.
func softmax(a, b, out []float64) {
	maxv := math.Inf(-1)
	for k := range out {
		v := a[k] + b[k]
		out[k] = v
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for k := range out {
		out[k] = math.Exp(out[k] - maxv)
		sum += out[k]
	}
	for k := range out {
		out[k] /= sum
	}
}
