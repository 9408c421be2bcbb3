// Package vi implements VI-BP and VI-MF (Liu, Peng, Ihler, "Variational
// inference for crowdsourcing", NIPS 2012) as surveyed in §5.3(1) of the
// paper. Both are Bayesian estimators: instead of the point estimate of
// ZC they place Beta(A, B) priors on every worker's reliability q_w and
// estimate the truth by (approximately) integrating q_w out:
//
//	Pr(v*_i = z | V) = ∫ Pr(v*_i = z, {q_w} | V) d{q_w}
//
// VI-MF approximates the integral with a mean-field factorization
// q({v*}, {q_w}) = Π_i μ_i(v*_i) Π_w Beta(q_w; a_w, b_w); the coordinate
// updates use digamma expectations E[ln q] = ψ(a) - ψ(a+b).
//
// VI-BP runs the same Beta-posterior computation on the task–worker graph
// with belief-propagation-style cavity messages: worker w's message to
// task i uses a Beta posterior that excludes task i's own belief, and task
// i's message to worker w excludes worker w's message — the KOS recursion
// generalized to arbitrary priors (§5.3: "a more general model based on
// KOS").
package vi

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
)

// Beta prior hyperparameters on worker reliability. (2,1) encodes the mild
// optimism that workers beat coin flips, the default in the original
// implementation.
const (
	PriorA = 2.0
	PriorB = 1.0
)

// Variant selects the approximate-inference flavor.
type Variant int

const (
	// MeanField is VI-MF.
	MeanField Variant = iota
	// BeliefPropagation is VI-BP.
	BeliefPropagation
)

// VI is the variational-inference method in one of its two variants.
type VI struct {
	variant Variant
}

// NewMF returns VI-MF.
func NewMF() *VI { return &VI{variant: MeanField} }

// NewBP returns VI-BP.
func NewBP() *VI { return &VI{variant: BeliefPropagation} }

// Name implements core.Method.
func (m *VI) Name() string {
	if m.variant == MeanField {
		return "VI-MF"
	}
	return "VI-BP"
}

// Capabilities implements core.Method. Table 4 restricts both variants to
// decision-making tasks; per §6.3.2–6.3.3 only VI-MF accepts
// qualification-test initialization and golden tasks.
func (m *VI) Capabilities() core.Capabilities {
	caps := core.Capabilities{
		TaskTypes:   []dataset.TaskType{dataset.Decision},
		TaskModel:   "none",
		WorkerModel: "confusion matrix",
		Technique:   core.PGM,
	}
	if m.variant == MeanField {
		caps.Qualification = true
		caps.Golden = true
	}
	return caps
}

// Infer implements core.Method.
func (m *VI) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	if m.variant == MeanField {
		return m.inferMF(d, opts)
	}
	return m.inferBP(d, opts)
}

// inferMF runs the mean-field coordinate ascent.
func (m *VI) inferMF(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	rng := randx.New(opts.Seed)

	// Beta posterior parameters per worker.
	a := make([]float64, d.NumWorkers)
	b := make([]float64, d.NumWorkers)
	for w := range a {
		a[w], b[w] = PriorA, PriorB
		if opts.QualificationAccuracy != nil && !math.IsNaN(opts.QualificationAccuracy[w]) {
			// A qualification test with g golden tasks acts as g
			// pseudo-observations split by the measured accuracy.
			const g = 20
			acc := mathx.Clamp(opts.QualificationAccuracy[w], 0, 1)
			a[w] += g * acc
			b[w] += g * (1 - acc)
		}
		// A warm start rebuilds the converged Beta posterior from the
		// reported posterior-mean reliability: at a fixed point
		// a ≈ PriorA + n·q̄ with one pseudo-observation per answer the
		// worker holds in the current dataset.
		if qw := opts.WarmStart.QualityOr(w, math.NaN()); !math.IsNaN(qw) {
			n := float64(len(d.WorkerAnswers(w)))
			acc := mathx.Clamp(qw, 0.01, 0.99)
			a[w] = PriorA + n*acc
			b[w] = PriorB + n*(1-acc)
		}
	}

	pool := opts.EnginePool()
	post := core.UniformPosterior(d.NumTasks, 2)
	// Per-worker digamma expectations, refreshed once per iteration: the
	// task update reads E[ln q_w] once per answer, and digamma is far too
	// expensive to recompute |W_i| times per task.
	elnq := make([]float64, d.NumWorkers)
	eln1q := make([]float64, d.NumWorkers)

	iter, converged := core.Iterate(opts, func(int) bool {
		pool.For(d.NumWorkers, func(wlo, whi int) {
			for w := wlo; w < whi; w++ {
				dab := mathx.Digamma(a[w] + b[w])
				elnq[w] = mathx.Digamma(a[w]) - dab
				eln1q[w] = mathx.Digamma(b[w]) - dab
			}
		})
		// Task update: μ_i(z) ∝ exp Σ_w [1{v=z}E ln q + 1{v≠z}E ln(1-q)],
		// fanned out over tasks.
		pool.For(d.NumTasks, func(ilo, ihi int) {
			var logw [2]float64
			for i := ilo; i < ihi; i++ {
				logw[0], logw[1] = 0, 0
				for _, ai := range d.TaskAnswers(i) {
					ans := d.Answers[ai]
					l := ans.Label()
					logw[l] += elnq[ans.Worker]
					logw[1-l] += eln1q[ans.Worker]
				}
				mathx.NormalizeLog(logw[:])
				post[i][0], post[i][1] = logw[0], logw[1]
			}
		})
		core.PinGolden(post, opts.Golden)

		// Worker update: Beta(a,b) with expected correct/incorrect
		// counts, fanned out over workers.
		pool.For(d.NumWorkers, func(wlo, whi int) {
			for w := wlo; w < whi; w++ {
				aw, bw := PriorA, PriorB
				for _, ai := range d.WorkerAnswers(w) {
					ans := d.Answers[ai]
					pCorrect := post[ans.Task][ans.Label()]
					aw += pCorrect
					bw += 1 - pCorrect
				}
				a[w], b[w] = aw, bw
			}
		})
		return false
	}, a)

	truth := core.PosteriorLabels(post, opts.Golden, rng.Intn)
	quality := make([]float64, d.NumWorkers)
	for w := range quality {
		quality[w] = a[w] / (a[w] + b[w]) // posterior mean reliability
	}
	return &core.Result{
		Truth:         truth,
		Posterior:     post,
		WorkerQuality: quality,
		Iterations:    iter,
		Converged:     converged,
	}, nil
}

// inferBP runs the cavity-message version on the bipartite graph. Edge e
// corresponds to answer e; mu[e] is the task→worker message (probability
// that the worker's answer on this edge is correct, excluding the
// worker's own influence).
func (m *VI) inferBP(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	rng := randx.New(opts.Seed)
	nEdges := len(d.Answers)

	mu := make([]float64, nEdges) // task→worker cavity: Pr(edge answer correct)
	for e := range mu {
		// Always consume the random draw so edges on tasks outside the
		// warm state initialize identically with or without one.
		mu[e] = 0.5 + 0.1*rng.NormFloat64()
		mu[e] = mathx.Clamp(mu[e], 0.05, 0.95)
		// A warm start replaces the random message with the previous
		// epoch's belief that this edge's answer is correct.
		a := d.Answers[e]
		if row := opts.WarmStart.PosteriorRow(a.Task, 2); row != nil {
			mu[e] = mathx.Clamp(row[a.Label()], 0.05, 0.95)
		}
	}
	// Worker sums of μ over their edges, to form cavity Beta posteriors.
	pool := opts.EnginePool()
	wSum := make([]float64, d.NumWorkers)
	wCount := make([]float64, d.NumWorkers)

	post := core.UniformPosterior(d.NumTasks, 2)
	taskLog0 := make([]float64, d.NumTasks)
	taskLog1 := make([]float64, d.NumTasks)
	edgeLog0 := make([]float64, nEdges)
	edgeLog1 := make([]float64, nEdges)

	iter, converged := core.Iterate(opts, func(int) bool {
		// Accumulate worker totals once per round, fanned out over
		// workers (each sum spans only that worker's edges, in ascending
		// edge order).
		pool.For(d.NumWorkers, func(wlo, whi int) {
			for w := wlo; w < whi; w++ {
				idxs := d.WorkerAnswers(w)
				var s float64
				for _, e := range idxs {
					s += mu[e]
				}
				wSum[w], wCount[w] = s, float64(len(idxs))
			}
		})
		// Worker→task messages: digamma expectations of the cavity Beta
		// posterior (excluding edge e itself), fanned out over edges —
		// then per-task log-odds with all workers included, fanned out
		// over tasks, so each edge's own contribution can be subtracted
		// to form the cavity.
		pool.For(nEdges, func(elo, ehi int) {
			for e := elo; e < ehi; e++ {
				ans := d.Answers[e]
				aCav := PriorA + wSum[ans.Worker] - mu[e]
				bCav := PriorB + (wCount[ans.Worker] - 1) - (wSum[ans.Worker] - mu[e])
				if bCav < 1e-6 {
					bCav = 1e-6
				}
				elnq := mathx.Digamma(aCav) - mathx.Digamma(aCav+bCav)
				eln1q := mathx.Digamma(bCav) - mathx.Digamma(aCav+bCav)
				if ans.Label() == 1 {
					edgeLog1[e], edgeLog0[e] = elnq, eln1q
				} else {
					edgeLog0[e], edgeLog1[e] = elnq, eln1q
				}
			}
		})
		pool.For(d.NumTasks, func(ilo, ihi int) {
			for i := ilo; i < ihi; i++ {
				var l0, l1 float64
				for _, e := range d.TaskAnswers(i) {
					l0 += edgeLog0[e]
					l1 += edgeLog1[e]
				}
				taskLog0[i], taskLog1[i] = l0, l1
			}
		})
		// Update task→worker cavity messages and beliefs, fanned out
		// over edges and tasks respectively.
		pool.For(nEdges, func(elo, ehi int) {
			for e := elo; e < ehi; e++ {
				ans := d.Answers[e]
				l0 := taskLog0[ans.Task] - edgeLog0[e]
				l1 := taskLog1[ans.Task] - edgeLog1[e]
				// Probability that the edge's answer equals the truth
				// under the cavity belief.
				p1 := mathx.Logistic(l1 - l0)
				if ans.Label() == 1 {
					mu[e] = mathx.Clamp(p1, 1e-6, 1-1e-6)
				} else {
					mu[e] = mathx.Clamp(1-p1, 1e-6, 1-1e-6)
				}
			}
		})
		pool.For(d.NumTasks, func(ilo, ihi int) {
			var logw [2]float64
			for i := ilo; i < ihi; i++ {
				logw[0], logw[1] = taskLog0[i], taskLog1[i]
				mathx.NormalizeLog(logw[:])
				post[i][0], post[i][1] = logw[0], logw[1]
			}
		})
		return false
	}, mu)

	truth := core.PosteriorLabels(post, nil, rng.Intn)
	quality := make([]float64, d.NumWorkers)
	for w := range quality {
		if wCount[w] > 0 {
			quality[w] = (PriorA + wSum[w]) / (PriorA + PriorB + wCount[w])
		} else {
			quality[w] = PriorA / (PriorA + PriorB)
		}
	}
	return &core.Result{
		Truth:         truth,
		Posterior:     post,
		WorkerQuality: quality,
		Iterations:    iter,
		Converged:     converged,
	}, nil
}
