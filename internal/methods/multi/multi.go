// Package multi implements Multi (Welinder, Branson, Perona, Belongie,
// "The multidimensional wisdom of crowds", NIPS 2010) as surveyed in
// §5.3(3) of the paper: the diverse-skills model for decision-making
// tasks.
//
// Each task i is embedded as a latent vector x_i ∈ ℝ^K (latent topics);
// each worker w has a direction vector u_w ∈ ℝ^K (per-topic skill), a
// scalar bias τ_w (the worker's decision threshold) and, implicitly
// through ‖u_w‖, an answer variance. A worker answers "1" with
// probability
//
//	Pr(v^w_i = 1) = σ(⟨u_w, x_i⟩ − τ_w).
//
// Parameters are fit by MAP alternating gradient ascent with Gaussian
// priors: x_i ~ N(0, I), u_w ~ N(e₁, I) (anchoring the sign convention so
// the first latent dimension is the truth axis) and τ_w ~ N(0, 1). The
// inferred truth is the consensus half-space decision
// σ(⟨x_i, ū⟩ − τ̄) > ½ with ū, τ̄ the answer-count weighted mean worker.
//
// This is the MAP variant of Welinder's model: the original paper also
// derives the same alternating updates as approximate posterior maximization.
package multi

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
)

// DefaultLatentDims is the latent dimensionality K (latent topics) when
// the field is zero.
const DefaultLatentDims = 2

// Gradient hyperparameters.
const (
	gradSteps    = 10
	learningRate = 0.1
	priorWeight  = 0.1
	clampLogit   = 8.0
)

// Multi is the multidimensional-wisdom method.
type Multi struct {
	// K overrides DefaultLatentDims when positive; exposed for the
	// latent-topic ablation bench.
	K int
}

// New returns a Multi instance with the default latent dimensionality.
func New() *Multi { return &Multi{} }

// Name implements core.Method.
func (*Multi) Name() string { return "Multi" }

// Capabilities implements core.Method (Table 4 row: decision-making only;
// latent topics task model; diverse skills + bias + variance worker
// model; PGM).
func (*Multi) Capabilities() core.Capabilities {
	return core.Capabilities{
		TaskTypes:   []dataset.TaskType{dataset.Decision},
		TaskModel:   "latent topics",
		WorkerModel: "diverse skills + bias + variance",
		Technique:   core.PGM,
	}
}

// Infer implements core.Method.
func (m *Multi) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	K := m.K
	if K <= 0 {
		K = DefaultLatentDims
	}
	rng := randx.New(opts.Seed)

	// Task embeddings: first coordinate seeded from the vote margin so
	// the truth axis starts aligned with the data; remaining coordinates
	// from small noise.
	x := make([]float64, d.NumTasks*K)
	for i := 0; i < d.NumTasks; i++ {
		idxs := d.TaskAnswers(i)
		pos := 0
		for _, ai := range idxs {
			if d.Answers[ai].Label() == 1 {
				pos++
			}
		}
		margin := 0.0
		if len(idxs) > 0 {
			margin = 2*float64(pos)/float64(len(idxs)) - 1
		}
		x[i*K] = margin
		for k := 1; k < K; k++ {
			x[i*K+k] = 0.1 * rng.NormFloat64()
		}
	}
	// Worker directions anchored near e₁; biases near zero.
	u := make([]float64, d.NumWorkers*K)
	tauB := make([]float64, d.NumWorkers)
	for w := 0; w < d.NumWorkers; w++ {
		u[w*K] = 1 + 0.1*rng.NormFloat64()
		for k := 1; k < K; k++ {
			u[w*K+k] = 0.1 * rng.NormFloat64()
		}
	}

	gx := make([]float64, len(x))
	gu := make([]float64, len(u))
	gt := make([]float64, len(tauB))
	// Per-degree normalizers keep the update scale independent of how
	// many answers a task or worker has: without them a worker with
	// hundreds of answers takes steps hundreds of times larger than the
	// prior terms and the ascent diverges on high-redundancy crowds.
	taskDeg := make([]float64, d.NumTasks)
	workerDeg := make([]float64, d.NumWorkers)
	for i := range taskDeg {
		taskDeg[i] = math.Max(1, float64(len(d.TaskAnswers(i))))
	}
	for w := range workerDeg {
		workerDeg[w] = math.Max(1, float64(len(d.WorkerAnswers(w))))
	}

	iter, converged := core.Iterate(opts, func(int) bool {
		for step := 0; step < gradSteps; step++ {
			for idx := range gx {
				gx[idx] = -priorWeight * x[idx]
			}
			for w := 0; w < d.NumWorkers; w++ {
				for k := 0; k < K; k++ {
					anchor := 0.0
					if k == 0 {
						anchor = 1
					}
					gu[w*K+k] = -priorWeight * (u[w*K+k] - anchor)
				}
				gt[w] = -priorWeight * tauB[w]
			}
			for _, a := range d.Answers {
				xi := x[a.Task*K : a.Task*K+K]
				uw := u[a.Worker*K : a.Worker*K+K]
				p := predict(xi, uw, tauB[a.Worker])
				y := 0.0
				if a.Label() == 1 {
					y = 1
				}
				g := y - p
				for k := 0; k < K; k++ {
					gx[a.Task*K+k] += g * uw[k] / taskDeg[a.Task]
					gu[a.Worker*K+k] += g * xi[k] / workerDeg[a.Worker]
				}
				gt[a.Worker] -= g / workerDeg[a.Worker]
			}
			for idx := range x {
				x[idx] += learningRate * gx[idx]
			}
			for idx := range u {
				u[idx] += learningRate * gu[idx]
			}
			for w := range tauB {
				tauB[w] += learningRate * gt[w]
			}
		}
		return false
	}, x)

	// Consensus worker: answer-count weighted mean direction and bias.
	uBar := make([]float64, K)
	var tauBar, totalW float64
	for w := 0; w < d.NumWorkers; w++ {
		cnt := float64(len(d.WorkerAnswers(w)))
		if cnt == 0 {
			continue
		}
		for k := 0; k < K; k++ {
			uBar[k] += cnt * u[w*K+k]
		}
		tauBar += cnt * tauB[w]
		totalW += cnt
	}
	if totalW > 0 {
		for k := range uBar {
			uBar[k] /= totalW
		}
		tauBar /= totalW
	} else {
		uBar[0] = 1
	}

	truth := make([]float64, d.NumTasks)
	post := core.UniformPosterior(d.NumTasks, 2)
	for i := 0; i < d.NumTasks; i++ {
		p := predict(x[i*K:i*K+K], uBar, tauBar)
		post[i][1], post[i][0] = p, 1-p
		switch {
		case p > 0.5:
			truth[i] = 1
		case p < 0.5:
			truth[i] = 0
		default:
			truth[i] = float64(rng.Intn(2))
		}
	}

	// Worker quality summary: alignment of the worker's direction with
	// the consensus axis, scaled by magnitude (low-noise workers have
	// large, well-aligned directions).
	quality := make([]float64, d.NumWorkers)
	for w := 0; w < d.NumWorkers; w++ {
		var dot float64
		for k := 0; k < K; k++ {
			dot += u[w*K+k] * uBar[k]
		}
		quality[w] = dot
	}
	return &core.Result{
		Truth:         truth,
		Posterior:     post,
		WorkerQuality: quality,
		Iterations:    iter,
		Converged:     converged,
	}, nil
}

func predict(x, u []float64, tau float64) float64 {
	var dot float64
	for k := range x {
		dot += x[k] * u[k]
	}
	return mathx.Logistic(mathx.Clamp(dot-tau, -clampLogit, clampLogit))
}
