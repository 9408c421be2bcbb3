// Package ds implements D&S (Dawid & Skene, "Maximum likelihood estimation
// of observer error-rates using the EM algorithm", Applied Statistics
// 1979), the classical confusion-matrix EM method of §5.3(2) and the
// paper's overall recommendation for categorical tasks.
//
// Each worker w is an ℓ×ℓ confusion matrix q^w with
// q^w[j][k] = Pr(v^w_i = k | v*_i = j); tasks carry a shared class prior.
// EM alternates task posteriors (E-step) with closed-form re-estimation of
// confusion matrices and priors (M-step), with a small Laplace smoothing
// term to keep estimates strictly positive.
package ds

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
)

// Smoothing is the Laplace pseudo-count added to every confusion cell and
// prior bucket in the M-step. It keeps log-likelihood terms finite for
// sparse workers without meaningfully biasing dense ones.
const Smoothing = 0.01

// DS is the Dawid–Skene EM method.
type DS struct{}

// New returns a D&S instance.
func New() *DS { return &DS{} }

// Name implements core.Method.
func (*DS) Name() string { return "D&S" }

// Capabilities implements core.Method (Table 4 row: decision-making and
// single-choice, no task model, confusion matrix, PGM).
func (*DS) Capabilities() core.Capabilities {
	return core.Capabilities{
		TaskTypes:     []dataset.TaskType{dataset.Decision, dataset.SingleChoice},
		TaskModel:     "none",
		WorkerModel:   "confusion matrix",
		Technique:     core.PGM,
		Qualification: true,
		Golden:        true,
	}
}

// Infer implements core.Method.
func (m *DS) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	return run(d, opts, nil)
}

// RunWithPriors runs the Dawid–Skene EM with extra Dirichlet pseudo-counts
// added to each worker's confusion M-step: priors(w, j, k) is the
// pseudo-count α^w_{j,k} for worker w's row j, column k. Package lfc uses
// this hook to implement LFC (Raykar et al. 2010), which is exactly D&S
// with Beta/Dirichlet priors on the confusion rows (§5.3(2) "Priors").
func RunWithPriors(d *dataset.Dataset, opts core.Options, priors func(worker, j, k int) float64) (*core.Result, error) {
	return run(d, opts, priors)
}

// run is the shared EM core. priors, when non-nil, holds per-worker
// ℓ×ℓ pseudo-counts added to the confusion M-step (the LFC extension).
//
// The inner sweeps iterate the dataset's columnar CSR view and touch only
// buffers hoisted out of the iteration loop — once the EM loop starts, a
// full M+E sweep performs zero heap allocations (enforced by
// TestSweepAllocationRegression). The per-answer log in the E-step is
// replaced by a per-worker log-confusion table recomputed each iteration:
// the same math.Log values accumulated in the same order, so results stay
// bit-identical to the pre-columnar loops.
func run(d *dataset.Dataset, opts core.Options, priors func(worker, j, k int) float64) (*core.Result, error) {
	rng := randx.New(opts.Seed)
	pool := opts.EnginePool()
	ell := d.NumChoices
	c := d.CSR()

	conf := newConfusion(d.NumWorkers, ell)
	initConfusion(conf, d, opts)
	// Resume confusion matrices from the previous epoch where available;
	// workers that joined after the warm state was captured keep the
	// diagonally dominant cold initialization.
	for w := 0; w < d.NumWorkers; w++ {
		if mat := opts.WarmStart.ConfusionFor(w, ell); mat != nil {
			for j := 0; j < ell; j++ {
				copy(conf.row(w, j), mat[j])
			}
		}
	}

	classPrior := make([]float64, ell)
	for k := range classPrior {
		classPrior[k] = 1 / float64(ell)
	}

	// Initialize posteriors from majority voting so the first M-step has
	// signal (standard D&S initialization); tasks covered by a warm state
	// resume from the previous epoch's posterior instead.
	post := core.UniformPosterior(d.NumTasks, ell)
	for i := 0; i < d.NumTasks; i++ {
		if warm := opts.WarmStart.PosteriorRow(i, ell); warm != nil {
			copy(post[i], warm)
			continue
		}
		row := post[i]
		for k := range row {
			row[k] = 0
		}
		deg := c.TaskDegree(i)
		for p := c.TaskOff[i]; p < c.TaskOff[i+1]; p++ {
			row[c.TaskLabel[p]]++
		}
		if deg == 0 {
			for k := range row {
				row[k] = 1
			}
		}
		mathx.Normalize(row)
	}
	core.PinGolden(post, opts.Golden)
	// Every write to post lands in place in UniformPosterior's flat
	// backing array, which the M-step reads without loading a row header
	// per answer.
	var postFlat []float64
	if d.NumTasks > 0 {
		postFlat = post[0][:d.NumTasks*ell]
	}

	flatPrev := make([]float64, d.NumWorkers*ell*ell)
	logPrior := make([]float64, ell)
	logConf := newConfusion(d.NumWorkers, ell)

	// M-step: confusion matrices from posteriors, fanned out over
	// workers — each goroutine owns a disjoint band of conf.flat. Cell
	// (j, k) of the worker's block is blk[j*ell+k].
	mStep := func(_, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			blk := conf.workerRows(w)
			for j := 0; j < ell; j++ {
				row := blk[j*ell : (j+1)*ell]
				for k := range row {
					row[k] = Smoothing
					if priors != nil {
						row[k] += priors(w, j, k)
					}
				}
			}
			for p := c.WorkerOff[w]; p < c.WorkerOff[w+1]; p++ {
				t := int(c.WorkerTask[p]) * ell
				lab := int(c.WorkerLabel[p])
				for j, pj := range postFlat[t : t+ell] {
					blk[j*ell+lab] += pj
				}
			}
			for j := 0; j < ell; j++ {
				mathx.Normalize(blk[j*ell : (j+1)*ell])
			}
		}
	}
	// Log-confusion table: each worker's cells logged once per iteration
	// instead of once per (answer, choice) in the E-step — the dominant
	// cost on redundancy ≥ 2 datasets, removed without changing a bit.
	logStep := func(_, wlo, whi int) {
		base := wlo * ell * ell
		for x := base; x < whi*ell*ell; x++ {
			logConf.flat[x] = math.Log(conf.flat[x])
		}
	}
	// E-step: task posteriors from confusion matrices, fanned out over
	// tasks — each goroutine owns a disjoint set of post rows, computed
	// in place (same op sequence the old scratch-then-copy performed).
	eStep := func(_, ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			row := post[i]
			copy(row, logPrior)
			for p := c.TaskOff[i]; p < c.TaskOff[i+1]; p++ {
				lrow := logConf.workerRows(int(c.TaskWorker[p]))
				lab := int(c.TaskLabel[p])
				for j := 0; j < ell; j++ {
					row[j] += lrow[j*ell+lab]
				}
			}
			mathx.NormalizeLog(row)
		}
	}

	var iter int
	converged := false
	for iter = 1; iter <= opts.MaxIter(); iter++ {
		copy(flatPrev, conf.flat)
		pool.ForSlot(d.NumWorkers, mStep)
		// Class prior: an O(tasks·ℓ) reduction, kept sequential so its
		// summation order never depends on the chunk layout.
		for k := range classPrior {
			classPrior[k] = Smoothing
		}
		for i := 0; i < d.NumTasks; i++ {
			for k, p := range post[i] {
				classPrior[k] += p
			}
		}
		mathx.Normalize(classPrior)
		for k := 0; k < ell; k++ {
			logPrior[k] = math.Log(classPrior[k])
		}

		pool.ForSlot(d.NumWorkers, logStep)
		pool.ForSlot(d.NumTasks, eStep)
		core.PinGolden(post, opts.Golden)

		if core.MaxAbsDiff(conf.flat, flatPrev) < opts.Tol() {
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
		WorkerQuality: conf.diagMeans(),
		Confusion:     conf.matrices(),
		Iterations:    iter,
		Converged:     converged,
	}, nil
}

// confusion is a dense workers × ℓ × ℓ tensor backed by one slice.
type confusion struct {
	flat []float64
	ell  int
}

func newConfusion(workers, ell int) *confusion {
	return &confusion{flat: make([]float64, workers*ell*ell), ell: ell}
}

func (c *confusion) row(worker, j int) []float64 {
	base := (worker*c.ell + j) * c.ell
	return c.flat[base : base+c.ell]
}

// workerRows returns the worker's full ℓ×ℓ block as one flat slice; cell
// (j, k) lives at index j*ell+k. The E-step walks it directly instead of
// re-slicing per row.
func (c *confusion) workerRows(worker int) []float64 {
	base := worker * c.ell * c.ell
	return c.flat[base : base+c.ell*c.ell]
}

// diagMeans summarizes each worker by the mean of the confusion diagonal —
// the expected accuracy under a uniform class prior.
func (c *confusion) diagMeans() []float64 {
	workers := len(c.flat) / (c.ell * c.ell)
	out := make([]float64, workers)
	for w := 0; w < workers; w++ {
		var s float64
		for j := 0; j < c.ell; j++ {
			s += c.row(w, j)[j]
		}
		out[w] = s / float64(c.ell)
	}
	return out
}

func (c *confusion) matrices() [][][]float64 {
	workers := len(c.flat) / (c.ell * c.ell)
	out := make([][][]float64, workers)
	for w := range out {
		mat := make([][]float64, c.ell)
		for j := range mat {
			mat[j] = append([]float64(nil), c.row(w, j)...)
		}
		out[w] = mat
	}
	return out
}

// initConfusion seeds each worker's matrix with a diagonally dominant
// stochastic matrix; with a qualification test the diagonal is the
// worker's measured golden-task accuracy.
func initConfusion(c *confusion, d *dataset.Dataset, opts core.Options) {
	ell := float64(c.ell)
	for w := 0; w < d.NumWorkers; w++ {
		diag := 0.7
		if opts.QualificationAccuracy != nil && !math.IsNaN(opts.QualificationAccuracy[w]) {
			diag = mathx.Clamp(opts.QualificationAccuracy[w], 0.05, 0.95)
		}
		off := (1 - diag) / (ell - 1)
		for j := 0; j < c.ell; j++ {
			row := c.row(w, j)
			for k := range row {
				if j == k {
					row[k] = diag
				} else {
					row[k] = off
				}
			}
		}
	}
}
