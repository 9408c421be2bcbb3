package ds

import (
	"math"
	"testing"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
	"truthinference/internal/testutil"
)

// runMapReference is the pre-refactor EM loop, preserved verbatim as a
// reference: it walks the dataset's per-task/per-worker index slices and
// Answer structs, takes math.Log per (answer, choice) in the E-step, and
// allocates its scratch per chunk. TestKernelMatchesMapImplementation
// cross-checks the CSR kernels in run() against it bit for bit.
func runMapReference(d *dataset.Dataset, opts core.Options, priors func(worker, j, k int) float64) (*core.Result, error) {
	rng := randx.New(opts.Seed)
	pool := opts.EnginePool()
	ell := d.NumChoices

	conf := newConfusion(d.NumWorkers, ell)
	initConfusion(conf, d, opts)
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
		idxs := d.TaskAnswers(i)
		for _, ai := range idxs {
			row[d.Answers[ai].Label()]++
		}
		if len(idxs) == 0 {
			for k := range row {
				row[k] = 1
			}
		}
		mathx.Normalize(row)
	}
	core.PinGolden(post, opts.Golden)

	flatPrev := make([]float64, d.NumWorkers*ell*ell)
	var iter int
	converged := false
	for iter = 1; iter <= opts.MaxIter(); iter++ {
		copy(flatPrev, conf.flat)
		pool.For(d.NumWorkers, func(wlo, whi int) {
			for w := wlo; w < whi; w++ {
				for j := 0; j < ell; j++ {
					row := conf.row(w, j)
					for k := range row {
						row[k] = Smoothing
						if priors != nil {
							row[k] += priors(w, j, k)
						}
					}
				}
				for _, ai := range d.WorkerAnswers(w) {
					a := d.Answers[ai]
					p := post[a.Task]
					for j := 0; j < ell; j++ {
						conf.row(w, j)[a.Label()] += p[j]
					}
				}
				for j := 0; j < ell; j++ {
					mathx.Normalize(conf.row(w, j))
				}
			}
		})
		for k := range classPrior {
			classPrior[k] = Smoothing
		}
		for i := 0; i < d.NumTasks; i++ {
			for k, p := range post[i] {
				classPrior[k] += p
			}
		}
		mathx.Normalize(classPrior)

		logPrior := make([]float64, ell)
		for k := 0; k < ell; k++ {
			logPrior[k] = math.Log(classPrior[k])
		}

		pool.For(d.NumTasks, func(ilo, ihi int) {
			logw := make([]float64, ell)
			for i := ilo; i < ihi; i++ {
				copy(logw, logPrior)
				for _, ai := range d.TaskAnswers(i) {
					a := d.Answers[ai]
					for j := 0; j < ell; j++ {
						logw[j] += math.Log(conf.row(a.Worker, j)[a.Label()])
					}
				}
				mathx.NormalizeLog(logw)
				copy(post[i], logw)
			}
		})
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

// kernelCorpus mirrors the categorical golden-corpus dataset specs
// (internal/testutil/golden) plus a denser crowd that exercises longer
// rows and tie-heavy posteriors.
func kernelCorpus() []*dataset.Dataset {
	return []*dataset.Dataset{
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 12, NumWorkers: 5, NumChoices: 2, Redundancy: 4, Seed: 2}),
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 10, NumWorkers: 6, NumChoices: 4, Redundancy: 4, Seed: 3}),
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 60, NumWorkers: 12, NumChoices: 3, Redundancy: 7, Seed: 9}),
	}
}

// TestKernelMatchesMapImplementation proves the CSR rewrite changed the
// memory layout and nothing else: on the golden-corpus dataset shapes the
// columnar kernels must reproduce the pre-refactor map/index loops bit for
// bit — truths, posteriors, confusion matrices, iteration counts — with
// and without LFC-style priors, at 1 and 4 workers.
func TestKernelMatchesMapImplementation(t *testing.T) {
	lfcPriors := func(_, j, k int) float64 {
		if j == k {
			return 2
		}
		return 1
	}
	for _, d := range kernelCorpus() {
		for _, par := range []int{1, 4} {
			for _, row := range testutil.EdgeOptions(core.Options{Seed: 7, MaxIterations: 50, Parallelism: par}) {
				for name, priors := range map[string]func(int, int, int) float64{"ds": nil, "lfc-priors": lfcPriors} {
					want, err := runMapReference(d, row.Opts, priors)
					if err != nil {
						t.Fatal(err)
					}
					got, err := run(d, row.Opts, priors)
					if err != nil {
						t.Fatal(err)
					}
					testutil.RequireIdenticalResults(t, name+" "+row.Name, got, want)
				}
			}
		}
	}
}
