package zc

import (
	"math"
	"testing"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
	"truthinference/internal/testutil"
)

// inferMapReference is the pre-refactor ZC loop, preserved verbatim: it
// walks the per-task/per-worker index slices, recomputes log(q_w) and
// log((1-q_w)/(ℓ-1)) per answer, and allocates its E-step scratch per
// chunk. The CSR kernels must reproduce it bit for bit.
func inferMapReference(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	rng := randx.New(opts.Seed)
	ell := float64(d.NumChoices)

	q := make([]float64, d.NumWorkers)
	for w := range q {
		q[w] = DefaultInitialQuality
		if opts.QualificationAccuracy != nil && !math.IsNaN(opts.QualificationAccuracy[w]) {
			q[w] = mathx.Clamp(opts.QualificationAccuracy[w], qualityFloor, 1-qualityFloor)
		}
		q[w] = mathx.Clamp(opts.WarmStart.QualityOr(w, q[w]), qualityFloor, 1-qualityFloor)
	}

	pool := opts.EnginePool()
	post := core.UniformPosterior(d.NumTasks, d.NumChoices)
	prevQ := make([]float64, d.NumWorkers)

	var iter int
	converged := false
	for iter = 1; iter <= opts.MaxIter(); iter++ {
		pool.For(d.NumTasks, func(ilo, ihi int) {
			logw := make([]float64, d.NumChoices)
			for i := ilo; i < ihi; i++ {
				for k := range logw {
					logw[k] = 0
				}
				for _, ai := range d.TaskAnswers(i) {
					a := d.Answers[ai]
					qw := mathx.Clamp(q[a.Worker], qualityFloor, 1-qualityFloor)
					logCorrect := math.Log(qw)
					logWrong := math.Log((1 - qw) / (ell - 1))
					for k := 0; k < d.NumChoices; k++ {
						if a.Label() == k {
							logw[k] += logCorrect
						} else {
							logw[k] += logWrong
						}
					}
				}
				mathx.NormalizeLog(logw)
				copy(post[i], logw)
			}
		})
		core.PinGolden(post, opts.Golden)

		copy(prevQ, q)
		pool.For(d.NumWorkers, func(wlo, whi int) {
			for w := wlo; w < whi; w++ {
				idxs := d.WorkerAnswers(w)
				if len(idxs) == 0 {
					continue
				}
				var s float64
				for _, ai := range idxs {
					a := d.Answers[ai]
					s += post[a.Task][a.Label()]
				}
				q[w] = mathx.Clamp(s/float64(len(idxs)), qualityFloor, 1-qualityFloor)
			}
		})

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

// TestKernelMatchesMapImplementation cross-checks the CSR kernels against
// the pre-refactor map loops on the golden-corpus dataset shapes: every
// field of the result must match bit for bit at 1 and 4 workers.
func TestKernelMatchesMapImplementation(t *testing.T) {
	corpus := []*dataset.Dataset{
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 12, NumWorkers: 5, NumChoices: 2, Redundancy: 4, Seed: 2}),
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 10, NumWorkers: 6, NumChoices: 4, Redundancy: 4, Seed: 3}),
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 60, NumWorkers: 12, NumChoices: 3, Redundancy: 7, Seed: 9}),
	}
	for _, d := range corpus {
		for _, par := range []int{1, 4} {
			for _, row := range testutil.EdgeOptions(core.Options{Seed: 7, MaxIterations: 50, Parallelism: par}) {
				want, err := inferMapReference(d, row.Opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := New().Infer(d, row.Opts)
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireIdenticalResults(t, "zc "+row.Name, got, want)
			}
		}
	}
}
