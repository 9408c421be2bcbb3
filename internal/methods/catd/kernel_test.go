package catd

import (
	"testing"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
	"truthinference/internal/testutil"
)

// inferMapReference is the pre-refactor CATD loop, preserved verbatim:
// index-slice walks, per-chunk vote scratch, and the ArgmaxTieBreak +
// HashPick closure tie-break. The CSR kernels must reproduce it bit for
// bit.
func inferMapReference(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	pool := opts.EnginePool()

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
		for w := range q {
			q[w] = opts.WarmStart.QualityOr(w, q[w])
		}
		normalizeWeights(q)
	}

	var scale []float64
	if !d.Categorical() {
		scale = taskScales(d)
	}

	truth := make([]float64, d.NumTasks)
	prevTruth := make([]float64, d.NumTasks)

	var iter int
	converged := false
	for iter = 1; iter <= opts.MaxIter(); iter++ {
		copy(prevTruth, truth)
		iter := iter
		pool.For(d.NumTasks, func(ilo, ihi int) {
			votes := make([]float64, d.NumChoices)
			for i := ilo; i < ihi; i++ {
				if gv, ok := opts.Golden[i]; ok {
					truth[i] = gv
					continue
				}
				idxs := d.TaskAnswers(i)
				if len(idxs) == 0 {
					continue
				}
				if d.Categorical() {
					for k := range votes {
						votes[k] = 0
					}
					for _, ai := range idxs {
						a := d.Answers[ai]
						votes[a.Label()] += q[a.Worker]
					}
					i := i
					truth[i] = float64(core.ArgmaxTieBreak(votes, func(n int) int {
						return randx.HashPick(n, opts.Seed, int64(iter), int64(i))
					}))
				} else {
					var num, den float64
					for _, ai := range idxs {
						a := d.Answers[ai]
						num += q[a.Worker] * a.Value
						den += q[a.Worker]
					}
					if den > 0 {
						truth[i] = num / den
					}
				}
			}
		})
		pool.For(d.NumWorkers, func(wlo, whi int) {
			for w := wlo; w < whi; w++ {
				idxs := d.WorkerAnswers(w)
				if len(idxs) == 0 {
					continue
				}
				var loss float64
				for _, ai := range idxs {
					a := d.Answers[ai]
					if d.Categorical() {
						if a.Label() != int(truth[a.Task]) {
							loss++
						}
					} else {
						dv := (a.Value - truth[a.Task]) / scale[a.Task]
						loss += dv * dv
					}
				}
				q[w] = chi[w] / (loss + lossEpsilon)
			}
		})
		normalizeWeights(q)

		var done bool
		if d.Categorical() {
			done = iter > 1 && core.MaxAbsDiff(truth, prevTruth) == 0
		} else {
			done = core.MaxAbsDiff(truth, prevTruth) < opts.Tol()
		}
		if done {
			converged = true
			break
		}
	}
	if iter > opts.MaxIter() {
		iter = opts.MaxIter()
	}
	return &core.Result{
		Truth:         truth,
		WorkerQuality: q,
		Iterations:    iter,
		Converged:     converged,
	}, nil
}

// TestKernelMatchesMapImplementation cross-checks the CSR kernels against
// the pre-refactor map loops on the golden-corpus dataset shapes — both
// the categorical weighted-vote path (hash tie-breaks included) and the
// numeric weighted-mean path — bit for bit at 1 and 4 workers.
func TestKernelMatchesMapImplementation(t *testing.T) {
	corpus := []*dataset.Dataset{
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 12, NumWorkers: 5, NumChoices: 2, Redundancy: 4, Seed: 2}),
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 10, NumWorkers: 6, NumChoices: 4, Redundancy: 4, Seed: 3}),
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 60, NumWorkers: 12, NumChoices: 3, Redundancy: 6, Seed: 9}),
		testutil.Numeric(testutil.NumericSpec{NumTasks: 8, NumWorkers: 5, Redundancy: 3, Seed: 4}),
	}
	m := New()
	for _, d := range corpus {
		for _, par := range []int{1, 4} {
			for _, row := range testutil.EdgeOptions(core.Options{Seed: 7, MaxIterations: 50, Parallelism: par}) {
				want, err := inferMapReference(d, row.Opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.Infer(d, row.Opts)
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireIdenticalResults(t, "catd/"+d.Name+" "+row.Name, got, want)
			}
		}
	}
}
