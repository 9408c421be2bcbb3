package pm

import (
	"math"
	"testing"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/randx"
	"truthinference/internal/testutil"
)

// inferCategoricalMapReference is the pre-refactor PM coordinate descent,
// preserved verbatim: index-slice walks, per-chunk vote scratch, and the
// ArgmaxTieBreak + HashPick closure tie-break. The CSR kernels, with
// their inline hash tie-break, must reproduce it bit for bit.
func inferCategoricalMapReference(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	pool := opts.EnginePool()
	q := initialQuality(d, opts, func(acc float64) float64 {
		return -math.Log(math.Max(1-acc, lossEpsilon))
	})
	warmQuality(opts, q)

	truth := make([]float64, d.NumTasks)
	prevTruth := make([]float64, d.NumTasks)
	losses := make([]float64, d.NumWorkers)

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
				for k := range votes {
					votes[k] = 0
				}
				idxs := d.TaskAnswers(i)
				if len(idxs) == 0 {
					continue
				}
				for _, ai := range idxs {
					a := d.Answers[ai]
					votes[a.Label()] += q[a.Worker]
				}
				i := i
				truth[i] = float64(core.ArgmaxTieBreak(votes, func(n int) int {
					return randx.HashPick(n, opts.Seed, int64(iter), int64(i))
				}))
			}
		})
		pool.For(d.NumWorkers, func(wlo, whi int) {
			for w := wlo; w < whi; w++ {
				var loss float64
				for _, ai := range d.WorkerAnswers(w) {
					a := d.Answers[ai]
					if a.Label() != int(truth[a.Task]) {
						loss++
					}
				}
				losses[w] = loss
			}
		})
		maxLoss := lossEpsilon
		for _, loss := range losses {
			if loss > maxLoss {
				maxLoss = loss
			}
		}
		for w := range q {
			if len(d.WorkerAnswers(w)) == 0 {
				continue
			}
			q[w] = -math.Log((losses[w] + lossEpsilon) / (maxLoss + lossEpsilon))
			if q[w] == 0 {
				q[w] = 0
			}
		}
		if iter > 1 && core.MaxAbsDiff(truth, prevTruth) == 0 {
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

// inferNumericMapReference is the pre-refactor numeric PM loop, preserved
// verbatim.
func inferNumericMapReference(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	q := initialQuality(d, opts, func(_ float64) float64 { return 1 })
	warmQuality(opts, q)
	scale := TaskScales(d)

	pool := opts.EnginePool()
	truth := make([]float64, d.NumTasks)
	prevTruth := make([]float64, d.NumTasks)
	losses := make([]float64, d.NumWorkers)

	var iter int
	converged := false
	for iter = 1; iter <= opts.MaxIter(); iter++ {
		copy(prevTruth, truth)
		pool.For(d.NumTasks, func(ilo, ihi int) {
			for i := ilo; i < ihi; i++ {
				if gv, ok := opts.Golden[i]; ok {
					truth[i] = gv
					continue
				}
				idxs := d.TaskAnswers(i)
				if len(idxs) == 0 {
					continue
				}
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
		})
		pool.For(d.NumWorkers, func(wlo, whi int) {
			for w := wlo; w < whi; w++ {
				var loss float64
				for _, ai := range d.WorkerAnswers(w) {
					a := d.Answers[ai]
					dv := (a.Value - truth[a.Task]) / scale[a.Task]
					loss += dv * dv
				}
				losses[w] = loss
			}
		})
		maxLoss := lossEpsilon
		for _, loss := range losses {
			if loss > maxLoss {
				maxLoss = loss
			}
		}
		for w := range q {
			if len(d.WorkerAnswers(w)) == 0 {
				continue
			}
			qw := -math.Log((losses[w] + lossEpsilon) / (maxLoss + lossEpsilon))
			if qw <= 0 {
				qw = lossEpsilon
			}
			q[w] = qw
		}
		if core.MaxAbsDiff(truth, prevTruth) < opts.Tol() {
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
// the categorical weighted-vote path (including its hash tie-breaks) and
// the numeric weighted-mean path — bit for bit at 1 and 4 workers.
func TestKernelMatchesMapImplementation(t *testing.T) {
	categorical := []*dataset.Dataset{
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 12, NumWorkers: 5, NumChoices: 2, Redundancy: 4, Seed: 2}),
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 10, NumWorkers: 6, NumChoices: 4, Redundancy: 4, Seed: 3}),
		// Uniform worker qualities on the first iteration make exact vote
		// ties common, exercising the inline hash tie-break.
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 60, NumWorkers: 12, NumChoices: 3, Redundancy: 6, Seed: 9}),
	}
	numeric := testutil.Numeric(testutil.NumericSpec{NumTasks: 8, NumWorkers: 5, Redundancy: 3, Seed: 4})
	m := New()
	for _, d := range categorical {
		for _, par := range []int{1, 4} {
			for _, row := range testutil.EdgeOptions(core.Options{Seed: 7, MaxIterations: 50, Parallelism: par}) {
				want, err := inferCategoricalMapReference(d, row.Opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.Infer(d, row.Opts)
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireIdenticalResults(t, "pm-categorical "+row.Name, got, want)
			}
		}
	}
	for _, par := range []int{1, 4} {
		for _, row := range testutil.EdgeOptions(core.Options{Seed: 7, MaxIterations: 50, Parallelism: par}) {
			want, err := inferNumericMapReference(numeric, row.Opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Infer(numeric, row.Opts)
			if err != nil {
				t.Fatal(err)
			}
			testutil.RequireIdenticalResults(t, "pm-numeric "+row.Name, got, want)
		}
	}
}
