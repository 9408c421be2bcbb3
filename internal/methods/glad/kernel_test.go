package glad

import (
	"math"
	"math/rand"
	"testing"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
	"truthinference/internal/testutil"
)

// inferMapReference is the pre-refactor GLAD loop, preserved verbatim: it
// walks the per-task/per-worker index slices and Answer structs, with the
// E-step scratch allocated per chunk, and takes σ(α·β) through the
// original clamp-then-logistic mapCorrectProb. The CSR kernels must
// reproduce it bit for bit.
func inferMapReference(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	rng := randx.New(opts.Seed)
	ell := float64(d.NumChoices)

	alpha := make([]float64, d.NumWorkers)
	for w := range alpha {
		alpha[w] = 1
		if opts.QualificationAccuracy != nil && !math.IsNaN(opts.QualificationAccuracy[w]) {
			alpha[w] = mathx.Logit(mathx.Clamp(opts.QualificationAccuracy[w], 0.05, 0.95))
		}
		alpha[w] = opts.WarmStart.QualityOr(w, alpha[w])
	}
	logBeta := make([]float64, d.NumTasks)

	pool := opts.EnginePool()
	post := core.UniformPosterior(d.NumTasks, d.NumChoices)
	prevAlpha := make([]float64, d.NumWorkers)
	gradAlpha := make([]float64, d.NumWorkers)
	gradLogBeta := make([]float64, d.NumTasks)

	var iter int
	converged := false
	for iter = 1; iter <= opts.MaxIter(); iter++ {
		pool.For(d.NumTasks, func(ilo, ihi int) {
			logw := make([]float64, d.NumChoices)
			for i := ilo; i < ihi; i++ {
				for k := range logw {
					logw[k] = 0
				}
				beta := math.Exp(logBeta[i])
				for _, ai := range d.TaskAnswers(i) {
					a := d.Answers[ai]
					p := mapCorrectProb(alpha[a.Worker], beta)
					logCorrect := math.Log(p)
					logWrong := math.Log((1 - p) / (ell - 1))
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

		copy(prevAlpha, alpha)
		for step := 0; step < gradSteps; step++ {
			pool.For(d.NumWorkers, func(wlo, whi int) {
				for w := wlo; w < whi; w++ {
					g := -priorWeight * (alpha[w] - 1)
					for _, ai := range d.WorkerAnswers(w) {
						a := d.Answers[ai]
						beta := math.Exp(logBeta[a.Task])
						s := mapCorrectProb(alpha[w], beta)
						g += (post[a.Task][a.Label()] - s) * beta
					}
					gradAlpha[w] = g
				}
			})
			pool.For(d.NumTasks, func(ilo, ihi int) {
				for i := ilo; i < ihi; i++ {
					g := -priorWeight * logBeta[i]
					beta := math.Exp(logBeta[i])
					for _, ai := range d.TaskAnswers(i) {
						a := d.Answers[ai]
						s := mapCorrectProb(alpha[a.Worker], beta)
						g += (post[i][a.Label()] - s) * alpha[a.Worker] * beta
					}
					gradLogBeta[i] = g
				}
			})
			for w := range alpha {
				alpha[w] += learningRate * gradAlpha[w]
			}
			for i := range logBeta {
				logBeta[i] = mathx.Clamp(logBeta[i]+learningRate*gradLogBeta[i], -5, 5)
			}
		}

		if core.MaxAbsDiff(alpha, prevAlpha) < opts.Tol() {
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
		WorkerQuality: append([]float64(nil), alpha...),
		Iterations:    iter,
		Converged:     converged,
	}, nil
}

// mapCorrectProb is correctProb as the map loops computed it.
func mapCorrectProb(alpha, beta float64) float64 {
	return mathx.Logistic(mathx.Clamp(alpha*beta, -clampAbility, clampAbility))
}

// TestKernelMatchesMapImplementation cross-checks the CSR kernels against
// the pre-refactor map loops on the golden-corpus dataset shapes, plus one
// crowd whose answers arrive in shuffled order (as a stream ingests them),
// so worker rows are not sorted by task: every field of the result must
// match bit for bit at 1 and 4 workers, with plain options and on each
// option path that seeds or pins the state the σ cache is computed from
// (golden pins, qualification-initialized and warm-started abilities).
// The iteration cap is lowered to keep GLAD's gradient M-step fast.
func TestKernelMatchesMapImplementation(t *testing.T) {
	corpus := []*dataset.Dataset{
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 12, NumWorkers: 5, NumChoices: 2, Redundancy: 4, Seed: 2}),
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 10, NumWorkers: 6, NumChoices: 4, Redundancy: 4, Seed: 3}),
		testutil.Categorical(testutil.CrowdSpec{NumTasks: 60, NumWorkers: 12, NumChoices: 3, Redundancy: 7, Seed: 9}),
		arrivalOrder(t, testutil.Categorical(testutil.CrowdSpec{NumTasks: 40, NumWorkers: 9, NumChoices: 3, Redundancy: 5, Seed: 4})),
	}
	for _, d := range corpus {
		for _, par := range []int{1, 4} {
			base := core.Options{Seed: 7, MaxIterations: 25, Parallelism: par}
			for _, row := range optionRows(t, d, base) {
				want, err := inferMapReference(d, row.Opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := New().Infer(d, row.Opts)
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireIdenticalResults(t, "glad "+row.Name, got, want)
			}
		}
	}
}

// optionRows returns base, its testutil.EdgeOptions variants, and one
// variant per option path: every third task pinned to its truth,
// qualification accuracies for all but every third worker, and a warm
// start from a shorter run's Result.Warm().
func optionRows(t *testing.T, d *dataset.Dataset, base core.Options) []testutil.OptionRow {
	t.Helper()
	golden := base
	golden.Golden = map[int]float64{}
	for i := 0; i < d.NumTasks; i += 3 {
		golden.Golden[i] = d.Truth[i]
	}
	qual := base
	qual.QualificationAccuracy = make([]float64, d.NumWorkers)
	for w := range qual.QualificationAccuracy {
		qual.QualificationAccuracy[w] = math.NaN()
		if w%3 != 0 {
			qual.QualificationAccuracy[w] = 0.55 + 0.1*float64(w%4)
		}
	}
	short := base
	short.MaxIterations = 5
	prev, err := New().Infer(d, short)
	if err != nil {
		t.Fatal(err)
	}
	warm := base
	warm.WarmStart = prev.Warm()
	return append(testutil.EdgeOptions(base), testutil.OptionRow{Name: "golden", Opts: golden},
		testutil.OptionRow{Name: "qualification", Opts: qual}, testutil.OptionRow{Name: "warm start", Opts: warm})
}

// arrivalOrder returns d with its answers shuffled, so the answer order no
// longer follows task order.
func arrivalOrder(t *testing.T, d *dataset.Dataset) *dataset.Dataset {
	t.Helper()
	answers := append([]dataset.Answer(nil), d.Answers...)
	rand.New(rand.NewSource(1)).Shuffle(len(answers), func(i, j int) { answers[i], answers[j] = answers[j], answers[i] })
	out, err := dataset.New(d.Name+"-arrival", d.Type, d.NumChoices, d.NumTasks, d.NumWorkers, answers, d.Truth)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
