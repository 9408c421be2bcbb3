package lfc

import (
	"math"
	"testing"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/testutil"
)

// inferNumericMapReference is the pre-refactor LFC_N loop, preserved
// verbatim for the cold path (no warm start): index-slice walks of the
// precision-weighted truth step and per-worker variance step. The CSR
// kernels must reproduce it bit for bit. (LFC itself delegates to the D&S
// chassis, whose kernel cross-check lives in package ds.)
func inferNumericMapReference(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	truth := make([]float64, d.NumTasks)
	for i := 0; i < d.NumTasks; i++ {
		idxs := d.TaskAnswers(i)
		if len(idxs) == 0 {
			continue
		}
		var s float64
		for _, ai := range idxs {
			s += d.Answers[ai].Value
		}
		truth[i] = s / float64(len(idxs))
	}
	pinGoldenNumeric(truth, opts.Golden)

	globalVar := answerVariance(d)
	if globalVar < varFloor {
		globalVar = 1
	}
	variance := make([]float64, d.NumWorkers)
	for w := range variance {
		variance[w] = globalVar
		if opts.QualificationError != nil && !math.IsNaN(opts.QualificationError[w]) {
			variance[w] = math.Max(opts.QualificationError[w], varFloor)
		}
	}

	pool := opts.EnginePool()
	prevTruth := make([]float64, d.NumTasks)
	prevVar := make([]float64, d.NumWorkers)
	var iter int
	converged := false
	for iter = 1; iter <= opts.MaxIter(); iter++ {
		copy(prevTruth, truth)
		copy(prevVar, variance)
		pool.For(d.NumTasks, func(ilo, ihi int) {
			for i := ilo; i < ihi; i++ {
				if _, ok := opts.Golden[i]; ok {
					continue
				}
				idxs := d.TaskAnswers(i)
				if len(idxs) == 0 {
					continue
				}
				var num, den float64
				for _, ai := range idxs {
					a := d.Answers[ai]
					prec := 1 / math.Max(variance[a.Worker], varFloor)
					num += prec * a.Value
					den += prec
				}
				truth[i] = num / den
			}
		})
		pool.For(d.NumWorkers, func(wlo, whi int) {
			for w := wlo; w < whi; w++ {
				idxs := d.WorkerAnswers(w)
				if len(idxs) == 0 {
					continue
				}
				ss := varPriorScale
				for _, ai := range idxs {
					a := d.Answers[ai]
					dv := a.Value - truth[a.Task]
					ss += dv * dv
				}
				variance[w] = math.Max(ss/(float64(len(idxs))+varPriorShape), varFloor)
			}
		})
		if core.MaxAbsDiff(truth, prevTruth) < opts.Tol() &&
			core.MaxAbsDiff(variance, prevVar) < opts.Tol() {
			converged = true
			break
		}
	}
	if iter > opts.MaxIter() {
		iter = opts.MaxIter()
	}

	quality := make([]float64, d.NumWorkers)
	for w := range quality {
		quality[w] = 1 / math.Sqrt(variance[w])
	}
	return &core.Result{
		Truth:          truth,
		WorkerQuality:  quality,
		WorkerVariance: append([]float64(nil), variance...),
		Iterations:     iter,
		Converged:      converged,
	}, nil
}

// TestKernelMatchesMapImplementation cross-checks LFC_N's CSR kernels
// against the pre-refactor map loops on the golden-corpus dataset shape
// plus a larger long-tail crowd, bit for bit at 1 and 4 workers.
func TestKernelMatchesMapImplementation(t *testing.T) {
	corpus := []*dataset.Dataset{
		testutil.Numeric(testutil.NumericSpec{NumTasks: 8, NumWorkers: 5, Redundancy: 3, Seed: 4}),
		testutil.Numeric(testutil.NumericSpec{NumTasks: 50, NumWorkers: 11, Redundancy: 6, Seed: 9}),
	}
	m := NewNumeric()
	for _, d := range corpus {
		for _, par := range []int{1, 4} {
			for _, row := range testutil.EdgeOptions(core.Options{Seed: 7, MaxIterations: 50, Parallelism: par}) {
				want, err := inferNumericMapReference(d, row.Opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.Infer(d, row.Opts)
				if err != nil {
					t.Fatal(err)
				}
				testutil.RequireIdenticalResults(t, "lfc-n "+row.Name, got, want)
			}
		}
	}
}
