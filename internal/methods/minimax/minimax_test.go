package minimax

import (
	"reflect"
	"testing"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/testutil"
)

// majorityVote is the MV baseline the minimax-entropy model must beat on
// crowds with planted quality structure (first index wins ties — the
// deterministic variant is enough for a baseline).
func majorityVote(d *dataset.Dataset) []float64 {
	out := make([]float64, d.NumTasks)
	votes := make([]float64, d.NumChoices)
	for i := 0; i < d.NumTasks; i++ {
		for k := range votes {
			votes[k] = 0
		}
		for _, ai := range d.TaskAnswers(i) {
			votes[d.Answers[ai].Label()]++
		}
		best := 0
		for k := 1; k < d.NumChoices; k++ {
			if votes[k] > votes[best] {
				best = k
			}
		}
		out[i] = float64(best)
	}
	return out
}

// TestMinimaxConvergesOnSeparableCrowd: on a cleanly separable crowd
// (uniformly competent workers, ample redundancy) the coordinate descent
// must report convergence before the iteration cap and recover the
// planted truth.
func TestMinimaxConvergesOnSeparableCrowd(t *testing.T) {
	d := testutil.Categorical(testutil.CrowdSpec{NumTasks: 200, NumWorkers: 20, Redundancy: 5, Seed: 42})
	res, err := New().Infer(d, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("not converged after %d iterations", res.Iterations)
	}
	if res.Iterations >= DefaultOuterIterations {
		t.Errorf("took %d iterations, want < %d", res.Iterations, DefaultOuterIterations)
	}
	if got := testutil.AccuracyOf(d.Truth, res.Truth); got < 0.85 {
		t.Errorf("accuracy %.3f < 0.85 on separable crowd", got)
	}
}

// TestMinimaxDeterministicAcrossRuns: equal options must reproduce the
// identical result, including the parallel path (Gibbs-free, but the
// truth update involves tie-breaking and fan-out).
func TestMinimaxDeterministicAcrossRuns(t *testing.T) {
	d := testutil.Categorical(testutil.CrowdSpec{NumTasks: 120, NumWorkers: 12, NumChoices: 3, Redundancy: 4, Seed: 7})
	for _, par := range []int{1, 4} {
		a, err := New().Infer(d, core.Options{Seed: 11, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		b, err := New().Infer(d, core.Options{Seed: 11, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Truth, b.Truth) {
			t.Errorf("parallelism %d: truth not deterministic under equal seeds", par)
		}
		if !reflect.DeepEqual(a.WorkerQuality, b.WorkerQuality) {
			t.Errorf("parallelism %d: worker quality not deterministic under equal seeds", par)
		}
	}
}

// TestMinimaxBeatsMVOnSpammerCrowd: with half the crowd answering at
// chance, per-worker modeling must beat the unweighted majority vote.
func TestMinimaxBeatsMVOnSpammerCrowd(t *testing.T) {
	const nw = 16
	acc := make([]float64, nw)
	for w := range acc {
		if w < nw/2 {
			acc[w] = 0.5 // spammers
		} else {
			acc[w] = 0.92
		}
	}
	d := testutil.Categorical(testutil.CrowdSpec{NumTasks: 400, NumWorkers: nw, Redundancy: 6, Accuracies: acc, Seed: 5})
	res, err := New().Infer(d, core.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mv := testutil.AccuracyOf(d.Truth, majorityVote(d))
	mm := testutil.AccuracyOf(d.Truth, res.Truth)
	t.Logf("minimax %.3f vs MV %.3f", mm, mv)
	if mm <= mv {
		t.Errorf("minimax accuracy %.3f not above MV %.3f on spammer crowd", mm, mv)
	}
	if mm < 0.9 {
		t.Errorf("minimax accuracy %.3f < 0.9 on spammer crowd", mm)
	}
}

// TestMinimaxQualitySeparatesSpammers: the τ-derived skill summary must
// rank competent workers above chance-level ones.
func TestMinimaxQualitySeparatesSpammers(t *testing.T) {
	const nw = 12
	acc := make([]float64, nw)
	for w := range acc {
		if w%2 == 0 {
			acc[w] = 0.5
		} else {
			acc[w] = 0.9
		}
	}
	d := testutil.Categorical(testutil.CrowdSpec{NumTasks: 300, NumWorkers: nw, Redundancy: 6, Accuracies: acc, Seed: 9})
	res, err := New().Infer(d, core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var spam, good float64
	for w := 0; w < nw; w++ {
		if w%2 == 0 {
			spam += res.WorkerQuality[w]
		} else {
			good += res.WorkerQuality[w]
		}
	}
	if spam/(nw/2) >= good/(nw/2) {
		t.Errorf("spammer mean quality %.3f not below good %.3f", spam/(nw/2), good/(nw/2))
	}
}

// TestMinimaxGoldenPinned mirrors the golden-task checks of the other
// golden-capable suites.
func TestMinimaxGoldenPinned(t *testing.T) {
	d := testutil.Categorical(testutil.CrowdSpec{NumTasks: 60, NumWorkers: 8, Redundancy: 4, Seed: 15})
	golden := map[int]float64{0: d.Truth[0], 1: d.Truth[1], 2: d.Truth[2]}
	res, err := New().Infer(d, core.Options{Seed: 1, Golden: golden})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range golden {
		if res.Truth[id] != v {
			t.Errorf("golden task %d = %v, want %v", id, res.Truth[id], v)
		}
	}
}

// TestMinimaxRejectsQualification: §6.3.2 lists Minimax among the methods
// without a qualification entry point.
func TestMinimaxRejectsQualification(t *testing.T) {
	d := testutil.Categorical(testutil.CrowdSpec{NumTasks: 20, NumWorkers: 5, Redundancy: 3, Seed: 17})
	if _, err := New().Infer(d, core.Options{QualificationAccuracy: make([]float64, 5)}); err == nil {
		t.Error("Minimax must reject qualification initialization")
	}
}

// TestMinimaxStopsOnMuTolerance pins the μ tolerance stop, which the
// label-churn rule pre-empts on most crowds. On this one, μ moves by less
// than 0.5 in the first iteration while more labels than the churn rule
// allows still flip, so Minimax stops after one iteration at tolerance
// 0.5 and only after two, on the churn rule, at the default tolerance.
func TestMinimaxStopsOnMuTolerance(t *testing.T) {
	acc := make([]float64, 12)
	for w := range acc {
		acc[w] = 0.65
	}
	d := testutil.Categorical(testutil.CrowdSpec{NumTasks: 60, NumWorkers: 12, NumChoices: 3, Redundancy: 5, Accuracies: acc, Seed: 38})
	for _, tc := range []struct {
		tol  float64
		want int
	}{{0.5, 1}, {0, 2}} {
		res, err := New().Infer(d, core.Options{Seed: 7, Tolerance: tc.tol})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != tc.want || !res.Converged {
			t.Errorf("tolerance %v: %d iterations (converged %v), want %d, converged",
				tc.tol, res.Iterations, res.Converged, tc.want)
		}
	}
}
