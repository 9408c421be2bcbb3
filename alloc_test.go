package truthinference

// Allocation-regression gate for the CSR sweep kernels. The columnar
// refactor's contract is that once Infer has built its per-call state
// (CSR arrays, posteriors, scratch), each additional E/M sweep performs
// zero heap allocations on the sequential path. testing.AllocsPerRun
// can't see "per sweep" directly, so the test measures the same Infer
// at two iteration caps on a crowd noisy enough that neither run
// converges early; the difference divided by the extra iterations is
// the per-sweep cost, which must be exactly zero.

import (
	"testing"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/testutil"
)

// allocGateCrowd is noisy enough (45%-accurate workers over 3 choices)
// that D&S and LFC keep moving their confusion matrices, ZC its worker
// probabilities, PM keeps flipping labels and GLAD keeps moving its
// abilities well past the caps used below: with Tolerance pinned to an
// unreachable 1e-300, none of them converges before iteration 10. BCC
// and CBCC always run their full sweep schedule.
func allocGateCrowd() *dataset.Dataset {
	acc := make([]float64, 15)
	for w := range acc {
		acc[w] = 0.45
	}
	return testutil.Categorical(testutil.CrowdSpec{
		NumTasks:   80,
		NumWorkers: 15,
		NumChoices: 3,
		Redundancy: 5,
		Accuracies: acc,
		Seed:       11,
	})
}

// allocGateDecisionCrowd feeds Multi, VI-BP and VI-MF, which run on
// decision tasks only; Multi's gradient ascent keeps moving the task
// embeddings, and the VI loops their edge messages and Beta posteriors,
// past the caps.
func allocGateDecisionCrowd() *dataset.Dataset {
	return testutil.Categorical(testutil.CrowdSpec{
		NumTasks: 80, NumWorkers: 15, NumChoices: 2, Redundancy: 5, Seed: 11,
	})
}

// allocGateNumericCrowd feeds the numeric loops of LFC_N, CATD and PM,
// whose truth estimates keep moving past the caps.
func allocGateNumericCrowd() *dataset.Dataset {
	return testutil.Numeric(testutil.NumericSpec{
		NumTasks: 80, NumWorkers: 15, Redundancy: 5, Seed: 11,
	})
}

func TestSweepAllocationRegression(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	categorical, decision, numeric := allocGateCrowd(), allocGateDecisionCrowd(), allocGateNumericCrowd()
	const loCap, hiCap = 4, 10
	for _, tc := range []struct {
		name string
		// subtest names the run when the method has more than one crowd.
		subtest string
		d       *dataset.Dataset
		// gibbs methods report Converged by definition, so only their
		// iteration count shows whether a run swept to its cap.
		gibbs bool
	}{
		{"D&S", "D&S", categorical, false},
		{"PM", "PM", categorical, false},
		{"GLAD", "GLAD", categorical, false},
		{"BCC", "BCC", categorical, true},
		{"CBCC", "CBCC", categorical, true},
		{"ZC", "ZC", categorical, false},
		{"LFC", "LFC", categorical, false},
		{"Multi", "Multi", decision, false},
		{"VI-BP", "VI-BP", decision, false},
		{"VI-MF", "VI-MF", decision, false},
		{"LFC_N", "LFC_N", numeric, false},
		{"CATD", "CATD numeric", numeric, false},
		{"PM", "PM numeric", numeric, false},
	} {
		name, d := tc.name, tc.d
		t.Run(tc.subtest, func(t *testing.T) {
			m, err := GetMethod(name)
			if err != nil {
				t.Fatal(err)
			}
			optsAt := func(cap int) core.Options {
				return core.Options{Seed: 7, MaxIterations: cap, Tolerance: 1e-300, Parallelism: 1}
			}
			// The measurement is only valid if both runs execute exactly
			// their cap's worth of sweeps.
			for _, cap := range []int{loCap, hiCap} {
				r, err := m.Infer(d, optsAt(cap))
				if err != nil {
					t.Fatal(err)
				}
				if r.Iterations != cap || (r.Converged && !tc.gibbs) {
					t.Fatalf("%s converged early (iters=%d, cap=%d): crowd no longer exercises the sweep gate", name, r.Iterations, cap)
				}
			}
			measure := func(cap int) float64 {
				opts := optsAt(cap)
				return testing.AllocsPerRun(10, func() {
					if _, err := m.Infer(d, opts); err != nil {
						t.Fatal(err)
					}
				})
			}
			lo := measure(loCap)
			hi := measure(hiCap)
			perSweep := (hi - lo) / float64(hiCap-loCap)
			if perSweep != 0 {
				t.Fatalf("%s allocates per sweep: %.2f allocs/iteration (%.0f at %d iters vs %.0f at %d iters)",
					name, perSweep, hi, hiCap, lo, loCap)
			}
		})
	}
}
