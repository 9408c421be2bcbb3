package testutil

import (
	"testing"

	"truthinference/internal/core"
)

// RequireIdenticalResults fails the test unless got reproduces want bit
// for bit across every populated Result field. The kernel cross-check
// tests use it to prove a memory-layout rewrite (CSR kernels vs the
// pre-refactor map loops) left the arithmetic untouched: no tolerance,
// float equality is exact.
func RequireIdenticalResults(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: iterations/converged (%d,%v), reference (%d,%v)",
			label, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	requireIdenticalVec(t, label, "Truth", got.Truth, want.Truth)
	requireIdenticalVec(t, label, "WorkerQuality", got.WorkerQuality, want.WorkerQuality)
	requireIdenticalVec(t, label, "WorkerVariance", got.WorkerVariance, want.WorkerVariance)
	if len(got.Posterior) != len(want.Posterior) {
		t.Fatalf("%s: %d posterior rows, reference %d", label, len(got.Posterior), len(want.Posterior))
	}
	for i := range want.Posterior {
		requireIdenticalVec(t, label, "Posterior row", got.Posterior[i], want.Posterior[i])
	}
	if len(got.Confusion) != len(want.Confusion) {
		t.Fatalf("%s: %d confusion matrices, reference %d", label, len(got.Confusion), len(want.Confusion))
	}
	for w := range want.Confusion {
		if len(got.Confusion[w]) != len(want.Confusion[w]) {
			t.Fatalf("%s: worker %d confusion has %d rows, reference %d",
				label, w, len(got.Confusion[w]), len(want.Confusion[w]))
		}
		for j := range want.Confusion[w] {
			requireIdenticalVec(t, label, "Confusion row", got.Confusion[w][j], want.Confusion[w][j])
		}
	}
}

// OptionRow is one named option set of a cross-check table.
type OptionRow struct {
	Name string
	Opts core.Options
}

// EdgeOptions returns base followed by the variants that end an iterative
// loop early: caps of 1 and 3 iterations and tolerances of 0.5 and 2. The
// kernel cross-check tests run each, so they compare the stop rule as
// well as the sweeps.
func EdgeOptions(base core.Options) []OptionRow {
	rows := []OptionRow{{"plain", base}, {"cap 1", base}, {"cap 3", base}, {"tolerance 0.5", base}, {"tolerance 2", base}}
	rows[1].Opts.MaxIterations, rows[2].Opts.MaxIterations = 1, 3
	rows[3].Opts.Tolerance, rows[4].Opts.Tolerance = 0.5, 2
	return rows
}

func requireIdenticalVec(t *testing.T, label, field string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s has %d entries, reference %d", label, field, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: %s[%d] = %v, reference %v (must be bit-identical)",
				label, field, i, got[i], want[i])
		}
	}
}
