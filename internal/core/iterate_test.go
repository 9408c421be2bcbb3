package core_test

import (
	"testing"

	"truthinference/internal/core"
	"truthinference/internal/testutil"
)

// TestIterate checks the driver's three stop rules: the cap, the strict
// tolerance test over every watched vector, and the step's done.
func TestIterate(t *testing.T) {
	opts := core.Options{MaxIterations: 4, Tolerance: 0.5}
	moving := []float64{1, 1, 1, 1}
	still := []float64{0, 0, 0, 0}
	never := []bool{false, false, false, false}
	for _, tc := range []struct {
		name string
		// Step iter moves x by dx[iter-1] and y by dy[iter-1], then
		// returns done[iter-1]. The loop watches the first watch of x, y.
		dx, dy    []float64
		done      []bool
		watch     int
		wantIters int
		wantConv  bool
	}{
		{"nothing settles: the cap, unconverged", moving, moving, never, 2, 4, false},
		{"settles at step 2", []float64{1, 0.25, 1, 1}, []float64{1, 0.25, 1, 1}, never, 2, 2, true},
		{"settles at the cap", []float64{1, 1, 1, 0.25}, []float64{1, 1, 1, 0.25}, never, 2, 4, true},
		{"done stops at once", moving, moving, []bool{false, true, false, false}, 2, 2, true},
		{"x alone settles at step 1", []float64{0.25, 0.25, 0.25, 0.25}, moving, never, 1, 1, true},
		{"x and y settle only when y does", []float64{0.25, 0.25, 0.25, 0.25}, []float64{1, 1, 0.25, 1}, never, 2, 3, true},
		{"a change equal to tol does not settle", []float64{0.5, 0.5, 0.5, 0.5}, still, never, 2, 4, false},
		{"nothing watched: the cap", still, still, never, 0, 4, false},
		{"nothing watched: done", still, still, []bool{false, false, true, false}, 0, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, y := []float64{0}, []float64{0}
			steps := 0
			iters, conv := core.Iterate(opts, func(iter int) bool {
				steps++
				if iter != steps {
					t.Fatalf("step %d got iter %d", steps, iter)
				}
				x[0] += tc.dx[iter-1]
				y[0] += tc.dy[iter-1]
				return tc.done[iter-1]
			}, [][]float64{x, y}[:tc.watch]...)
			if iters != tc.wantIters || conv != tc.wantConv {
				t.Errorf("Iterate = (%d, %v), want (%d, %v)", iters, conv, tc.wantIters, tc.wantConv)
			}
			if steps != iters {
				t.Errorf("ran %d steps, reported %d", steps, iters)
			}
		})
	}
}

// TestIterateAllocatesNothingPerStep measures the driver at two caps on a
// loop that never settles: the difference is the cost of the extra
// steps, which must be zero.
func TestIterateAllocatesNothingPerStep(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	x, y := make([]float64, 64), make([]float64, 8)
	step := func(int) bool {
		x[0]++
		y[0]++
		return false
	}
	measure := func(cap int) float64 {
		opts := core.Options{MaxIterations: cap}
		return testing.AllocsPerRun(10, func() {
			if n, _ := core.Iterate(opts, step, x, y); n != cap {
				t.Fatalf("ran %d steps, want %d", n, cap)
			}
		})
	}
	if lo, hi := measure(4), measure(40); hi != lo {
		t.Errorf("Iterate allocates per step: %.0f allocations at 4 steps, %.0f at 40", lo, hi)
	}
}
