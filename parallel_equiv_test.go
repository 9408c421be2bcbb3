package truthinference

// Engine equivalence suite — the regression gate for the parallel
// inference engine: for every parallelized method, Parallelism: 8 must
// produce byte-identical Result.Truth and per-worker quality estimates to
// Parallelism: 1 on all five simulated benchmark datasets. Any chunk-
// layout-dependent arithmetic, shared-RNG ordering, or data race that
// slips into a hot loop shows up here as a float mismatch (and under
// `go test -race` as a race report).

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"truthinference/internal/dataset"
	"truthinference/internal/simulate"
)

// parallelMethods names every method whose hot loops fan out over the
// engine pool.
var parallelMethods = []string{
	"D&S", "GLAD", "ZC", "LFC", "PM", "CATD",
	"BCC", "CBCC", "Minimax", "VI-BP", "VI-MF", "LFC_N",
}

// equivScale keeps the five datasets small enough that the full
// methods × datasets matrix stays fast even under the race detector.
const equivScale = 0.03

func TestParallelMatchesSequential(t *testing.T) {
	for _, kind := range simulate.Kinds {
		d := simulate.GenerateScaled(kind, 1, equivScale)
		for _, name := range parallelMethods {
			m, err := GetMethod(name)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Capabilities().SupportsType(d.Type) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", d.Name, name), func(t *testing.T) {
				opts := Options{Seed: 7, MaxIterations: 15}
				seqOpts, parOpts := opts, opts
				seqOpts.Parallelism = 1
				parOpts.Parallelism = 8
				seq, err := m.Infer(d, seqOpts)
				if err != nil {
					t.Fatal(err)
				}
				par, err := m.Infer(d, parOpts)
				if err != nil {
					t.Fatal(err)
				}
				if len(seq.Truth) != len(par.Truth) {
					t.Fatalf("truth length %d vs %d", len(seq.Truth), len(par.Truth))
				}
				for i := range seq.Truth {
					if seq.Truth[i] != par.Truth[i] {
						t.Fatalf("truth[%d]: sequential %v, parallel %v", i, seq.Truth[i], par.Truth[i])
					}
				}
				if len(seq.WorkerQuality) != len(par.WorkerQuality) {
					t.Fatalf("quality length %d vs %d", len(seq.WorkerQuality), len(par.WorkerQuality))
				}
				for w := range seq.WorkerQuality {
					if seq.WorkerQuality[w] != par.WorkerQuality[w] {
						t.Fatalf("workerQuality[%d]: sequential %v, parallel %v",
							w, seq.WorkerQuality[w], par.WorkerQuality[w])
					}
				}
				if seq.Iterations != par.Iterations || seq.Converged != par.Converged {
					t.Fatalf("loop accounting differs: sequential (%d, %v), parallel (%d, %v)",
						seq.Iterations, seq.Converged, par.Iterations, par.Converged)
				}
			})
		}
	}
}

// TestParallelMatchesSequentialWithGolden repeats the gate with hidden-
// test golden tasks pinned, exercising the golden paths of the parallel
// loops for the golden-capable methods.
func TestParallelMatchesSequentialWithGolden(t *testing.T) {
	d := simulate.GenerateScaled(simulate.DProduct, 1, equivScale)
	golden := map[int]float64{}
	n := 0
	for task, v := range d.Truth {
		golden[task] = v
		if n++; n >= 10 {
			break
		}
	}
	for _, name := range parallelMethods {
		m, err := GetMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		caps := m.Capabilities()
		if !caps.SupportsType(d.Type) || !caps.Golden {
			continue
		}
		t.Run(name, func(t *testing.T) {
			seq, err := m.Infer(d, Options{Seed: 3, MaxIterations: 10, Golden: golden, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := m.Infer(d, Options{Seed: 3, MaxIterations: 10, Golden: golden, Parallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			for i := range seq.Truth {
				if seq.Truth[i] != par.Truth[i] {
					t.Fatalf("truth[%d]: sequential %v, parallel %v", i, seq.Truth[i], par.Truth[i])
				}
			}
		})
	}
}

// TestInferLeavesWarmSourceAndCSRUntouched pins two read-only contracts:
// Result.Warm aliases the previous result instead of copying it, and
// every method reads the dataset's one shared CSR (the experiment
// harness runs concurrent cells on one dataset). A cold Infer followed
// by a warm-started one must leave both the warm source result and
// d.CSR() bit-identical.
func TestInferLeavesWarmSourceAndCSRUntouched(t *testing.T) {
	for _, kind := range simulate.Kinds {
		d := simulate.GenerateScaled(kind, 1, equivScale)
		fresh := dataset.BuildCSR(d)
		for _, name := range parallelMethods {
			m, err := GetMethod(name)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Capabilities().SupportsType(d.Type) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", d.Name, name), func(t *testing.T) {
				opts := Options{Seed: 7, MaxIterations: 5, Parallelism: 2}
				prev, err := m.Infer(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := resultBits(prev)
				opts.WarmStart = prev.Warm()
				if _, err := m.Infer(d, opts); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(resultBits(prev), want) {
					t.Error("warm-started Infer modified the result its WarmStart aliases")
				}
				if !reflect.DeepEqual(d.CSR(), fresh) {
					t.Error("Infer modified the dataset's CSR")
				}
			})
		}
	}
}

// resultBits flattens every slice of a Result into its lengths and bits.
func resultBits(r *Result) []uint64 {
	var out []uint64
	add := func(xs []float64) {
		out = append(out, uint64(len(xs)))
		for _, x := range xs {
			out = append(out, math.Float64bits(x))
		}
	}
	add(r.Truth)
	for _, row := range r.Posterior {
		add(row)
	}
	add(r.WorkerQuality)
	add(r.WorkerVariance)
	for _, mat := range r.Confusion {
		for _, row := range mat {
			add(row)
		}
	}
	for _, c := range r.Community {
		out = append(out, uint64(c))
	}
	return out
}
