package core

import (
	"errors"
	"math"
	"testing"

	"truthinference/internal/dataset"
)

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.MaxIter() != DefaultMaxIterations {
		t.Errorf("MaxIter = %d", o.MaxIter())
	}
	if o.Tol() != DefaultTolerance {
		t.Errorf("Tol = %v", o.Tol())
	}
	o = Options{MaxIterations: 7, Tolerance: 0.5}
	if o.MaxIter() != 7 || o.Tol() != 0.5 {
		t.Errorf("overrides not honored: %d %v", o.MaxIter(), o.Tol())
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if got := MaxAbsDiff([]float64{1, 2}, []float64{1, 5}); got != 3 {
		t.Errorf("MaxAbsDiff = %v, want 3", got)
	}
	if got := MaxAbsDiff([]float64{1}, []float64{1, 2}); !math.IsInf(got, 1) {
		t.Errorf("length mismatch should be +Inf, got %v", got)
	}
	if got := MaxAbsDiff(nil, nil); got != 0 {
		t.Errorf("empty diff = %v, want 0", got)
	}
}

func TestArgmaxTieBreak(t *testing.T) {
	pickCalled := false
	pick := func(n int) int { pickCalled = true; return n - 1 }
	if got := ArgmaxTieBreak([]float64{1, 3, 2}, pick); got != 1 {
		t.Errorf("argmax = %d, want 1", got)
	}
	if pickCalled {
		t.Error("pick invoked without a tie")
	}
	if got := ArgmaxTieBreak([]float64{3, 1, 3}, pick); got != 2 {
		t.Errorf("tie argmax with last-pick = %d, want 2", got)
	}
	if !pickCalled {
		t.Error("pick not invoked on tie")
	}
	if got := ArgmaxTieBreak(nil, pick); got != -1 {
		t.Errorf("empty argmax = %d, want -1", got)
	}
}

// TestArgmaxTieBreakRanksTies checks every vector of length 1–5 over
// {0, 1, 2, NaN} and every pick rank: the result is the rank-th index
// (in index order) of the tie list that the running maximum builds, pick
// sees the tie count, and neither it nor ArgmaxHashTie allocates.
func TestArgmaxTieBreakRanksTies(t *testing.T) {
	alphabet := []float64{0, 1, 2, math.NaN()}
	for n := 1; n <= 5; n++ {
		w := make([]float64, n)
		for code := 0; code < int(math.Pow(4, float64(n))); code++ {
			for i, c := 0, code; i < n; i, c = i+1, c/4 {
				w[i] = alphabet[c%4]
			}
			// The tie list: reset on every new running maximum,
			// extended on every value equal to it.
			best, ties := w[0], []int{0}
			for i := 1; i < n; i++ {
				if w[i] > best {
					best, ties = w[i], []int{i}
				} else if w[i] == best {
					ties = append(ties, i)
				}
			}
			for rank := range ties {
				seen := 0
				got := ArgmaxTieBreak(w, func(k int) int { seen = k; return rank })
				if got != ties[rank] || (len(ties) > 1 && seen != len(ties)) {
					t.Fatalf("ArgmaxTieBreak(%v) with rank %d = %d (pick saw %d), want %d of ties %v",
						w, rank, got, seen, ties[rank], ties)
				}
			}
		}
	}
	w := []float64{2, 1, 2, 2}
	if allocs := testing.AllocsPerRun(10, func() {
		ArgmaxTieBreak(w, func(k int) int { return k - 1 })
		ArgmaxHashTie(w, 7, 3, 1)
	}); allocs != 0 {
		t.Errorf("ArgmaxTieBreak or ArgmaxHashTie allocates %.0f times on a tie", allocs)
	}
}

func TestPosteriorLabelsHonorsGolden(t *testing.T) {
	post := [][]float64{{0.9, 0.1}, {0.2, 0.8}}
	golden := map[int]float64{0: 1}
	labels := PosteriorLabels(post, golden, func(int) int { return 0 })
	if labels[0] != 1 {
		t.Errorf("golden label overridden: %v", labels[0])
	}
	if labels[1] != 1 {
		t.Errorf("argmax label = %v, want 1", labels[1])
	}
}

func TestUniformPosterior(t *testing.T) {
	p := UniformPosterior(3, 4)
	if len(p) != 3 || len(p[0]) != 4 {
		t.Fatalf("shape %dx%d", len(p), len(p[0]))
	}
	for _, row := range p {
		for _, v := range row {
			if v != 0.25 {
				t.Fatalf("entry %v, want 0.25", v)
			}
		}
	}
	// Rows must not alias each other.
	p[0][0] = 9
	if p[1][0] == 9 {
		t.Error("posterior rows alias")
	}
}

func TestPinGolden(t *testing.T) {
	post := [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	PinGolden(post, map[int]float64{1: 0, 7: 1})
	if post[1][0] != 1 || post[1][1] != 0 {
		t.Errorf("pinned row = %v", post[1])
	}
	if post[0][0] != 0.5 {
		t.Error("unpinned row modified")
	}
}

// fakeMethod exercises CheckSupport.
type fakeMethod struct{ caps Capabilities }

func (fakeMethod) Name() string                                     { return "fake" }
func (m fakeMethod) Capabilities() Capabilities                     { return m.caps }
func (fakeMethod) Infer(*dataset.Dataset, Options) (*Result, error) { return nil, nil }

func TestCheckSupport(t *testing.T) {
	dec, err := dataset.New("d", dataset.Decision, 2, 2, 2,
		[]dataset.Answer{{Task: 0, Worker: 0, Value: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := fakeMethod{caps: Capabilities{TaskTypes: []dataset.TaskType{dataset.Numeric}}}
	if err := CheckSupport(m, dec, Options{}); !errors.Is(err, ErrTaskType) {
		t.Errorf("want ErrTaskType, got %v", err)
	}
	m = fakeMethod{caps: Capabilities{TaskTypes: []dataset.TaskType{dataset.Decision}}}
	if err := CheckSupport(m, dec, Options{Golden: map[int]float64{0: 1}}); !errors.Is(err, ErrGoldenUnsupported) {
		t.Errorf("want ErrGoldenUnsupported, got %v", err)
	}
	if err := CheckSupport(m, dec, Options{QualificationAccuracy: []float64{1, 1}}); !errors.Is(err, ErrQualificationUnsupported) {
		t.Errorf("want ErrQualificationUnsupported, got %v", err)
	}
	m.caps.Qualification = true
	if err := CheckSupport(m, dec, Options{QualificationAccuracy: []float64{1}}); err == nil {
		t.Error("want length-mismatch error")
	}
	if err := CheckSupport(m, dec, Options{QualificationAccuracy: []float64{1, 1}}); err != nil {
		t.Errorf("valid qualification rejected: %v", err)
	}
}

func TestWantQualification(t *testing.T) {
	if (Options{}).WantQualification() {
		t.Error("empty options should not want qualification")
	}
	if !(Options{QualificationAccuracy: []float64{1}}).WantQualification() {
		t.Error("accuracy vector should trigger qualification")
	}
	if !(Options{QualificationError: []float64{1}}).WantQualification() {
		t.Error("error vector should trigger qualification")
	}
}
