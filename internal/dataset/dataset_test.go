package dataset

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func small(t *testing.T) *Dataset {
	t.Helper()
	d, err := New("small", Decision, 2, 3, 2, []Answer{
		{Task: 0, Worker: 0, Value: 1},
		{Task: 0, Worker: 1, Value: 0},
		{Task: 1, Worker: 0, Value: 0},
		{Task: 2, Worker: 1, Value: 1},
	}, map[int]float64{0: 1, 2: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func() (*Dataset, error)
	}{
		{"task out of range", func() (*Dataset, error) {
			return New("x", Decision, 2, 1, 1, []Answer{{Task: 5, Worker: 0, Value: 0}}, nil)
		}},
		{"worker out of range", func() (*Dataset, error) {
			return New("x", Decision, 2, 1, 1, []Answer{{Task: 0, Worker: 2, Value: 0}}, nil)
		}},
		{"label out of range", func() (*Dataset, error) {
			return New("x", Decision, 2, 1, 1, []Answer{{Task: 0, Worker: 0, Value: 3}}, nil)
		}},
		{"fractional label", func() (*Dataset, error) {
			return New("x", Decision, 2, 1, 1, []Answer{{Task: 0, Worker: 0, Value: 0.5}}, nil)
		}},
		{"NaN numeric answer", func() (*Dataset, error) {
			return New("x", Numeric, 0, 1, 1, []Answer{{Task: 0, Worker: 0, Value: math.NaN()}}, nil)
		}},
		{"truth out of range", func() (*Dataset, error) {
			return New("x", Decision, 2, 1, 1, nil, map[int]float64{3: 0})
		}},
		{"truth bad label", func() (*Dataset, error) {
			return New("x", SingleChoice, 4, 1, 1, nil, map[int]float64{0: 9})
		}},
		{"decision with 3 choices", func() (*Dataset, error) {
			return New("x", Decision, 3, 1, 1, nil, nil)
		}},
		{"single-choice with 1 choice", func() (*Dataset, error) {
			return New("x", SingleChoice, 1, 1, 1, nil, nil)
		}},
		// Labels are uint16 codes in the CSR, so a store declaring more
		// choices is refused when it is created, not when it first
		// indexes an answer.
		{"choices beyond MaxChoices, no answers", func() (*Dataset, error) {
			return New("x", SingleChoice, 70000, 0, 0, nil, nil)
		}},
		{"choices beyond MaxChoices", func() (*Dataset, error) {
			return New("x", SingleChoice, MaxChoices+1, 1, 1, []Answer{{Task: 0, Worker: 0, Value: 1}}, nil)
		}},
	}
	for _, c := range cases {
		if _, err := c.fn(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// MaxChoices itself is indexable, up to its last label.
	d, err := New("x", SingleChoice, MaxChoices, 1, 1, []Answer{{Task: 0, Worker: 0, Value: MaxChoices - 1}}, nil)
	if err != nil {
		t.Fatalf("MaxChoices rejected: %v", err)
	}
	if got := d.CSR().TaskLabel[0]; int(got) != MaxChoices-1 {
		t.Errorf("label code %d, want %d", got, MaxChoices-1)
	}
}

func TestCheckTruthValidates(t *testing.T) {
	d := small(t)
	if err := d.CheckTruth(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckTruth(3, 0); err == nil {
		t.Error("out-of-range task accepted")
	}
	if err := d.CheckTruth(0, 0.5); err == nil {
		t.Error("fractional label accepted for categorical task")
	}
	if err := d.CheckTruth(0, 2); err == nil {
		t.Error("label beyond the choices accepted")
	}
}

func TestIndices(t *testing.T) {
	d := small(t)
	if got := d.TaskAnswers(0); !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("task 0 answers %v, want [0 1]", got)
	}
	if got := d.WorkerAnswers(1); !slices.Equal(got, []int32{1, 3}) {
		t.Errorf("worker 1 answers %v, want [1 3]", got)
	}
	if got := d.Redundancy(); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("redundancy %v, want 4/3", got)
	}
}

func TestSampleRedundancy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 40
	var answers []Answer
	for i := 0; i < n; i++ {
		for w := 0; w < 5; w++ {
			answers = append(answers, Answer{Task: i, Worker: w, Value: float64(w % 2)})
		}
	}
	d, err := New("r", Decision, 2, n, 5, answers, map[int]float64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 1, 3, 5, 9} {
		sub := d.SampleRedundancy(r, rng)
		for i := 0; i < n; i++ {
			got := len(sub.TaskAnswers(i))
			want := r
			if want > 5 {
				want = 5
			}
			if got != want {
				t.Fatalf("r=%d: task %d kept %d answers, want %d", r, i, got, want)
			}
		}
		if len(sub.Truth) != len(d.Truth) {
			t.Errorf("r=%d: truth not carried over", r)
		}
	}
}

func TestSampleRedundancySubsetProperty(t *testing.T) {
	// Every kept answer must exist in the original (same triple).
	rng := rand.New(rand.NewSource(2))
	d := small(t)
	sub := d.SampleRedundancy(1, rng)
	orig := map[Answer]bool{}
	for _, a := range d.Answers {
		orig[a] = true
	}
	for _, a := range sub.Answers {
		if !orig[a] {
			t.Errorf("answer %+v not in original", a)
		}
	}
}

func TestSplitGoldenPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	truth := map[int]float64{}
	for i := 0; i < n; i++ {
		truth[i] = float64(i % 2)
	}
	d, err := New("g", Decision, 2, n, 1, nil, truth)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, 0.1, 0.5, 1} {
		golden, eval := d.SplitGolden(p, rng)
		if len(golden)+len(eval) != n {
			t.Fatalf("p=%v: partition sizes %d+%d != %d", p, len(golden), len(eval), n)
		}
		wantGolden := int(math.Round(p * float64(n)))
		if len(golden) != wantGolden {
			t.Errorf("p=%v: golden size %d, want %d", p, len(golden), wantGolden)
		}
		for id, v := range golden {
			if _, dup := eval[id]; dup {
				t.Fatalf("task %d in both splits", id)
			}
			if v != truth[id] {
				t.Fatalf("golden truth corrupted for task %d", id)
			}
		}
	}
}

func TestQuickRandomDatasetsValid(t *testing.T) {
	// Property: any structurally valid random dataset builds, and its
	// indices are consistent with its answers.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		w := 1 + rng.Intn(10)
		ell := 2 + rng.Intn(4)
		var answers []Answer
		for i := 0; i < n*3; i++ {
			answers = append(answers, Answer{
				Task: rng.Intn(n), Worker: rng.Intn(w), Value: float64(rng.Intn(ell)),
			})
		}
		typ := SingleChoice
		if ell == 2 {
			typ = Decision
		}
		d, err := New("q", typ, ell, n, w, answers, nil)
		if err != nil {
			return false
		}
		total := 0
		for i := 0; i < n; i++ {
			for _, ai := range d.TaskAnswers(i) {
				if d.Answers[ai].Task != i {
					return false
				}
				total++
			}
		}
		return total == len(answers)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
