package dataset

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// exposed is a deep copy of what a dataset exposes: its fields, answers,
// truths and index.
type exposed struct {
	Name                             string
	Type                             TaskType
	NumChoices, NumTasks, NumWorkers int
	Answers                          []Answer
	Truth                            map[int]float64
	CSR                              CSR
}

func expose(d *Dataset) exposed {
	c := *d.CSR()
	for _, s := range []*[]int32{&c.TaskOff, &c.TaskWorker, &c.TaskAnswer, &c.WorkerOff, &c.WorkerTask, &c.WorkerAnswer} {
		*s = slices.Clone(*s)
	}
	c.TaskLabel, c.WorkerLabel = slices.Clone(c.TaskLabel), slices.Clone(c.WorkerLabel)
	c.TaskValue, c.WorkerValue = slices.Clone(c.TaskValue), slices.Clone(c.WorkerValue)
	return exposed{d.Name, d.Type, d.NumChoices, d.NumTasks, d.NumWorkers,
		slices.Clone(d.Answers), maps.Clone(d.Truth), c}
}

// randomValue draws a valid answer value or truth for d's task type.
func randomValue(rng *rand.Rand, d *Dataset) float64 {
	if d.Type == Numeric {
		return rng.NormFloat64() * 10
	}
	return float64(rng.Intn(d.NumChoices))
}

// randomDelta draws one batch on top of d: ranges that grow or stay put,
// answers that skip some tasks and workers, and now and then a delta with
// no answers at all, or with nothing but a truth. Truths carry over from
// d, and may be overwritten.
func randomDelta(rng *rand.Rand, d *Dataset) (delta []Answer, tasks, workers int, truth map[int]float64) {
	tasks, workers = d.NumTasks, d.NumWorkers
	if rng.Intn(2) == 0 {
		tasks += rng.Intn(9)
	}
	if rng.Intn(2) == 0 {
		workers += rng.Intn(4)
	}
	truth = maps.Clone(d.Truth)
	if truth == nil {
		truth = map[int]float64{}
	}
	switch rng.Intn(4) {
	case 0: // no answers, no new truths
	case 1: // truths only
		if tasks > 0 {
			truth[rng.Intn(tasks)] = randomValue(rng, d)
		}
	default:
		for n := 1 + rng.Intn(20); n > 0 && tasks > 0 && workers > 0; n-- {
			a := Answer{Task: rng.Intn(tasks), Worker: rng.Intn(workers), Value: randomValue(rng, d)}
			if a.Task%7 == 3 || a.Worker%5 == 2 {
				continue // these tasks and workers stay answer-less
			}
			delta = append(delta, a)
		}
	}
	return delta, tasks, workers, truth
}

// checkExtend extends d by one batch and requires the result to equal New
// over the concatenated answers, bit for bit, with d unchanged.
func checkExtend(t *testing.T, d *Dataset, delta []Answer, tasks, workers int, truth map[int]float64) *Dataset {
	t.Helper()
	before := expose(d)
	got, err := d.Extend(delta, tasks, workers, truth)
	if err != nil {
		t.Fatalf("Extend by %d answers to %d×%d: %v", len(delta), tasks, workers, err)
	}
	all := append(d.Answers[:len(d.Answers):len(d.Answers)], delta...)
	want, err := New(d.Name, d.Type, d.NumChoices, tasks, workers, all, truth)
	if err != nil {
		t.Fatalf("New over the concatenation: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Extend by %d answers to %d×%d differs from New over the concatenation", len(delta), tasks, workers)
	}
	if !reflect.DeepEqual(expose(d), before) {
		t.Fatalf("Extend changed its receiver")
	}
	return got
}

// TestExtendMatchesNew pins Extend's contract on random batch sequences
// for each task type: each result is reflect.DeepEqual to New over the
// concatenated answers (the same Answers, Truth, ranges and CSR) and the
// receiver is unchanged. Every few steps the same dataset is extended
// twice; both results must stay correct after the second, which has to
// copy rather than write past the first one's answers. The sequences also
// take the in-place path, where a result shares its receiver's answers.
func TestExtendMatchesNew(t *testing.T) {
	inPlace := 0
	for _, typ := range []TaskType{Decision, SingleChoice, Numeric} {
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			choices := map[TaskType]int{Decision: 2, SingleChoice: 4, Numeric: 0}[typ]
			d, err := New("extend", typ, choices, 0, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 30; step++ {
				delta, tasks, workers, truth := randomDelta(rng, d)
				room := cap(d.tail)-len(d.tail) >= len(delta)
				got := checkExtend(t, d, delta, tasks, workers, truth)
				if room && len(d.Answers) > 0 {
					if &got.Answers[0] != &d.Answers[0] {
						t.Fatalf("%v seed %d step %d: first Extend with spare capacity copied the answers", typ, seed, step)
					}
					inPlace++
				}
				if step%3 == 0 {
					delta2, tasks2, workers2, truth2 := randomDelta(rng, d)
					again := checkExtend(t, d, delta2, tasks2, workers2, truth2)
					want, err := New(d.Name, typ, choices, tasks, workers, append(slices.Clone(d.Answers), delta...), truth)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v seed %d step %d: a second Extend of the receiver changed the first result", typ, seed, step)
					}
					if rng.Intn(2) == 0 {
						got = again
					}
				}
				d = got
			}
		}
	}
	if inPlace == 0 {
		t.Fatal("no Extend appended in place")
	}
}

// TestExtendRejectsWithoutTrace pins Extend's errors: an invalid delta
// answer fails with New's error for the same answers, naming its global
// index; an invalid truth names its task; shrinking ranges fail. The
// receiver is unchanged, and it keeps its spare capacity for the next
// Extend.
func TestExtendRejectsWithoutTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, err := New("extend", SingleChoice, 3, 10, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5 || cap(d.tail) == len(d.tail); step++ {
		delta, tasks, workers, truth := randomDelta(rng, d)
		d = checkExtend(t, d, delta, tasks, workers, truth)
	}
	n := len(d.Answers)
	valid := Answer{Task: 0, Worker: 0, Value: 1}
	for _, tc := range []struct {
		name        string
		delta       []Answer
		truth       map[int]float64
		wantMessage string
	}{
		{"task out of range", []Answer{valid, {Task: d.NumTasks, Worker: 0, Value: 1}}, nil, fmt.Sprintf("answer %d:", n+1)},
		{"negative worker", []Answer{valid, valid, {Task: 0, Worker: -1, Value: 1}}, nil, fmt.Sprintf("answer %d:", n+2)},
		{"label out of range", []Answer{{Task: 0, Worker: 0, Value: 3}}, nil, fmt.Sprintf("answer %d:", n)},
		{"fractional label", []Answer{valid, {Task: 1, Worker: 1, Value: 0.5}}, nil, fmt.Sprintf("answer %d:", n+1)},
		{"truth out of range", []Answer{valid}, map[int]float64{d.NumTasks: 1}, fmt.Sprintf("task %d", d.NumTasks)},
		{"invalid truth label", []Answer{valid}, map[int]float64{2: 7}, "task 2"},
	} {
		before := expose(d)
		_, err := d.Extend(tc.delta, d.NumTasks, d.NumWorkers, tc.truth)
		if err == nil || !strings.Contains(err.Error(), tc.wantMessage) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.wantMessage)
		}
		all := append(slices.Clone(d.Answers), tc.delta...)
		if _, newErr := New(d.Name, d.Type, d.NumChoices, d.NumTasks, d.NumWorkers, all, tc.truth); err != nil && (newErr == nil || newErr.Error() != err.Error()) {
			t.Errorf("%s: Extend error %q, New over the concatenation %v", tc.name, err, newErr)
		}
		if !reflect.DeepEqual(expose(d), before) {
			t.Errorf("%s: a rejected Extend changed its receiver", tc.name)
		}
	}
	if _, err := d.Extend(nil, d.NumTasks-1, d.NumWorkers, nil); err == nil {
		t.Error("Extend shrank the task range")
	}
	if _, err := d.Extend(nil, d.NumTasks, d.NumWorkers-1, nil); err == nil {
		t.Error("Extend shrank the worker range")
	}
	got := checkExtend(t, d, []Answer{valid}, d.NumTasks, d.NumWorkers, d.Truth)
	if &got.Answers[0] != &d.Answers[0] {
		t.Error("rejected Extends used up the receiver's spare capacity")
	}
}

// TestExtendLeavesCallersCapacity pins that Extend never appends into the
// spare capacity of a slice handed to New: the caller still owns it.
func TestExtendLeavesCallersCapacity(t *testing.T) {
	backing := []Answer{{Task: 0, Worker: 0, Value: 1}, {Task: 1, Worker: 1, Value: 0}, {Task: 1, Worker: 0, Value: 1}}
	d, err := New("caller", Decision, 2, 2, 2, backing[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	checkExtend(t, d, []Answer{{Task: 0, Worker: 1, Value: 0}}, 2, 2, nil)
	if backing[2] != (Answer{Task: 1, Worker: 0, Value: 1}) {
		t.Errorf("Extend wrote %+v into the capacity of the slice handed to New", backing[2])
	}
}
