package dataset

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomDataset builds a dataset with an adversarial answer order (shuffled,
// with answer-less tasks and workers) for CSR cross-checks.
func randomDataset(t *testing.T, typ TaskType, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const tasks, workers, choices = 37, 11, 5
	var answers []Answer
	for task := 0; task < tasks; task++ {
		if task%9 == 3 {
			continue // answer-less task
		}
		red := 1 + rng.Intn(6)
		perm := rng.Perm(workers)
		for _, w := range perm[:red] {
			if w == 7 {
				continue // worker 7 stays answer-less
			}
			v := float64(rng.Intn(choices))
			if typ == Numeric {
				v = rng.NormFloat64() * 10
			}
			answers = append(answers, Answer{Task: task, Worker: w, Value: v})
		}
	}
	rng.Shuffle(len(answers), func(i, j int) { answers[i], answers[j] = answers[j], answers[i] })
	nc := choices
	if typ == Decision {
		nc = 2
		for i := range answers {
			answers[i].Value = float64(int(answers[i].Value) % 2)
		}
	} else if typ == Numeric {
		nc = 0
	}
	d, err := New("csr-random", typ, nc, tasks, workers, answers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCSRMatchesIndices cross-checks both layouts of the dataset's CSR
// against a plain scan of Answers: same rows, answers in ascending index
// order within a row, same labels/values — the property the kernels'
// bit-exact equivalence rests on. A fresh BuildCSR equals the built one.
func TestCSRMatchesIndices(t *testing.T) {
	for _, typ := range []TaskType{Decision, SingleChoice, Numeric} {
		d := randomDataset(t, typ, int64(typ)+1)
		c := d.CSR()
		if !reflect.DeepEqual(c, BuildCSR(d)) {
			t.Fatalf("%v: BuildCSR differs from the dataset's CSR", typ)
		}
		byTask := make([][]int32, d.NumTasks)
		byWorker := make([][]int32, d.NumWorkers)
		for i, a := range d.Answers {
			byTask[a.Task] = append(byTask[a.Task], int32(i))
			byWorker[a.Worker] = append(byWorker[a.Worker], int32(i))
		}
		if c.NumTasks != d.NumTasks || c.NumWorkers != d.NumWorkers || c.NumChoices != d.NumChoices {
			t.Fatalf("%v: dims (%d,%d,%d) != dataset (%d,%d,%d)", typ,
				c.NumTasks, c.NumWorkers, c.NumChoices, d.NumTasks, d.NumWorkers, d.NumChoices)
		}
		if int(c.TaskOff[d.NumTasks]) != len(d.Answers) || int(c.WorkerOff[d.NumWorkers]) != len(d.Answers) {
			t.Fatalf("%v: offsets do not cover all %d answers", typ, len(d.Answers))
		}
		for i := 0; i < d.NumTasks; i++ {
			idxs := byTask[i]
			if !slices.Equal(d.TaskAnswers(i), idxs) {
				t.Fatalf("%v task %d: answers %v, want %v", typ, i, d.TaskAnswers(i), idxs)
			}
			if c.TaskDegree(i) != len(idxs) {
				t.Fatalf("%v task %d: CSR degree %d, index degree %d", typ, i, c.TaskDegree(i), len(idxs))
			}
			for k, ai := range idxs {
				p := int(c.TaskOff[i]) + k
				a := d.Answers[ai]
				if int(c.TaskWorker[p]) != a.Worker {
					t.Fatalf("%v task %d pos %d: worker %d, want %d", typ, i, k, c.TaskWorker[p], a.Worker)
				}
				if d.Categorical() {
					if int(c.TaskLabel[p]) != a.Label() {
						t.Fatalf("%v task %d pos %d: label %d, want %d", typ, i, k, c.TaskLabel[p], a.Label())
					}
				} else if c.TaskValue[p] != a.Value {
					t.Fatalf("%v task %d pos %d: value %v, want %v", typ, i, k, c.TaskValue[p], a.Value)
				}
			}
		}
		for w := 0; w < d.NumWorkers; w++ {
			idxs := byWorker[w]
			if !slices.Equal(d.WorkerAnswers(w), idxs) {
				t.Fatalf("%v worker %d: answers %v, want %v", typ, w, d.WorkerAnswers(w), idxs)
			}
			if c.WorkerDegree(w) != len(idxs) {
				t.Fatalf("%v worker %d: CSR degree %d, index degree %d", typ, w, c.WorkerDegree(w), len(idxs))
			}
			for k, ai := range idxs {
				p := int(c.WorkerOff[w]) + k
				a := d.Answers[ai]
				if int(c.WorkerTask[p]) != a.Task {
					t.Fatalf("%v worker %d pos %d: task %d, want %d", typ, w, k, c.WorkerTask[p], a.Task)
				}
				if d.Categorical() {
					if int(c.WorkerLabel[p]) != a.Label() {
						t.Fatalf("%v worker %d pos %d: label %d, want %d", typ, w, k, c.WorkerLabel[p], a.Label())
					}
				} else if c.WorkerValue[p] != a.Value {
					t.Fatalf("%v worker %d pos %d: value %v, want %v", typ, w, k, c.WorkerValue[p], a.Value)
				}
			}
		}
		// Layout invariant: exactly one of the label/value pairs populated.
		if d.Categorical() {
			if c.TaskLabel == nil || c.TaskValue != nil || c.WorkerLabel == nil || c.WorkerValue != nil {
				t.Fatalf("%v: categorical CSR must carry labels only", typ)
			}
		} else if c.TaskValue == nil || c.TaskLabel != nil || c.WorkerValue == nil || c.WorkerLabel != nil {
			t.Fatalf("%v: numeric CSR must carry values only", typ)
		}
	}
}

// TestCSREmptyDataset covers the degenerate shapes: no answers, and a
// dataset with tasks/workers declared but nothing answered.
func TestCSREmptyDataset(t *testing.T) {
	d, err := New("empty", Decision, 2, 4, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := BuildCSR(d)
	if len(c.TaskOff) != 5 || len(c.WorkerOff) != 4 {
		t.Fatalf("offset lengths %d/%d, want 5/4", len(c.TaskOff), len(c.WorkerOff))
	}
	for i := 0; i < 4; i++ {
		if c.TaskDegree(i) != 0 {
			t.Fatalf("task %d degree %d, want 0", i, c.TaskDegree(i))
		}
	}
}
