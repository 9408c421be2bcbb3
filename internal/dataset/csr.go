package dataset

import "fmt"

// MaxChoices is the largest choice count ℓ a categorical dataset may
// declare: the CSR stores labels as uint16 codes.
const MaxChoices = 1 << 16

// CSR is the columnar (structure-of-arrays) view of a dataset's answer
// graph: the bipartite task–worker adjacency flattened into two
// CSR/CSC-style offset+value layouts, one task-major for E-steps and one
// worker-major for M-steps. It is the dataset's one answer index: Build
// constructs it once, TaskAnswers and WorkerAnswers are views of it, and
// the iterative methods run their inner sweeps over its arrays (through
// Dataset.CSR) — every sweep then reads contiguous memory with no
// per-answer struct loads and no allocations.
//
// Task and worker ids are already dense ints in the data model
// (Definitions 1–5 intern external ids at ingestion), so no id
// dictionaries are needed here; ids narrow to int32 and categorical labels
// to uint16 codes, halving the bytes the hot loops pull through cache.
//
// Iteration order is load-bearing: within a task row (and a worker row)
// answers appear in ascending answer-index order. Floating-point
// accumulation over a row therefore happens in the same order as the
// pre-columnar loops, keeping results bit-identical and preserving the
// engine determinism contract.
//
// Exactly one of the Label/Value pairs is populated: categorical datasets
// carry labels (TaskValue/WorkerValue are nil), numeric datasets carry
// values (TaskLabel/WorkerLabel are nil).
//
// A dataset's CSR is shared by everything that reads the dataset — the
// experiment harness runs concurrent cells on one dataset — so it is
// read-only.
type CSR struct {
	NumTasks   int
	NumWorkers int
	NumChoices int

	// Task-major layout: answers of task i occupy [TaskOff[i], TaskOff[i+1]).
	TaskOff    []int32 // len NumTasks+1
	TaskWorker []int32 // worker of each answer
	TaskAnswer []int32 // index into Answers of each answer
	TaskLabel  []uint16
	TaskValue  []float64

	// Worker-major layout: answers of worker w occupy [WorkerOff[w], WorkerOff[w+1]).
	WorkerOff    []int32 // len NumWorkers+1
	WorkerTask   []int32 // task of each answer
	WorkerAnswer []int32 // index into Answers of each answer
	WorkerLabel  []uint16
	WorkerValue  []float64
}

// BuildCSR flattens d's answer graph into a fresh CSR, independent of the
// one d.CSR returns. It never mutates d and panics on a dataset Build
// would reject.
func BuildCSR(d *Dataset) *CSR {
	c, err := buildCSR(d)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// buildCSR validates every answer and flattens d's answer graph. It is
// O(answers): a counting pass that also validates, then a stable scatter.
func buildCSR(d *Dataset) (*CSR, error) {
	const maxID = 1<<31 - 2
	if d.NumTasks > maxID || d.NumWorkers > maxID || len(d.Answers) > maxID {
		return nil, fmt.Errorf("dataset %q: too large for int32 CSR ids (%d tasks, %d workers, %d answers)",
			d.Name, d.NumTasks, d.NumWorkers, len(d.Answers))
	}
	if d.Categorical() && d.NumChoices > MaxChoices {
		return nil, fmt.Errorf("dataset %q: %d choices overflow uint16 label codes (at most %d)", d.Name, d.NumChoices, MaxChoices)
	}
	n := len(d.Answers)
	c := &CSR{
		NumTasks:     d.NumTasks,
		NumWorkers:   d.NumWorkers,
		NumChoices:   d.NumChoices,
		TaskOff:      make([]int32, d.NumTasks+1),
		TaskWorker:   make([]int32, n),
		TaskAnswer:   make([]int32, n),
		WorkerOff:    make([]int32, d.NumWorkers+1),
		WorkerTask:   make([]int32, n),
		WorkerAnswer: make([]int32, n),
	}
	if d.Categorical() {
		c.TaskLabel = make([]uint16, n)
		c.WorkerLabel = make([]uint16, n)
	} else {
		c.TaskValue = make([]float64, n)
		c.WorkerValue = make([]float64, n)
	}

	// Counting pass: validate each answer and count row sizes into the
	// offset slots shifted by one, so the prefix sum turns them into
	// offsets in place.
	for i := range d.Answers {
		a := &d.Answers[i]
		if err := d.CheckAnswer(*a); err != nil {
			return nil, fmt.Errorf("answer %d: %w", i, err)
		}
		c.TaskOff[a.Task+1]++
		c.WorkerOff[a.Worker+1]++
	}
	for i := 1; i <= d.NumTasks; i++ {
		c.TaskOff[i] += c.TaskOff[i-1]
	}
	for w := 1; w <= d.NumWorkers; w++ {
		c.WorkerOff[w] += c.WorkerOff[w-1]
	}

	// Fill pass in ascending answer order (a stable scatter), so each row
	// lists its answers in ascending index order. Each row's start offset
	// doubles as its fill cursor and ends at the next row's start, so
	// shifting the offsets up one slot afterwards restores them.
	for i := range d.Answers {
		a := &d.Answers[i]
		ti, wi := c.TaskOff[a.Task], c.WorkerOff[a.Worker]
		c.TaskOff[a.Task]++
		c.WorkerOff[a.Worker]++
		c.TaskWorker[ti] = int32(a.Worker)
		c.TaskAnswer[ti] = int32(i)
		c.WorkerTask[wi] = int32(a.Task)
		c.WorkerAnswer[wi] = int32(i)
		if c.TaskLabel != nil {
			l := uint16(a.Label())
			c.TaskLabel[ti] = l
			c.WorkerLabel[wi] = l
		} else {
			c.TaskValue[ti] = a.Value
			c.WorkerValue[wi] = a.Value
		}
	}
	copy(c.TaskOff[1:], c.TaskOff[:d.NumTasks])
	c.TaskOff[0] = 0
	copy(c.WorkerOff[1:], c.WorkerOff[:d.NumWorkers])
	c.WorkerOff[0] = 0
	return c, nil
}

// TaskDegree returns the number of answers task i received.
func (c *CSR) TaskDegree(i int) int { return int(c.TaskOff[i+1] - c.TaskOff[i]) }

// WorkerDegree returns the number of answers worker w gave.
func (c *CSR) WorkerDegree(w int) int { return int(c.WorkerOff[w+1] - c.WorkerOff[w]) }
