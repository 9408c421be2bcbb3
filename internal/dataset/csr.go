package dataset

import "fmt"

// MaxChoices is the largest choice count ℓ a categorical dataset may
// declare: the CSR stores labels as uint16 codes.
const MaxChoices = 1 << 16

// CSR is the columnar (structure-of-arrays) view of a dataset's answer
// graph: the bipartite task–worker adjacency flattened into two
// CSR/CSC-style offset+value layouts, one task-major for E-steps and one
// worker-major for M-steps. It is the dataset's one answer index: Build
// or Extend constructs it once, TaskAnswers and WorkerAnswers are views
// of it, and the iterative methods run their inner sweeps over its arrays
// (through Dataset.CSR) — every sweep then reads contiguous memory with
// no per-answer struct loads and no allocations.
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
	c, err := extendCSR(d, emptyCSR, d.Answers)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// emptyCSR indexes no tasks, workers or answers. Build extends it by every
// answer, so a full build and an Extend run the same code.
var emptyCSR = &CSR{TaskOff: []int32{0}, WorkerOff: []int32{0}}

// extendCSR returns the index of old's answers followed by delta over d's
// ranges, which are at least old's: old indexes answers [0, n0) and delta
// holds answers n0, n0+1, …. It validates each delta answer against d and
// is O(ranges + answers), with old's n0 entries moved by block copies:
// every row keeps its old entries, in order, and gains its new answers at
// its end, where their larger indices belong. So each row lists its
// answers in ascending index order whatever the split between old and
// delta, and extending by a delta equals building over all the answers.
func extendCSR(d *Dataset, old *CSR, delta []Answer) (*CSR, error) {
	const maxID = 1<<31 - 2
	n0 := len(old.TaskAnswer)
	n := n0 + len(delta)
	if d.NumTasks > maxID || d.NumWorkers > maxID || n > maxID {
		return nil, fmt.Errorf("dataset %q: too large for int32 CSR ids (%d tasks, %d workers, %d answers)",
			d.Name, d.NumTasks, d.NumWorkers, n)
	}
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

	// Counting pass: validate each new answer and count it in its rows'
	// own offset slots.
	for i := range delta {
		a := &delta[i]
		if err := d.CheckAnswer(*a); err != nil {
			return nil, fmt.Errorf("answer %d: %w", n0+i, err)
		}
		c.TaskOff[a.Task]++
		c.WorkerOff[a.Worker]++
	}
	c.byTask().place(old.byTask())
	c.byWorker().place(old.byWorker())

	// Fill pass in ascending answer order (a stable scatter). Each row's
	// first free slot doubles as its fill cursor and ends at the next
	// row's start, so shifting the offsets up one slot afterwards turns
	// them into row starts.
	for i := range delta {
		a := &delta[i]
		ti, wi := c.TaskOff[a.Task], c.WorkerOff[a.Worker]
		c.TaskOff[a.Task]++
		c.WorkerOff[a.Worker]++
		idx := int32(n0 + i)
		c.TaskWorker[ti] = int32(a.Worker)
		c.TaskAnswer[ti] = idx
		c.WorkerTask[wi] = int32(a.Task)
		c.WorkerAnswer[wi] = idx
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

// layout is one half of a CSR: rows of entries, each carrying the id at
// its other end (the worker in a task row, the task in a worker row), its
// answer index, and its label or value.
type layout struct {
	off, other, answer []int32
	label              []uint16
	value              []float64
}

func (c *CSR) byTask() layout {
	return layout{c.TaskOff, c.TaskWorker, c.TaskAnswer, c.TaskLabel, c.TaskValue}
}

func (c *CSR) byWorker() layout {
	return layout{c.WorkerOff, c.WorkerTask, c.WorkerAnswer, c.WorkerLabel, c.WorkerValue}
}

// place turns l.off, which holds each row's count of new answers in the
// row's own slot, into each row's first free slot, and copies old's rows
// in ahead of those slots. Rows beyond old's range start empty. All old
// entries between two rows that gain answers shift by the same amount,
// so they move as one block.
func (l layout) place(old layout) {
	oldRows := len(old.off) - 1
	n0 := old.off[oldRows]
	var lo, shift int32 // the pending block of old entries starts at lo and moves up by shift
	for r := range len(l.off) - 1 {
		hi := n0
		if r < oldRows {
			hi = old.off[r+1]
		}
		cnt := l.off[r]
		l.off[r] = hi + shift
		if cnt != 0 {
			if lo < hi {
				l.move(old, lo, hi, shift)
			}
			lo, shift = hi, shift+cnt
		}
	}
	if lo < n0 {
		l.move(old, lo, n0, shift)
	}
}

// move copies old's entries [lo, hi) to [lo+shift, hi+shift).
func (l layout) move(old layout, lo, hi, shift int32) {
	copy(l.other[lo+shift:], old.other[lo:hi])
	copy(l.answer[lo+shift:], old.answer[lo:hi])
	if l.label != nil {
		copy(l.label[lo+shift:], old.label[lo:hi])
	} else {
		copy(l.value[lo+shift:], old.value[lo:hi])
	}
}

// TaskDegree returns the number of answers task i received.
func (c *CSR) TaskDegree(i int) int { return int(c.TaskOff[i+1] - c.TaskOff[i]) }

// WorkerDegree returns the number of answers worker w gave.
func (c *CSR) WorkerDegree(w int) int { return int(c.WorkerOff[w+1] - c.WorkerOff[w]) }
