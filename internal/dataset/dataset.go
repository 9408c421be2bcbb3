// Package dataset defines the task/worker/answer data model of the paper
// (Definitions 1–5), TSV persistence compatible with the published
// benchmark format (answer triples and truth pairs), the per-dataset
// statistics reported in Table 5 and Section 6.2 (redundancy, consistency,
// worker quality), and the sub-sampling operations used by the redundancy
// sweep and golden-task experiments in Section 6.3.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// TaskType enumerates the three task families studied in the paper.
type TaskType int

const (
	// Decision is a two-choice decision-making task. Label 1 is the
	// positive ("T") choice and label 0 the negative ("F") choice; the
	// F1-score is computed with respect to label 1.
	Decision TaskType = iota
	// SingleChoice is an ℓ-choice single-label task with labels 0..ℓ-1.
	SingleChoice
	// Numeric is a task whose answer is a real value.
	Numeric
)

// String implements fmt.Stringer.
func (t TaskType) String() string {
	switch t {
	case Decision:
		return "decision"
	case SingleChoice:
		return "single-choice"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("TaskType(%d)", int(t))
	}
}

// Answer is a single worker's answer v^w_i for one task. For categorical
// task types Value holds the choice index (0..ℓ-1) as a float64; for
// numeric tasks it holds the raw value.
type Answer struct {
	Task   int
	Worker int
	Value  float64
}

// Label returns the categorical choice index of the answer.
func (a Answer) Label() int { return int(a.Value) }

// Dataset is a complete crowdsourced answer set V together with optional
// ground truth for a subset of tasks. Tasks and workers are dense integer
// ids 0..NumTasks-1 and 0..NumWorkers-1.
//
// The zero value is not usable; construct datasets with New, Extend or a
// loader, and always call Build (New does this) after mutating Answers.
type Dataset struct {
	Name       string
	Type       TaskType
	NumChoices int // ℓ; 2 for Decision, 0 for Numeric
	NumTasks   int
	NumWorkers int
	Answers    []Answer

	// Truth maps a task id to its ground truth v*_i. Large benchmark
	// datasets only expose truth for a subset of tasks (Table 5).
	Truth map[int]float64

	csr *CSR // the answer index, built by Build or Extend
}

// New constructs a dataset and builds its answer index. It validates that
// every answer references a task and worker inside the declared ranges
// and, for categorical types, a choice in [0, ℓ).
func New(name string, typ TaskType, numChoices, numTasks, numWorkers int, answers []Answer, truth map[int]float64) (*Dataset, error) {
	d := &Dataset{
		Name:       name,
		Type:       typ,
		NumChoices: numChoices,
		NumTasks:   numTasks,
		NumWorkers: numWorkers,
		Answers:    answers,
		Truth:      truth,
	}
	if err := d.Build(); err != nil {
		return nil, err
	}
	return d, nil
}

// Build validates the dataset and (re)builds its answer index, the CSR,
// by extending an empty index with every answer: one counting pass that
// also validates every answer, then one scatter. It must be called after
// any direct mutation of Answers or of the declared ranges; on error the
// dataset has no index.
func (d *Dataset) Build() error {
	d.csr = nil
	if d.NumTasks < 0 || d.NumWorkers < 0 {
		return errors.New("dataset: negative task or worker count")
	}
	switch d.Type {
	case Decision:
		if d.NumChoices == 0 {
			d.NumChoices = 2
		}
		if d.NumChoices != 2 {
			return fmt.Errorf("dataset %q: decision tasks need exactly 2 choices, got %d", d.Name, d.NumChoices)
		}
	case SingleChoice:
		if d.NumChoices < 2 {
			return fmt.Errorf("dataset %q: single-choice tasks need >=2 choices, got %d", d.Name, d.NumChoices)
		}
	case Numeric:
		d.NumChoices = 0
	default:
		return fmt.Errorf("dataset %q: unknown task type %d", d.Name, int(d.Type))
	}
	c, err := extendCSR(d, emptyCSR, d.Answers)
	if err != nil {
		return err
	}
	if err := d.checkTruths(); err != nil {
		return err
	}
	d.csr = c
	return nil
}

// Extend returns the dataset New would build over answers, with
// numTasks × numWorkers ranges and truth as its ground truth: the same
// Answers, Truth, ranges and CSR, bit for bit. answers is the full new
// answer column, and its first len(d.Answers) entries must be d's own
// answers (an append-only log passes a longer prefix of itself), so only
// the entries past them are validated and indexed; an invalid answer's
// error names its index. The ranges may only grow, so d's answers stay
// valid. d is left unchanged, on error too.
//
// The cost is one copy of d's index plus O(ranges + new answers) work:
// every CSR row keeps its old entries and gains its new answers at its
// end (see extendCSR). No answer is copied: the result's Answers is
// answers itself, capacity-clipped, so appending to it never writes into
// the caller's array, and it is read-only like the CSR.
func (d *Dataset) Extend(answers []Answer, numTasks, numWorkers int, truth map[int]float64) (*Dataset, error) {
	if numTasks < d.NumTasks || numWorkers < d.NumWorkers {
		return nil, fmt.Errorf("dataset %q: cannot extend %d tasks and %d workers to %d and %d: ranges only grow",
			d.Name, d.NumTasks, d.NumWorkers, numTasks, numWorkers)
	}
	if len(answers) < len(d.Answers) {
		return nil, fmt.Errorf("dataset %q: cannot extend %d answers to %d: answers only grow",
			d.Name, len(d.Answers), len(answers))
	}
	out := &Dataset{
		Name:       d.Name,
		Type:       d.Type,
		NumChoices: d.NumChoices,
		NumTasks:   numTasks,
		NumWorkers: numWorkers,
		Answers:    answers[:len(answers):len(answers)],
		Truth:      truth,
	}
	c, err := extendCSR(out, d.csr, answers[len(d.Answers):])
	if err != nil {
		return nil, err
	}
	if err := out.checkTruths(); err != nil {
		return nil, err
	}
	out.csr = c
	return out, nil
}

// checkTruths validates every entry of the Truth map.
func (d *Dataset) checkTruths() error {
	for t, v := range d.Truth {
		if err := d.CheckTruth(t, v); err != nil {
			return err
		}
	}
	return nil
}

// CheckAnswer validates one answer against the dataset's ranges and task
// type, with the rules Build enforces.
func (d *Dataset) CheckAnswer(a Answer) error {
	if a.Task < 0 || a.Task >= d.NumTasks {
		return fmt.Errorf("dataset %q: answer references task %d outside [0,%d)", d.Name, a.Task, d.NumTasks)
	}
	if a.Worker < 0 || a.Worker >= d.NumWorkers {
		return fmt.Errorf("dataset %q: answer references worker %d outside [0,%d)", d.Name, a.Worker, d.NumWorkers)
	}
	if d.Type != Numeric {
		l := a.Label()
		if float64(l) != a.Value || l < 0 || l >= d.NumChoices {
			return fmt.Errorf("dataset %q: answer has invalid label %v for %d choices", d.Name, a.Value, d.NumChoices)
		}
	} else if math.IsNaN(a.Value) || math.IsInf(a.Value, 0) {
		return fmt.Errorf("dataset %q: answer has non-finite numeric value", d.Name)
	}
	return nil
}

// CheckTruth validates one ground truth against the dataset's task range
// and task type, with the rules Build enforces on the Truth map.
func (d *Dataset) CheckTruth(task int, v float64) error {
	if task < 0 || task >= d.NumTasks {
		return fmt.Errorf("dataset %q: truth references task %d outside [0,%d)", d.Name, task, d.NumTasks)
	}
	if d.Type != Numeric {
		l := int(v)
		if float64(l) != v || l < 0 || l >= d.NumChoices {
			return fmt.Errorf("dataset %q: truth for task %d has invalid label %v", d.Name, task, v)
		}
	}
	return nil
}

// Categorical reports whether the dataset holds decision-making or
// single-choice tasks (as opposed to numeric ones).
func (d *Dataset) Categorical() bool { return d.Type != Numeric }

// CSR returns the dataset's answer index, built by Build. Every reader of
// the dataset shares it, so it is read-only.
func (d *Dataset) CSR() *CSR { return d.csr }

// TaskAnswers returns the indices into Answers of task i's answers (W_i
// in the paper's notation, as answer records), in ascending order. The
// slice is a read-only view of the CSR.
func (d *Dataset) TaskAnswers(task int) []int32 {
	lo, hi := d.csr.TaskOff[task], d.csr.TaskOff[task+1]
	return d.csr.TaskAnswer[lo:hi:hi]
}

// WorkerAnswers returns the indices into Answers of worker w's answers
// (T^w), in ascending order. The slice is a read-only view of the CSR.
func (d *Dataset) WorkerAnswers(worker int) []int32 {
	lo, hi := d.csr.WorkerOff[worker], d.csr.WorkerOff[worker+1]
	return d.csr.WorkerAnswer[lo:hi:hi]
}

// Redundancy returns |V|/n, the average number of answers per task
// (Table 5's |V|/n column). It is zero for an empty dataset.
func (d *Dataset) Redundancy() float64 {
	if d.NumTasks == 0 {
		return 0
	}
	return float64(len(d.Answers)) / float64(d.NumTasks)
}

// Clone returns a deep copy of the dataset with its own answer index.
func (d *Dataset) Clone() *Dataset {
	cp := &Dataset{
		Name:       d.Name,
		Type:       d.Type,
		NumChoices: d.NumChoices,
		NumTasks:   d.NumTasks,
		NumWorkers: d.NumWorkers,
		Answers:    append([]Answer(nil), d.Answers...),
		Truth:      make(map[int]float64, len(d.Truth)),
	}
	for k, v := range d.Truth {
		cp.Truth[k] = v
	}
	if err := cp.Build(); err != nil {
		// A valid dataset always clones to a valid dataset.
		panic("dataset: Clone of valid dataset failed: " + err.Error())
	}
	return cp
}

// SampleRedundancy returns a new dataset in which every task keeps at most
// r of its answers, selected uniformly at random — the construction used
// for the redundancy sweeps behind Figures 4, 5 and 6. Truth is carried
// over unchanged.
func (d *Dataset) SampleRedundancy(r int, rng *rand.Rand) *Dataset {
	if r < 0 {
		r = 0
	}
	keep := make([]Answer, 0, min(len(d.Answers), r*d.NumTasks))
	perm := make([]int32, 0, 64)
	for task := 0; task < d.NumTasks; task++ {
		idxs := d.TaskAnswers(task)
		if len(idxs) <= r {
			for _, ai := range idxs {
				keep = append(keep, d.Answers[ai])
			}
			continue
		}
		perm = perm[:0]
		perm = append(perm, idxs...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for _, ai := range perm[:r] {
			keep = append(keep, d.Answers[ai])
		}
	}
	out := &Dataset{
		Name:       d.Name,
		Type:       d.Type,
		NumChoices: d.NumChoices,
		NumTasks:   d.NumTasks,
		NumWorkers: d.NumWorkers,
		Answers:    keep,
		Truth:      d.Truth,
	}
	if err := out.Build(); err != nil {
		panic("dataset: SampleRedundancy produced invalid dataset: " + err.Error())
	}
	return out
}

// SplitGolden selects fraction p (0..1) of the tasks *with known truth*
// uniformly at random and returns their ids and truths as the golden set
// (the hidden-test construction of §6.3.3). The remaining truth-bearing
// tasks form the evaluation set, returned as the second value.
func (d *Dataset) SplitGolden(p float64, rng *rand.Rand) (golden map[int]float64, eval map[int]float64) {
	ids := make([]int, 0, len(d.Truth))
	for t := range d.Truth {
		ids = append(ids, t)
	}
	sort.Ints(ids)
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	k := int(math.Round(p * float64(len(ids))))
	if k > len(ids) {
		k = len(ids)
	}
	golden = make(map[int]float64, k)
	eval = make(map[int]float64, len(ids)-k)
	for i, t := range ids {
		if i < k {
			golden[t] = d.Truth[t]
		} else {
			eval[t] = d.Truth[t]
		}
	}
	return golden, eval
}
