// Package core defines the shared framework behind all 17 truth-inference
// methods: the Method interface, inference Options (seeds, convergence
// control, golden tasks for the hidden test, qualification-test
// initialization), the Result type, method capability metadata mirroring
// Table 4 of the paper, and convergence helpers for the iterative
// two-step loop of Algorithm 1.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"truthinference/internal/dataset"
	"truthinference/internal/engine"
)

// Defaults for iterative methods; individual methods may override via
// Options.
const (
	DefaultMaxIterations = 100
	DefaultTolerance     = 1e-4
)

// Options parameterizes a single inference run.
type Options struct {
	// Seed drives every random choice (initialization, Gibbs sampling,
	// tie-breaking). Two runs with equal options are byte-identical.
	Seed int64

	// MaxIterations bounds the Algorithm-1 loop. Zero means the method's
	// own default: DefaultMaxIterations (100) for the loops Iterate runs,
	// 30 outer iterations for Minimax, 120 Gibbs sweeps for BCC and CBCC,
	// and 20 message rounds for KOS.
	MaxIterations int

	// Tolerance is the convergence threshold on the parameter change
	// between iterations (the "10^-3-style" check the paper describes).
	// Zero means DefaultTolerance.
	Tolerance float64

	// Golden holds hidden-test golden tasks (§6.3.3): task id → known
	// truth. Methods that support golden tasks pin these truths during
	// the truth step and use them in the quality step. Methods that do
	// not support golden tasks return ErrGoldenUnsupported when Golden
	// is non-empty.
	Golden map[int]float64

	// QualificationAccuracy optionally initializes each worker's quality
	// from a qualification test (§6.3.2) for categorical tasks: entry w
	// is worker w's fraction of correctly answered golden tasks, or NaN
	// to keep the method's default initialization for that worker.
	QualificationAccuracy []float64

	// QualificationError optionally initializes numeric methods: entry w
	// is worker w's mean squared error on the qualification test, or NaN
	// to keep the default.
	QualificationError []float64

	// Parallelism is the number of goroutines the iterative methods fan
	// their EM hot loops out over (E-steps over tasks, M-steps over
	// workers, message passing over answers). 0 or 1 runs sequentially;
	// AutoParallelism uses one goroutine per available CPU. Results are
	// bit-identical at every parallelism level — see internal/engine for
	// the determinism contract.
	Parallelism int

	// Pool optionally supplies a pre-built worker pool for the EM hot
	// loops instead of a per-run transient one. The online inference
	// driver (internal/stream) sets it so every re-inference epoch reuses
	// one persistent pool's resident goroutines. When nil, methods build
	// a transient pool from Parallelism. The pool only decides which
	// goroutine executes an iteration, never the arithmetic, so results
	// stay bit-identical either way.
	Pool *engine.Pool

	// WarmStart optionally seeds the iterative methods from a previous
	// run's state (typically Result.Warm of the preceding epoch on a
	// smaller prefix of the same growing dataset) instead of cold
	// initialization. Methods without resumable parameters ignore it;
	// tasks and workers beyond the warm state get cold initialization.
	// Warm starts change only the EM starting point — on a converged
	// run the fixed point, and hence the inferred labels, match a cold
	// run within convergence tolerance.
	WarmStart *WarmState
}

// AutoParallelism requests one worker goroutine per available CPU
// (runtime.GOMAXPROCS) when assigned to Options.Parallelism.
const AutoParallelism = -1

// ErrGoldenUnsupported is returned by methods that cannot incorporate
// hidden-test golden tasks (§6.3.3 found only 9 of 17 can).
var ErrGoldenUnsupported = errors.New("method does not support golden tasks")

// ErrQualificationUnsupported is returned by methods that cannot be
// initialized from a qualification test (§6.3.2 found only 8 of 17 can).
var ErrQualificationUnsupported = errors.New("method does not support qualification-test initialization")

// ErrTaskType is returned when a method is run on a task type outside its
// Table-4 row.
var ErrTaskType = errors.New("method does not support this task type")

// MaxIter returns the effective iteration bound.
func (o Options) MaxIter() int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return DefaultMaxIterations
}

// Tol returns the effective convergence tolerance.
func (o Options) Tol() float64 {
	if o.Tolerance > 0 {
		return o.Tolerance
	}
	return DefaultTolerance
}

// Workers returns the effective worker-goroutine count: 1 when
// Parallelism is unset, runtime.GOMAXPROCS when it is negative
// (AutoParallelism), and Parallelism itself otherwise.
func (o Options) Workers() int {
	if o.Parallelism < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallelism == 0 {
		return 1
	}
	return o.Parallelism
}

// EnginePool returns the pool the method's hot loops should fan out on:
// the shared Pool when one was supplied, otherwise a transient pool with
// Workers goroutines.
func (o Options) EnginePool() *engine.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return engine.New(o.Workers())
}

// WantQualification reports whether any qualification initialization was
// provided.
func (o Options) WantQualification() bool {
	return len(o.QualificationAccuracy) > 0 || len(o.QualificationError) > 0
}

// Result is the output of one inference run: the inferred truth of every
// task, per-worker quality summaries, optional task posteriors and
// confusion matrices, and the loop accounting.
type Result struct {
	// Truth[i] is the inferred truth of task i: a label index for
	// categorical tasks or a value for numeric tasks. Tasks with no
	// answers get the method's prior guess (documented per method).
	Truth []float64

	// Posterior, when non-nil, holds tasks × choices posterior
	// probabilities for categorical methods.
	Posterior [][]float64

	// WorkerQuality[w] is a scalar quality summary for worker w; its
	// scale is method-specific (probability for ZC, weight for PM, …).
	WorkerQuality []float64

	// WorkerVariance, when non-nil, holds the learned per-worker answer
	// variances σ²_w of Gaussian numeric methods (LFC_N). It is the raw
	// model parameter behind the precision-style WorkerQuality summary,
	// carried separately so warm starts can resume the exact EM state
	// instead of re-learning variances from scratch (which is
	// basin-sensitive on low-redundancy prefixes of a stream).
	WorkerVariance []float64

	// Confusion, when non-nil, holds per-worker ℓ×ℓ confusion matrices
	// for confusion-matrix methods (D&S, LFC, BCC, CBCC, VI-*).
	Confusion [][][]float64

	// Community, when non-nil, holds the per-worker community assignment
	// of community-based methods (CBCC): the modal membership over the
	// post-burn-in Gibbs samples.
	Community []int

	// Iterations is the number of two-step iterations executed.
	Iterations int
	// Converged reports whether the method's stop rule ended the run
	// before its cap. Most iterative methods stop when the parameters
	// they watch move less than the tolerance (Iterate). Categorical CATD
	// and PM stop when no label changed, and Minimax also when at most
	// 0.1% of labels changed. BCC, CBCC, KOS, MV, Mean and Median run a
	// fixed schedule and always report true.
	Converged bool
}

// Technique mirrors the "Techniques" column of Table 4.
type Technique string

const (
	Direct       Technique = "direct computation"
	Optimization Technique = "optimization"
	PGM          Technique = "probabilistic graphical model"
)

// Capabilities mirrors a method's Table-4 row plus the golden-task and
// qualification-test support discovered in §6.3.2–6.3.3.
type Capabilities struct {
	TaskTypes     []dataset.TaskType
	TaskModel     string // "none", "task difficulty", "latent topics"
	WorkerModel   string // "none", "worker probability", "confusion matrix", ...
	Technique     Technique
	Qualification bool // accepts Options.Qualification*
	Golden        bool // accepts Options.Golden
}

// SupportsType reports whether the method handles datasets of type t.
func (c Capabilities) SupportsType(t dataset.TaskType) bool {
	for _, tt := range c.TaskTypes {
		if tt == t {
			return true
		}
	}
	return false
}

// Method is one truth-inference algorithm under the Algorithm-1 framework.
type Method interface {
	// Name returns the paper's name for the method ("MV", "D&S", ...).
	Name() string
	// Capabilities describes supported task types, models and extensions.
	Capabilities() Capabilities
	// Infer runs the method on d. Implementations must not mutate d.
	Infer(d *dataset.Dataset, opts Options) (*Result, error)
}

// CheckSupport validates d and opts against m's capabilities, returning a
// descriptive error for unsupported combinations. Method implementations
// call this first in Infer.
func CheckSupport(m Method, d *dataset.Dataset, opts Options) error {
	caps := m.Capabilities()
	if !caps.SupportsType(d.Type) {
		return fmt.Errorf("%s on %s dataset %q: %w", m.Name(), d.Type, d.Name, ErrTaskType)
	}
	if len(opts.Golden) > 0 && !caps.Golden {
		return fmt.Errorf("%s: %w", m.Name(), ErrGoldenUnsupported)
	}
	if opts.WantQualification() && !caps.Qualification {
		return fmt.Errorf("%s: %w", m.Name(), ErrQualificationUnsupported)
	}
	if opts.QualificationAccuracy != nil && len(opts.QualificationAccuracy) != d.NumWorkers {
		return fmt.Errorf("%s: qualification accuracy vector has %d entries for %d workers", m.Name(), len(opts.QualificationAccuracy), d.NumWorkers)
	}
	if opts.QualificationError != nil && len(opts.QualificationError) != d.NumWorkers {
		return fmt.Errorf("%s: qualification error vector has %d entries for %d workers", m.Name(), len(opts.QualificationError), d.NumWorkers)
	}
	return nil
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// a and b; it is the convergence measure used by the iterative methods.
// Slices of unequal length return +Inf.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

// Iterate runs the two-step loop of Algorithm 1 that every iterative
// method shares: step(iter) for iter = 1, 2, … up to opts.MaxIter().
// Before each step it copies every watched vector. After it, the loop
// has converged when step reports done, or when every watched vector
// moved by less than opts.Tol() (MaxAbsDiff, strictly). With nothing
// watched, only done or the cap ends the loop. It returns the number of
// steps taken, which is the cap when the loop never converged.
//
// The copies are allocated once per call, so a step costs only what step
// itself allocates.
func Iterate(opts Options, step func(iter int) (done bool), watch ...[]float64) (iterations int, converged bool) {
	maxIter, tol := opts.MaxIter(), opts.Tol()
	prev := make([][]float64, len(watch))
	for i, w := range watch {
		prev[i] = make([]float64, len(w))
	}
	for iter := 1; iter <= maxIter; iter++ {
		for i, w := range watch {
			copy(prev[i], w)
		}
		if step(iter) {
			return iter, true
		}
		settled := len(watch) > 0
		for i, w := range watch {
			settled = settled && MaxAbsDiff(w, prev[i]) < tol
		}
		if settled {
			return iter, true
		}
	}
	return maxIter, false
}

// ArgmaxTieBreak returns the index of the maximum of w; exact ties are
// broken by pick, which receives the number of tied candidates and returns
// the chosen rank among them in index order (callers pass rng.Intn for
// random tie-breaks, or a deterministic function in tests). A single
// maximum never invokes pick. It allocates nothing: one pass finds the
// maximum and the tie count, and a second pass (ties only) locates the
// picked rank.
func ArgmaxTieBreak(w []float64, pick func(n int) int) int {
	if len(w) == 0 {
		return -1
	}
	best := w[0]
	first, ties := 0, 1
	for i, x := range w[1:] {
		switch {
		case x > best:
			best = x
			first = i + 1
			ties = 1
		case x == best:
			ties++
		}
	}
	if ties == 1 {
		return first
	}
	rank := pick(ties)
	for i := first; ; i++ {
		if w[i] == best {
			if rank == 0 {
				return i
			}
			rank--
		}
	}
}

// PosteriorLabels converts a tasks × choices posterior into hard labels
// with random tie-breaking via pick, honoring golden truths if given.
func PosteriorLabels(post [][]float64, golden map[int]float64, pick func(n int) int) []float64 {
	out := make([]float64, len(post))
	for i, p := range post {
		if gv, ok := golden[i]; ok {
			out[i] = gv
			continue
		}
		out[i] = float64(ArgmaxTieBreak(p, pick))
	}
	return out
}

// UniformPosterior allocates a tasks × choices matrix filled with 1/ℓ.
// The rows share one flat backing array in row order, row i at
// [i·ℓ, (i+1)·ℓ), and row 0's capacity spans it: post[0][:numTasks·ℓ] is
// the whole matrix as one slice.
func UniformPosterior(numTasks, numChoices int) [][]float64 {
	flat := make([]float64, numTasks*numChoices)
	u := 1 / float64(numChoices)
	for i := range flat {
		flat[i] = u
	}
	out := make([][]float64, numTasks)
	for i := range out {
		out[i] = flat[i*numChoices : (i+1)*numChoices]
	}
	return out
}

// PinGolden overwrites posterior rows of golden tasks with the one-hot
// distribution of their known truth. It is the standard way the iterative
// methods incorporate hidden-test golden tasks in the truth step.
func PinGolden(post [][]float64, golden map[int]float64) {
	for t, v := range golden {
		if t < 0 || t >= len(post) {
			continue
		}
		row := post[t]
		for k := range row {
			row[k] = 0
		}
		l := int(v)
		if l >= 0 && l < len(row) {
			row[l] = 1
		}
	}
}
