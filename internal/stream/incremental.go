package stream

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
)

// incremental maintains the exact core.Result of a direct-computation
// method (MV, Mean or Median) under streaming appends, which the Service
// publishes: each ingested answer updates per-task sufficient statistics
// (vote counts, running sums, or for Median the task's answer values)
// and relabels only the touched tasks — O(delta · redundancy) per batch,
// independent of the dataset's size. After every batch, res is
// bit-identical to the method's Infer over the store's snapshot:
//
//   - MV's vote counts are small integers (exact in float64), its
//     tie-break depends only on (seed, task), and each posterior row is
//     the count row normalized with mathx.Normalize, as direct.MV does;
//   - Mean accumulates each task's answers in append order — exactly the
//     ascending answer-index order the batch method sums in;
//   - Median sorts the task's answer multiset, which is order-free.
type incremental struct {
	method string // "MV", "Mean" or "Median"
	seed   int64
	ell    int // choices (MV)

	res    *core.Result
	counts []float64   // MV: task-major tasks×ℓ vote counts
	rowVer []uint64    // MV: the batch version each posterior row was last rewritten at
	sums   []float64   // Mean: per-task running sums
	ns     []int       // Mean: per-task answer counts
	vals   [][]float64 // Median: per-task answer values in append order
}

// incrementalMethods lists the methods with an exact O(delta) streaming
// path.
var incrementalMethods = map[string]bool{"MV": true, "Mean": true, "Median": true}

func newIncremental(method string, seed int64, ell int) *incremental {
	res := &core.Result{Truth: []float64{}, WorkerQuality: []float64{}, Iterations: 1, Converged: true}
	if method == "MV" {
		res.Posterior = [][]float64{}
	}
	return &incremental{method: method, seed: seed, ell: ell, res: res}
}

// grow extends the state to the store's task and worker ranges once per
// batch, labeling the new answer-less tasks exactly as the batch method
// would (the MV tie-break over an all-zero count row with a uniform
// posterior, or 0 for Mean and Median) and giving new workers the
// direct methods' uniform quality 1.
func (inc *incremental) grow(version uint64, numTasks, numWorkers int) {
	r := inc.res
	for len(r.WorkerQuality) < numWorkers {
		r.WorkerQuality = append(r.WorkerQuality, 1)
	}
	n := len(r.Truth)
	if numTasks <= n {
		return
	}
	r.Truth = append(r.Truth, make([]float64, numTasks-n)...)
	switch inc.method {
	case "MV":
		inc.counts = append(inc.counts, make([]float64, (numTasks-n)*inc.ell)...)
		inc.rowVer = append(inc.rowVer, make([]uint64, numTasks-n)...)
		r.Posterior = append(r.Posterior, core.UniformPosterior(numTasks-n, inc.ell)...)
		for i := n; i < numTasks; i++ {
			inc.relabelMV(version, i)
		}
	case "Mean":
		inc.sums = append(inc.sums, make([]float64, numTasks-n)...)
		inc.ns = append(inc.ns, make([]int, numTasks-n)...)
	case "Median":
		inc.vals = append(inc.vals, make([][]float64, numTasks-n)...)
	}
}

// apply folds a delta of appended answers, committed at store version
// version, into the state and relabels the touched tasks, stamping each
// rewritten MV posterior row with version. numTasks and numWorkers are
// the store's ranges after the delta. Deltas must be applied in
// ingestion order: NewService folds the pinned log once, then the
// service, which serializes ingest, folds each batch it commits.
func (inc *incremental) apply(version uint64, answers []dataset.Answer, numTasks, numWorkers int) {
	inc.grow(version, numTasks, numWorkers)
	touched := map[int]bool{}
	for _, a := range answers {
		switch inc.method {
		case "MV":
			inc.counts[a.Task*inc.ell+a.Label()]++
		case "Mean":
			inc.sums[a.Task] += a.Value
			inc.ns[a.Task]++
		case "Median":
			inc.vals[a.Task] = append(inc.vals[a.Task], a.Value)
		}
		touched[a.Task] = true
	}
	for i := range touched {
		switch inc.method {
		case "MV":
			inc.relabelMV(version, i)
		case "Mean":
			inc.res.Truth[i] = inc.sums[i] / float64(inc.ns[i])
		case "Median":
			inc.relabelMedian(i)
		}
	}
}

// relabelMV recomputes task i's plurality label, with the same
// (seed, task)-hashed tie-break as the batch MV implementation, and its
// posterior row, the normalized vote counts, which it stamps with the
// version of the batch being folded.
func (inc *incremental) relabelMV(version uint64, i int) {
	row := inc.counts[i*inc.ell : (i+1)*inc.ell]
	inc.res.Truth[i] = float64(core.ArgmaxTieBreak(row, func(n int) int {
		return randx.HashPick(n, inc.seed, int64(i))
	}))
	post := inc.res.Posterior[i]
	copy(post, row)
	mathx.Normalize(post)
	inc.rowVer[i] = version
}

// relabelMedian recomputes task i's median from its full answer
// multiset — the one statistic without a constant-size update, still
// O(redundancy) per touched task.
func (inc *incremental) relabelMedian(i int) {
	med := mathx.Median(inc.vals[i])
	if math.IsNaN(med) {
		med = 0
	}
	inc.res.Truth[i] = med
}
