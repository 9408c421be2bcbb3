// Warm-start state for online (streaming) inference: a finished run's
// posteriors and worker-quality estimates, packaged so the next epoch's
// run can resume from them instead of cold initialization. The online
// subsystem (internal/stream) carries a WarmState from one re-inference
// epoch to the next as answers keep arriving.
package core

// WarmState is resumable inference state extracted from a previous run's
// Result. Every field is optional; methods read only the parts that map
// onto their own parameterization (ZC its worker probabilities, D&S its
// confusion matrices, LFC_N its variances, …) and fall back to cold
// initialization for anything missing — including tasks and workers that
// joined the dataset after the state was captured, whose indices lie
// beyond the stored slices.
//
// A WarmState is read-only: Result.Warm aliases the result's slices, so
// a method copies whatever it takes from the state and never writes to
// it. All accessors are nil-receiver safe, so method implementations can
// consult opts.WarmStart unconditionally.
type WarmState struct {
	// Posterior holds tasks × choices posterior probabilities from the
	// previous epoch (categorical methods).
	Posterior [][]float64
	// WorkerQuality holds the previous per-worker scalar qualities, on
	// the owning method's scale.
	WorkerQuality []float64
	// WorkerVariance holds the previous per-worker answer variances of
	// Gaussian numeric methods (LFC_N), so a warm-started epoch resumes
	// the exact EM state — truth estimates *and* precisions — and
	// converges to the same basin as a cold run on the full data.
	WorkerVariance []float64
	// Confusion holds the previous per-worker ℓ×ℓ confusion matrices
	// (confusion-matrix methods).
	Confusion [][][]float64
	// Truth holds the previous inferred truths (numeric methods resume
	// their truth estimates directly).
	Truth []float64
}

// Warm packages the result as a WarmState for seeding the next epoch's
// run on a grown dataset. The state aliases the result's slices instead
// of copying them, so neither may be modified while the other is in use.
func (r *Result) Warm() *WarmState {
	if r == nil {
		return nil
	}
	return &WarmState{
		Posterior:      r.Posterior,
		WorkerQuality:  r.WorkerQuality,
		WorkerVariance: r.WorkerVariance,
		Confusion:      r.Confusion,
		Truth:          r.Truth,
	}
}

// QualityOr returns the warm quality of the given worker, or def when the
// state is nil or does not cover the worker.
func (w *WarmState) QualityOr(worker int, def float64) float64 {
	if w == nil || worker < 0 || worker >= len(w.WorkerQuality) {
		return def
	}
	return w.WorkerQuality[worker]
}

// VarianceOr returns the warm answer variance of the given worker, or def
// when the state is nil or does not cover the worker.
func (w *WarmState) VarianceOr(worker int, def float64) float64 {
	if w == nil || worker < 0 || worker >= len(w.WorkerVariance) {
		return def
	}
	return w.WorkerVariance[worker]
}

// TruthOr returns the warm truth of the given task, or def when the state
// is nil or does not cover the task.
func (w *WarmState) TruthOr(task int, def float64) float64 {
	if w == nil || task < 0 || task >= len(w.Truth) {
		return def
	}
	return w.Truth[task]
}

// PosteriorRow returns the warm posterior row of the given task when the
// state covers it with exactly ell choices, and nil otherwise.
func (w *WarmState) PosteriorRow(task, ell int) []float64 {
	if w == nil || task < 0 || task >= len(w.Posterior) || len(w.Posterior[task]) != ell {
		return nil
	}
	return w.Posterior[task]
}

// ConfusionFor returns the warm ℓ×ℓ confusion matrix of the given worker
// when the state covers it with matching dimensions, and nil otherwise.
func (w *WarmState) ConfusionFor(worker, ell int) [][]float64 {
	if w == nil || worker < 0 || worker >= len(w.Confusion) {
		return nil
	}
	mat := w.Confusion[worker]
	if len(mat) != ell {
		return nil
	}
	for _, row := range mat {
		if len(row) != ell {
			return nil
		}
	}
	return mat
}
