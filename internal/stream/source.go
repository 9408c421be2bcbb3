package stream

import (
	"errors"
	"slices"

	"truthinference/internal/dataset"
)

// This file is the serving-state surface the assignment subsystem
// (internal/assign) and the relational query plane (internal/query)
// read: the answer log only through Pin, the posterior only through
// Posteriors, plus worker qualities and the result version that says
// how fresh they are. Each reader derives what it needs from these
// (entropies, top labels, the golden pool's version). The Service
// satisfies assign.Source and query.Source structurally; no package
// imports another for it.

// ErrNoPosterior is returned by Posteriors when the serving method
// publishes no per-task posterior (the numeric methods Mean and Median,
// and iterative methods without a categorical posterior).
var ErrNoPosterior = errors.New("stream: serving method publishes no task posterior")

// Dims returns the store's current task, worker and answer counts.
func (s *Service) Dims() (tasks, workers, answers int) { return s.store.Dims() }

// NumChoices returns the store's normalized choice count (ℓ for
// categorical stores, 0 for numeric).
func (s *Service) NumChoices() int { return s.store.NumChoices() }

// ForEachGolden streams every task with recorded ground truth; see
// Store.ForEachGolden. This is the golden pool the assignment ledger
// grades qualification answers against.
func (s *Service) ForEachGolden(f func(task int, truth float64)) { s.store.ForEachGolden(f) }

// QualityHistoryEpochs bounds the per-epoch worker-quality history the
// service retains for QualityHistory.
const QualityHistoryEpochs = 16

// QualityHistory returns copies of the worker-quality vectors of up to
// the last QualityHistoryEpochs published epochs, oldest first, plus the
// published result version. Incremental methods model workers uniformly
// and run no epochs, so their history is empty — quality
// change-detection is only meaningful under iterative methods (D&S and
// kin) that actually estimate workers.
func (s *Service) QualityHistory() (hist [][]float64, version uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.qualityHist) == 0 {
		return nil, s.resVersion
	}
	hist = make([][]float64, len(s.qualityHist))
	for i, row := range s.qualityHist {
		hist[i] = append([]float64(nil), row...)
	}
	return hist, s.resVersion
}

// Pin returns the underlying store's version and its answer log at that
// version, a prefix no later ingest writes to; see Store.Pin.
func (s *Service) Pin() (version uint64, answers []dataset.Answer) { return s.store.Pin() }

// WorkerQualities returns every worker's quality estimate from the last
// published result alongside the previous published epoch's estimate
// (equal to the current one before a second epoch exists, and for
// workers that joined since), plus the result version the vectors
// reflect. The incremental methods model workers uniformly and report
// 1 for both. Iterative methods return ErrNotInferred before their
// first epoch. The pair is what the query plane's worker-quality-drop
// view differences across the epoch boundary. Callers only read prev:
// before a second epoch it is cur itself, not a second copy.
func (s *Service) WorkerQualities() (cur, prev []float64, version uint64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.res == nil {
		return nil, nil, 0, ErrNotInferred
	}
	cur = append([]float64(nil), s.res.WorkerQuality...)
	h := len(s.qualityHist)
	if h < 2 {
		// No worker has history yet; its "previous" estimate is the
		// current one, so its delta reads 0 rather than a phantom drop.
		return cur, cur, s.resVersion, nil
	}
	// Every published epoch with workers appends to qualityHist, so its
	// second-to-last row is the previous epoch's vector. Workers first
	// seen this epoch have no history and keep their current estimate.
	prev = make([]float64, len(cur))
	n := copy(prev, s.qualityHist[h-2])
	copy(prev[n:], cur[n:])
	return cur, prev, s.resVersion, nil
}

// ResultVersion returns the store version the published result reflects:
// the last epoch's snapshot version for iterative methods, the
// always-fresh incremental version for MV/Mean/Median, and 0 before any
// result exists. Consumers caching derived scores (the assignment
// ledger) re-derive when this changes — that is the epoch boundary.
func (s *Service) ResultVersion() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.resVersion
}

// Posteriors brings dst up to every task's posterior distribution over
// the ℓ choice labels in the last published Result.Posterior (for MV,
// each task's vote shares, uniform for answer-less tasks) and returns it,
// plus the result version it reflects. The copy is flat: task t's row is
// dst[t·ℓ : (t+1)·ℓ]. It is a delta read: dst is nil or the copy an
// earlier call returned at result version since, and only rows the
// caller lacks or that changed after since are copied. The rows of tasks
// added since (every row, when dst is nil) are always copied; of the
// rest, an epoch's result rewrites every row when it publishes, and the
// incremental MV fold only the rows it stamped with a later batch
// version. changed, when non-nil, is called with the task of each copied
// row under the service's read lock, so it must not call back into the
// service. The query catalog passes (nil, 0, nil) for a full copy.
// Numeric methods return ErrNoPosterior, and iterative methods return
// ErrNotInferred before their first epoch.
func (s *Service) Posteriors(dst []float64, since uint64, changed func(task int)) ([]float64, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.res == nil {
		return nil, 0, ErrNotInferred
	}
	if s.res.Posterior == nil {
		return nil, 0, ErrNoPosterior
	}
	// Every row has the store's ℓ choices (core.Result's contract). The
	// rows dst lacks are all copied below, so nothing is written to them
	// first.
	rows, ell := s.res.Posterior, s.store.NumChoices()
	n := len(rows)
	held := min(len(dst)/ell, n)
	dst = slices.Grow(dst[:held*ell], (n-held)*ell)[:n*ell]
	switch {
	case since >= s.resVersion: // nothing was rewritten
	case s.inc == nil: // an epoch's result: every row is new
		held = 0
	default:
		for t, v := range s.inc.rowVer[:held] {
			if v > since {
				copy(dst[t*ell:], rows[t])
				if changed != nil {
					changed(t)
				}
			}
		}
	}
	for t := held; t < n; t++ {
		copy(dst[t*ell:], rows[t])
		if changed != nil {
			changed(t)
		}
	}
	return dst, s.resVersion, nil
}
