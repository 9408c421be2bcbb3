package stream

import (
	"errors"
	"slices"

	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
)

// This file is the serving-state surface the assignment subsystem
// (internal/assign) scores tasks from: per-task posterior distributions,
// worker qualities, and the store/result versions that say how fresh
// they are. The Service satisfies assign.Source structurally — neither
// package imports the other. The same is true of the relational query
// plane: the Service satisfies query.Source (internal/query) through
// Pin, Entropies and WorkerQualities below, again with no import in
// either direction.

// ErrNoPosterior is returned by Posteriors and Entropies when the serving
// method publishes no per-task posterior (the numeric methods Mean and
// Median, and iterative methods without a categorical posterior).
var ErrNoPosterior = errors.New("stream: serving method publishes no task posterior")

// StoreVersion returns the current version of the underlying store (every
// ingested batch bumps it).
func (s *Service) StoreVersion() uint64 { return s.store.Version() }

// Dims returns the store's current task, worker and answer counts.
func (s *Service) Dims() (tasks, workers, answers int) { return s.store.Dims() }

// NumChoices returns the store's normalized choice count (ℓ for
// categorical stores, 0 for numeric).
func (s *Service) NumChoices() int { return s.store.NumChoices() }

// AnswersSince calls f for every answer of the underlying store at log
// index from or later, in ingestion order, and returns the count to pass
// next time; see Store.AnswersSince. The assignment ledger follows the
// store by this delta.
func (s *Service) AnswersSince(from int, f func(task, worker int, value float64)) (next int) {
	return s.store.AnswersSince(from, f)
}

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
// the choice labels in the last published Result.Posterior (for MV, each
// task's vote shares, uniform for answer-less tasks) and returns it, plus
// the result version the rows reflect. It is a delta read: dst is nil or
// the rows an earlier call returned at result version since, and only
// rows the caller lacks or that changed after since are copied. The rows
// of tasks added since (every row, when dst is nil) are always copied;
// of the rest, an epoch's result rewrites every row when it publishes,
// and the incremental MV fold only the rows it stamped with a later
// batch version. changed, when non-nil, is called with the task of each
// copied row under the service's read lock, so it must not call back
// into the service (as with AnswersSince). The query catalog passes
// (nil, 0, nil) for a full copy. Numeric methods return ErrNoPosterior,
// and iterative methods return ErrNotInferred before their first epoch.
func (s *Service) Posteriors(dst [][]float64, since uint64, changed func(task int)) ([][]float64, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.res == nil {
		return nil, 0, ErrNotInferred
	}
	if s.res.Posterior == nil {
		return nil, 0, ErrNoPosterior
	}
	// Every row has the store's ℓ choices (core.Result's contract), so the
	// rows a grown dst lacks take two allocations, not one per task. They
	// are all copied below, so nothing is written to them first.
	n, ell := len(s.res.Posterior), s.store.NumChoices()
	if len(dst) > 0 && len(dst[0]) != ell {
		dst = nil
	}
	held := min(len(dst), n)
	if len(dst) < n {
		flat := make([]float64, (n-len(dst))*ell)
		dst = slices.Grow(dst, n-len(dst))
		for len(dst) < n {
			dst = append(dst, flat[:ell:ell])
			flat = flat[ell:]
		}
	}
	dst = dst[:n]
	rows := s.res.Posterior
	switch {
	case since >= s.resVersion: // nothing was rewritten
	case s.inc == nil: // an epoch's result: every row is new
		held = 0
	default:
		for t, v := range s.inc.rowVer[:held] {
			if v > since {
				copy(dst[t], rows[t])
				if changed != nil {
					changed(t)
				}
			}
		}
	}
	for t := held; t < n; t++ {
		copy(dst[t], rows[t])
		if changed != nil {
			changed(t)
		}
	}
	return dst, s.resVersion, nil
}

// Entropies returns every task's posterior Shannon entropy (nats) and the
// result version the vector reflects: the query plane's entropy
// relation. The vector is cached on the service and recomputed only when
// a new result publishes, so repeated calls between epochs are O(1)
// copies.
func (s *Service) Entropies() ([]float64, uint64, error) {
	s.mu.RLock()
	if s.entropies != nil && s.entVersion == s.resVersion {
		out, v := append([]float64(nil), s.entropies...), s.entVersion
		s.mu.RUnlock()
		return out, v, nil
	}
	s.mu.RUnlock()

	post, version, err := s.Posteriors(nil, 0, nil)
	if err != nil {
		return nil, 0, err
	}
	ent := make([]float64, len(post))
	for i, row := range post {
		ent[i] = mathx.Entropy(row)
	}
	s.mu.Lock()
	// Another goroutine may have cached a newer epoch meanwhile; only
	// install if this computation is at least as fresh.
	if s.entropies == nil || version >= s.entVersion {
		s.entropies = ent
		s.entVersion = version
	}
	s.mu.Unlock()
	return append([]float64(nil), ent...), version, nil
}
