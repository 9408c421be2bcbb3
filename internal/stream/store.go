// Package stream is the online truth-inference subsystem: a mutable,
// concurrency-safe, append-only answer store that accepts batched
// answer/task/worker deltas while inference keeps serving (Store), a
// warm-start incremental driver that re-runs the iterative methods
// seeded from the previous epoch's posterior (Service), and an HTTP JSON
// API over both (Service.Handler, served by cmd/truthserve). Every
// method is served from one published core.Result; for the
// direct-computation methods MV, Mean and Median that result is folded
// exactly, in O(delta), on every batch. Durability (write-ahead logging
// and compacted snapshots) is layered on through the Persister hook,
// implemented by internal/stream/wal.
//
// # Epoch snapshots
//
// Every epoch infers on a consistent snapshot of the store. The service
// keeps the last epoch's snapshot and extends it (dataset.Extend) by the
// answers that arrived since. The snapshot's answers are a prefix of the
// store's log, not a copy, and the new index is the old one's rows moved
// in blocks, each new answer appended to its task row and its worker
// row. So an epoch's fixed cost follows the delta and one copy of the
// index. No snapshot is written once handed out. WAL compaction and the
// incremental methods' first fold take full snapshots (Store.Snapshot).
//
// # Equivalence contract
//
// Streaming a dataset in any number of batches and then inferring yields
// the same answer as one-shot batch inference over the final dataset:
// for MV, Mean and Median a published result bit-identical to the
// method's Infer after every batch (their incremental updates are
// exact), and label-identical truths within convergence tolerance for
// the warm-started iterative methods (a warm start changes only the EM
// starting point, not the fixed point a converged run reaches). The
// end-to-end tests in this package and the repository root enforce the
// contract at 1 and 8 workers.
package stream

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"truthinference/internal/dataset"
)

// Batch is one ingestion delta: new answers, optionally new ground
// truths, and optionally explicit lower bounds on the task/worker id
// ranges (for declaring tasks or workers before any answer mentions
// them). Ids beyond the store's current ranges grow the dataset
// automatically.
type Batch struct {
	Answers []dataset.Answer
	// Truth maps task id → ground truth to record (used for evaluation
	// and golden-task experiments; inference does not require it).
	Truth map[int]float64
	// NumTasks and NumWorkers, when positive, grow the store's id ranges
	// to at least these sizes even if no answer mentions the new ids.
	NumTasks   int
	NumWorkers int
}

// targetDims returns the task/worker ranges the store must grow to before
// this batch can be applied on top of the current dims.
func (b Batch) targetDims(tasks, workers int) (int, int) {
	if b.NumTasks > tasks {
		tasks = b.NumTasks
	}
	if b.NumWorkers > workers {
		workers = b.NumWorkers
	}
	for _, a := range b.Answers {
		if a.Task >= tasks {
			tasks = a.Task + 1
		}
		if a.Worker >= workers {
			workers = a.Worker + 1
		}
	}
	for t := range b.Truth {
		if t >= tasks {
			tasks = t + 1
		}
	}
	return tasks, workers
}

const (
	// MaxDim bounds the task and worker id ranges a batch may grow the
	// store to. Ids are dense, so admitting one absurd id commits every
	// downstream consumer (incremental state, snapshot index build) to
	// allocations proportional to it — and with a WAL attached the
	// poison batch would replay on every restart. Matches the binary
	// codec's decode guard.
	MaxDim = 1 << 26
	// MaxBatch bounds one batch's answer and truth counts. The cap
	// guarantees an accepted batch always encodes within the WAL's
	// per-record limit (worst case ~16 bytes per answer at MaxDim-sized
	// varint ids), so a batch acknowledged as durable can never be
	// rejected as oversized by replay. Split larger deltas into several
	// batches.
	MaxBatch = 1 << 21
)

// Store is a mutable, concurrency-safe crowdsourced answer set: one
// append-only answer log in ingestion order and one truth map, behind
// one lock. Writers append under the write lock. Readers hold the read
// lock only to read the log's length, the dims and the version (and to
// copy the truths), then walk the capacity-clipped prefix of that length
// with no lock: nothing below a published length is ever written again,
// and an append that outgrows the log's array copies it into a larger
// one, so a prefix stays valid however the log grows. Epoch snapshots
// and pinned query scans read such a prefix instead of copying it, so
// each answer is held once. Every successful ingest bumps a monotonic
// version, which the serving and durability layers use to report how
// fresh a published result is and which WAL records a recovery must
// still replay.
type Store struct {
	name       string
	typ        dataset.TaskType
	numChoices int

	mu      sync.RWMutex
	log     []dataset.Answer
	truth   map[int]float64
	version uint64
	tasks   int
	workers int
}

// NewStore returns an empty store for the given task type. numChoices is
// ℓ for single-choice tasks (decision tasks force 2, numeric tasks 0).
func NewStore(name string, typ dataset.TaskType, numChoices int) (*Store, error) {
	// Validate and normalize the type/choices combination exactly as the
	// dataset package would.
	d, err := dataset.New(name, typ, numChoices, 0, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Store{name: d.Name, typ: d.Type, numChoices: d.NumChoices, truth: map[int]float64{}}, nil
}

// NewStoreN is NewStore; the shard count is ignored.
//
// Deprecated: the store has one answer log. NewStoreN stays only until
// the benchmark's hand-built tenant stops calling it (ROADMAP item 1).
func NewStoreN(name string, typ dataset.TaskType, numChoices, _ int) (*Store, error) {
	return NewStore(name, typ, numChoices)
}

// NewStoreAt builds a store whose state is exactly d at the given
// version — the recovery constructor internal/stream/wal uses to resume
// from a snapshot before replaying newer WAL records on top. The store
// copies d's answers and truths, so d stays the caller's.
func NewStoreAt(d *dataset.Dataset, version uint64) *Store {
	s := &Store{name: d.Name, typ: d.Type, numChoices: d.NumChoices,
		log: slices.Clone(d.Answers), truth: maps.Clone(d.Truth),
		version: version, tasks: d.NumTasks, workers: d.NumWorkers}
	if s.truth == nil {
		s.truth = map[int]float64{}
	}
	return s
}

// Ingest applies one batch atomically: the id ranges grow to cover every
// referenced task and worker, the answers are appended to the log, and
// the truths recorded. It returns the new store version and the log
// index of the first appended answer. On error the store is unchanged
// (rejecting a batch never tears a partial delta into the log).
func (s *Store) Ingest(b Batch) (version uint64, firstNew int, err error) {
	if len(b.Answers) > MaxBatch || len(b.Truth) > MaxBatch {
		return 0, 0, fmt.Errorf("stream: batch holds %d answers / %d truths, beyond the %d per-batch cap (split the delta)",
			len(b.Answers), len(b.Truth), MaxBatch)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tasks, workers := b.targetDims(s.tasks, s.workers)
	if tasks > MaxDim || workers > MaxDim {
		return 0, 0, fmt.Errorf("stream: batch grows the store to %d tasks / %d workers, beyond the %d id cap",
			tasks, workers, MaxDim)
	}
	probe := dataset.Dataset{Name: s.name, Type: s.typ, NumChoices: s.numChoices,
		NumTasks: tasks, NumWorkers: workers}
	for i, a := range b.Answers {
		if err := probe.CheckAnswer(a); err != nil {
			return 0, 0, fmt.Errorf("stream: batch answer %d: %w", i, err)
		}
	}
	for t, v := range b.Truth {
		if err := probe.CheckTruth(t, v); err != nil {
			return 0, 0, fmt.Errorf("stream: %w", err)
		}
	}
	s.tasks, s.workers = tasks, workers
	firstNew = len(s.log)
	s.log = append(s.log, b.Answers...)
	for t, v := range b.Truth {
		s.truth[t] = v
	}
	s.version++
	return s.version, firstNew, nil
}

// Pin returns the store version and the answer log at that version: the
// capacity-clipped prefix every later read of it sees unchanged, with no
// lock held. The query plane (internal/query) streams whole relations at
// one pinned version this way without copying the store.
func (s *Store) Pin() (version uint64, answers []dataset.Answer) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version, s.log[:len(s.log):len(s.log)]
}

// Contents returns the store at one version as a dataset with no answer
// index, together with that version: the pinned log prefix (see Pin),
// the dims and a copy of the truths, all read under one read lock. WAL
// compaction encodes it as it is (Dataset.MarshalBinary reads no index);
// inference needs Snapshot.
func (s *Store) Contents() (*dataset.Dataset, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &dataset.Dataset{Name: s.name, Type: s.typ, NumChoices: s.numChoices,
		NumTasks: s.tasks, NumWorkers: s.workers,
		Answers: s.log[:len(s.log):len(s.log)], Truth: maps.Clone(s.truth)}, s.version
}

// Snapshot returns a consistent snapshot of the store as a dataset,
// together with the store version it reflects: Contents, indexed once by
// Build. The epoch path extends its previous snapshot instead
// (snapshotSince).
func (s *Store) Snapshot() (*dataset.Dataset, uint64) {
	return s.snapshotSince(nil)
}

// snapshotSince returns a consistent snapshot of the store, built by
// extending prev, an earlier snapshot of this store: prev.Extend indexes
// only the answers past prev's. A nil prev takes a full snapshot. Either
// way the snapshot's answers are the log prefix itself, not a copy, and
// only the truths are copied under the read lock. Re-inference runs on
// snapshots, so ingestion never blocks behind a long EM run.
func (s *Store) snapshotSince(prev *dataset.Dataset) (*dataset.Dataset, uint64) {
	d, version := s.Contents()
	var err error
	if prev == nil {
		err = d.Build()
	} else {
		d, err = prev.Extend(d.Answers, d.NumTasks, d.NumWorkers, d.Truth)
	}
	if err != nil {
		// Every committed batch was validated against its target dims, so
		// a consistent store always snapshots to a valid dataset.
		panic("stream: snapshot of consistent store failed: " + err.Error())
	}
	return d, version
}

// AnswersSince calls f for every answer at log index from or later, in
// ingestion order, and returns the answer count it stopped at: the from
// of the next call. It walks a pinned prefix (see Pin) and holds no lock
// while f runs. A caller that keeps the returned count follows the store
// by its delta: the assignment ledger keeps its answer counts and
// self-exclusion index current this way, and replays its defense state
// from from = 0.
func (s *Store) AnswersSince(from int, f func(task, worker int, value float64)) (next int) {
	_, log := s.Pin()
	for _, a := range log[min(from, len(log)):] {
		f(a.Task, a.Worker, a.Value)
	}
	return len(log)
}

// ForEachGolden streams every task whose ground truth has been recorded
// (Batch.Truth), from a copy of the truths taken under the read lock.
// These are the tasks the assignment ledger can grade qualification
// answers against; truth is persisted in snapshots and the WAL, so the
// golden pool too survives restarts.
func (s *Store) ForEachGolden(f func(task int, truth float64)) {
	s.mu.RLock()
	truth := maps.Clone(s.truth)
	s.mu.RUnlock()
	for t, v := range truth {
		f(t, v)
	}
}

// Name returns the store's name (the project id in a multi-tenant
// deployment, or the preloaded dataset's name).
func (s *Store) Name() string { return s.name }

// SetName renames the store. It must be called before the store is
// shared (no lock is taken); the tenant layer uses it so stores
// recovered from pre-multi-tenant snapshots — which persisted the old
// hardcoded name — report their project id in stats and in every later
// snapshot.
func (s *Store) SetName(name string) { s.name = name }

// TaskType returns the store's task family.
func (s *Store) TaskType() dataset.TaskType { return s.typ }

// NumChoices returns the store's normalized choice count (2 for
// decision, ℓ for single-choice, 0 for numeric).
func (s *Store) NumChoices() int { return s.numChoices }

// Version returns the current store version (0 for a never-ingested
// empty store).
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Dims returns the current task, worker and answer counts.
func (s *Store) Dims() (tasks, workers, answers int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tasks, s.workers, len(s.log)
}
