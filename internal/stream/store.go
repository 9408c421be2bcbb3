// Package stream is the online truth-inference subsystem: a mutable,
// sharded, concurrency-safe answer store that accepts batched
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
// answers that arrived since: only those are copied under the shard read
// locks, and the new index is the old one's rows moved in blocks, each
// new answer appended to its task row and its worker row. So an epoch's
// fixed cost follows the delta and one copy of the index. No snapshot is
// written once handed out. WAL compaction and the incremental methods'
// first fold take full snapshots (Store.Snapshot).
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
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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

// Sharding constants. Tasks map onto shards in contiguous chunks —
// shardOf(task) = (task / ShardChunk) % shards — so a writer ingesting a
// contiguous task range touches one (or few) shards and concurrent
// ingests of disjoint ranges never contend on a shard lock.
const (
	// ShardChunk is the number of consecutive task ids per shard chunk.
	ShardChunk = 64
	// DefaultShards is the shard count of the convenience constructors.
	DefaultShards = 8
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

// entry is one answer in a shard's log, tagged with its global append
// index so snapshots can reassemble the exact global ingestion order.
type entry struct {
	idx int
	ans dataset.Answer
}

// shard is one partition of the store: the answers and truths of the
// tasks it owns, behind its own lock. Within a shard the log is ascending
// in global index (batches sharing a shard serialize on its lock before
// global indices are assigned).
type shard struct {
	mu    sync.RWMutex
	log   []entry
	truth map[int]float64
}

// Store is a mutable, concurrency-safe crowdsourced answer set,
// partitioned across shards keyed by task id. Writers ingest batched
// deltas under the touched shards' locks only — plus one short global
// critical section that assigns the batch's version and global answer
// indices — so concurrent ingests of disjoint task ranges scale across
// cores. Readers take consistent snapshots under all shard read locks
// (a full copy reassembled in parallel, or an earlier snapshot extended
// by the answers since) or walk the logs one shard lock at a time
// (AnswersSince, ScanShard). Every successful ingest bumps a monotonic
// version, which the serving and durability layers use to report how
// fresh a published result is and which WAL records a recovery must
// still replay.
type Store struct {
	name       string
	typ        dataset.TaskType
	numChoices int
	shards     []shard

	// seq orders batch commits: it assigns the version and the global
	// answer-index range, and grows the dims. It is held for O(1) work
	// per batch, never while copying answers.
	seq        sync.Mutex
	version    atomic.Uint64
	numTasks   atomic.Int64
	numWorkers atomic.Int64
	numAnswers atomic.Int64
}

// NewStore returns an empty store with DefaultShards partitions for the
// given task type. numChoices is ℓ for single-choice tasks (decision
// tasks force 2, numeric tasks 0).
func NewStore(name string, typ dataset.TaskType, numChoices int) (*Store, error) {
	return NewStoreN(name, typ, numChoices, DefaultShards)
}

// NewStoreN is NewStore with an explicit shard count. The shard count
// affects only contention, never observable state: snapshots, versions
// and recovery are bit-identical at any shard count.
func NewStoreN(name string, typ dataset.TaskType, numChoices, shards int) (*Store, error) {
	// Validate and normalize the type/choices combination exactly as the
	// dataset package would.
	d, err := dataset.New(name, typ, numChoices, 0, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	return newStore(d.Name, d.Type, d.NumChoices, shards), nil
}

// maxShards caps the partition count: beyond it more shards only add
// per-shard fixed costs (snapshot fan-out, lock array) with no
// contention benefit.
const maxShards = 4096

func newStore(name string, typ dataset.TaskType, numChoices, shards int) *Store {
	if shards < 1 {
		shards = DefaultShards
	}
	if shards > maxShards {
		shards = maxShards
	}
	s := &Store{name: name, typ: typ, numChoices: numChoices, shards: make([]shard, shards)}
	for i := range s.shards {
		s.shards[i].truth = map[int]float64{}
	}
	return s
}

// NewStoreAt builds a store whose state is exactly d at the given
// version — the recovery constructor internal/stream/wal uses to resume
// from a snapshot before replaying newer WAL records on top.
func NewStoreAt(d *dataset.Dataset, version uint64, shards int) *Store {
	s := newStore(d.Name, d.Type, d.NumChoices, shards)
	s.numTasks.Store(int64(d.NumTasks))
	s.numWorkers.Store(int64(d.NumWorkers))
	s.numAnswers.Store(int64(len(d.Answers)))
	s.version.Store(version)
	for i, a := range d.Answers {
		sh := &s.shards[s.shardOf(a.Task)]
		sh.log = append(sh.log, entry{idx: i, ans: a})
	}
	for t, v := range d.Truth {
		s.shards[s.shardOf(t)].truth[t] = v
	}
	return s
}

// shardOf maps a task id onto its owning shard (chunked modulo).
func (s *Store) shardOf(task int) int {
	return (task / ShardChunk) % len(s.shards)
}

// Shards returns the store's shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Ingest applies one batch atomically: the id ranges grow to cover every
// referenced task and worker, the answers are appended, and the truths
// recorded. It returns the new store version and the global index of the
// first appended answer. On error the store is unchanged (rejecting a
// batch never tears a partial delta into the shards). Only the shards
// owning the batch's tasks are write-locked, so concurrent ingests of
// disjoint task ranges proceed in parallel.
func (s *Store) Ingest(b Batch) (version uint64, firstNew int, err error) {
	if len(b.Answers) > MaxBatch || len(b.Truth) > MaxBatch {
		return 0, 0, fmt.Errorf("stream: batch holds %d answers / %d truths, beyond the %d per-batch cap (split the delta)",
			len(b.Answers), len(b.Truth), MaxBatch)
	}
	curTasks := int(s.numTasks.Load())
	curWorkers := int(s.numWorkers.Load())
	tgtTasks, tgtWorkers := b.targetDims(curTasks, curWorkers)
	if tgtTasks > MaxDim || tgtWorkers > MaxDim {
		return 0, 0, fmt.Errorf("stream: batch grows the store to %d tasks / %d workers, beyond the %d id cap",
			tgtTasks, tgtWorkers, MaxDim)
	}
	// Validate against the grown ranges before touching any lock. Dims
	// only ever grow, so a batch valid against this target stays valid
	// even if a concurrent ingest grows them further.
	probe := dataset.Dataset{Name: s.name, Type: s.typ, NumChoices: s.numChoices,
		NumTasks: tgtTasks, NumWorkers: tgtWorkers}
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

	// Write-lock the touched shards in ascending order (the same order
	// Snapshot read-locks all shards, so lock acquisition never cycles).
	// The locks are held across the commit — including the version bump
	// below — so a snapshot that observes version v sees every batch up
	// to v fully applied.
	touched := s.touchedShards(b)
	for _, si := range touched {
		s.shards[si].mu.Lock()
	}
	defer func() {
		for _, si := range touched {
			s.shards[si].mu.Unlock()
		}
	}()

	// Short global critical section: commit order, dims, index range.
	s.seq.Lock()
	tgtTasks, tgtWorkers = b.targetDims(int(s.numTasks.Load()), int(s.numWorkers.Load()))
	s.numTasks.Store(int64(tgtTasks))
	s.numWorkers.Store(int64(tgtWorkers))
	firstNew = int(s.numAnswers.Load())
	s.numAnswers.Add(int64(len(b.Answers)))
	version = s.version.Add(1)
	s.seq.Unlock()

	for i, a := range b.Answers {
		sh := &s.shards[s.shardOf(a.Task)]
		sh.log = append(sh.log, entry{idx: firstNew + i, ans: a})
	}
	for t, v := range b.Truth {
		s.shards[s.shardOf(t)].truth[t] = v
	}
	return version, firstNew, nil
}

// touchedShards returns the sorted shard indices the batch writes to.
func (s *Store) touchedShards(b Batch) []int {
	hit := make([]bool, len(s.shards))
	for _, a := range b.Answers {
		hit[s.shardOf(a.Task)] = true
	}
	for t := range b.Truth {
		hit[s.shardOf(t)] = true
	}
	touched := make([]int, 0, len(s.shards))
	for si, h := range hit {
		if h {
			touched = append(touched, si)
		}
	}
	return touched
}

// Pin returns a consistent (version, answer count) pair for a
// non-materializing read: every answer with global index < answers is
// part of the pinned view, everything at or beyond it is newer. The
// pair is read under the commit lock, so it can never tear across a
// concurrent ingest. The visibility guarantee ScanShard relies on: a
// batch's indices are assigned (under seq) while its shards' write
// locks are held, and those locks are released only after the answers
// are physically appended — so by the time a reader acquires a shard's
// read lock, every entry below the pinned count is present in that
// shard's log. The query plane (internal/query) streams whole relations
// at one pinned version this way without copying the store.
func (s *Store) Pin() (version uint64, answers int) {
	s.seq.Lock()
	defer s.seq.Unlock()
	return s.version.Load(), int(s.numAnswers.Load())
}

// ScanShard copies up to len(dst) answers from shard si's append log
// into dst, starting at log position pos and excluding everything at
// global index >= beforeIdx (the Pin answer count). It returns the
// number of answers copied, the next log position, and whether the
// pinned view of this shard is exhausted. The shard's read lock is held
// only for the copy — never across calls — so a caller streaming a
// large store chunk by chunk cannot starve writers or deadlock against
// a queued writer by re-locking the shard it already holds. Shard logs
// are ascending in global index, so the first out-of-pin entry ends the
// shard.
func (s *Store) ScanShard(si, pos, beforeIdx int, dst []dataset.Answer) (n, next int, done bool) {
	if si < 0 || si >= len(s.shards) || len(dst) == 0 {
		return 0, pos, true
	}
	sh := &s.shards[si]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for pos < len(sh.log) && n < len(dst) {
		e := sh.log[pos]
		if e.idx >= beforeIdx {
			return n, pos, true
		}
		dst[n] = e.ans
		n++
		pos++
	}
	return n, pos, pos >= len(sh.log)
}

// parallelCopyThreshold is the answer count below which a snapshot
// copies the shards serially (goroutine fan-out costs more than it saves
// on a small copy).
const parallelCopyThreshold = 1 << 14

// Snapshot returns a consistent deep copy of the store as a dataset,
// together with the store version it reflects: every answer, copied
// under all shard read locks, then indexed once by dataset.New after the
// locks are released. WAL compaction and the incremental methods' first
// fold take it; the epoch path extends its previous snapshot instead
// (snapshotSince).
func (s *Store) Snapshot() (*dataset.Dataset, uint64) {
	return s.snapshotSince(nil)
}

// snapshotSince returns a consistent snapshot of the store, built by
// extending prev, an earlier snapshot of this store: only the answers at
// global index len(prev.Answers) or later are copied, together with the
// truths, and prev.Extend appends them to prev's answers and index. A nil
// prev takes a full snapshot. All shard read locks are held while the
// shards copy their share in parallel into the global answer order; each
// shard log is ascending in global index, so a binary search finds the
// first new entry. Re-inference runs on snapshots, so ingestion never
// blocks behind a long EM run.
func (s *Store) snapshotSince(prev *dataset.Dataset) (*dataset.Dataset, uint64) {
	from := 0
	if prev != nil {
		from = len(prev.Answers)
	}
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	// seq is taken so answer-less batches (pure dims growth), which hold
	// no shard locks, can never leave version and dims torn here.
	s.seq.Lock()
	version := s.version.Load()
	tasks := int(s.numTasks.Load())
	workers := int(s.numWorkers.Load())
	total := int(s.numAnswers.Load())
	s.seq.Unlock()

	answers := make([]dataset.Answer, total-from)
	copyShard := func(i int) {
		log := s.shards[i].log
		log = log[sort.Search(len(log), func(k int) bool { return log[k].idx >= from }):]
		for _, e := range log {
			answers[e.idx-from] = e.ans
		}
	}
	if len(answers) >= parallelCopyThreshold && len(s.shards) > 1 {
		// Fan out at most one goroutine per CPU; each claims shards off a
		// shared counter, so a high -shards value costs nothing extra.
		workers := runtime.GOMAXPROCS(0)
		if workers > len(s.shards) {
			workers = len(s.shards)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(s.shards) {
						return
					}
					copyShard(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range s.shards {
			copyShard(i)
		}
	}
	nTruth := 0
	for i := range s.shards {
		nTruth += len(s.shards[i].truth)
	}
	truth := make(map[int]float64, nTruth)
	for i := range s.shards {
		for t, v := range s.shards[i].truth {
			truth[t] = v
		}
		s.shards[i].mu.RUnlock()
	}

	var d *dataset.Dataset
	var err error
	if prev == nil {
		d, err = dataset.New(s.name, s.typ, s.numChoices, tasks, workers, answers, truth)
	} else {
		d, err = prev.Extend(answers, tasks, workers, truth)
	}
	if err != nil {
		// Every committed batch was validated against its target dims, so
		// a consistent store always snapshots to a valid dataset.
		panic("stream: snapshot of consistent store failed: " + err.Error())
	}
	return d, version
}

// AnswersSince calls f for every answer at global index from or later
// and returns the answer count it stopped at: the from of the next call.
// The count is pinned under the commit lock, as Pin does. The walk then
// goes one shard at a time under that shard's read lock, each shard's
// entries in log order, starting at the first entry at or past from (a
// binary search, as in snapshotSince) and stopping at the pinned count.
// So f must be quick and must not call back into the store. A caller
// that keeps the returned count follows the store by its delta: the
// assignment ledger keeps its answer counts and self-exclusion index
// current this way, and replays its defense state from from = 0.
func (s *Store) AnswersSince(from int, f func(task, worker int, value float64)) (next int) {
	_, next = s.Pin()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		log := sh.log
		for _, e := range log[sort.Search(len(log), func(k int) bool { return log[k].idx >= from }):] {
			if e.idx >= next {
				break
			}
			f(e.ans.Task, e.ans.Worker, e.ans.Value)
		}
		sh.mu.RUnlock()
	}
	return next
}

// ForEachGolden streams every task whose ground truth has been recorded
// (Batch.Truth), one shard at a time under that shard's read lock. These
// are the tasks the assignment ledger can grade qualification answers
// against; truth is persisted in snapshots and the WAL, so the golden
// pool too survives restarts.
func (s *Store) ForEachGolden(f func(task int, truth float64)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for t, v := range sh.truth {
			f(t, v)
		}
		sh.mu.RUnlock()
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
// empty store). The read is lock-free: a version may be visible a moment
// before its batch's answers are (Snapshot is the consistent read).
func (s *Store) Version() uint64 {
	return s.version.Load()
}

// Dims returns the current task, worker and answer counts. Like Version,
// the counts are monotonic lock-free reads.
func (s *Store) Dims() (tasks, workers, answers int) {
	return int(s.numTasks.Load()), int(s.numWorkers.Load()), int(s.numAnswers.Load())
}
