// Package assign is the online task-assignment subsystem: the control
// plane that decides which task a requesting worker should answer next,
// closing the loop the paper (Zheng et al., PVLDB'17) frames alongside
// truth inference. A Ledger hands out time-limited task leases scored by
// a pluggable Policy — random, least-answered redundancy balancing, or
// QASCA-style uncertainty routing driven by the serving method's
// posterior — under three safety rails:
//
//   - a per-task redundancy cap (collected answers + outstanding leases
//     never exceed it),
//   - a global answer budget (completed + outstanding never exceed it,
//     so the crowd's spend is bounded even with leases in flight), and
//   - self-exclusion (a worker is never assigned the same task twice —
//     even after its earlier lease expired, and even when its earlier
//     answer arrived out of band: every answer in the store excludes its
//     worker, whether it was preloaded, recovered after a daemon restart
//     or ingested directly while the ledger ran).
//
// The budget is accounted per ledger instance by default; with
// Config.ChargeExisting (which the Spec config layer always sets) it instead
// caps the store's live answer total, so the accounting is continuous
// across restarts and a durable deployment rebooted with the same
// config resumes with exactly the remaining budget.
//
// Leases expire after the configured TTL and are reclaimed lazily on the
// next ledger operation, so abandoned assignments flow back into the
// eligible pool instead of starving the task.
//
// The ledger reads the serving state through the Source interface, which
// *stream.Service satisfies structurally. It follows the store by its
// answer delta: each sync pins the answer log (Source.Pin) and visits
// only the answers past the ones it has seen, counting them toward their
// tasks' redundancy and adding them to their workers' exclusion lists.
// It follows the posterior the same way: when a new result publishes
// (the epoch boundary; on an incremental method, every ingest), a delta
// read (Source.Posteriors) copies only the rows that changed into the
// flat tasks × ℓ buffer the ledger keeps, and only those rows' entropies
// are recomputed. Worker qualities are read per request.
//
// Under a Cacheable policy (uncertainty, least-answered) the ledger keeps
// each task's score across requests and scores a task again only when
// its load or posterior row changed, so a request costs one pass over
// cached scores. The cache holds scores for one probability-correct: it
// hits when consecutive requests map to the same one, as fresh workers at
// the prior and, on MV, every known worker do; a request at another one
// scores every task afresh, as every request did before the cache.
// cmd/truthserve mounts the HTTP
// face (GET /v1/assign, POST /v1/complete, GET /v1/assignstats) next to
// the inference API, and internal/simulate drives the whole loop
// end-to-end for policy comparison.
package assign

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
)

// Source is the serving-state surface the ledger scores from.
// *stream.Service implements it; tests use lightweight fakes.
type Source interface {
	// Dims returns the store's current task/worker/answer counts.
	Dims() (tasks, workers, answers int)
	// ResultVersion bumps when a new inference result publishes; the
	// ledger brings its posterior up to it by a delta read when it moves.
	ResultVersion() uint64
	// Pin returns the store version, which bumps on every ingested batch
	// (the golden pool is re-read when it moves), and the answer log at
	// that version, in ingestion order: a prefix no later ingest writes
	// to. NewLedger walks the whole log and each sync walks only the
	// answers past the last one it saw, so answer counts and
	// self-exclusion cover every answer in the store: preloaded,
	// recovered after a restart, ingested directly or routed.
	Pin() (version uint64, answers []dataset.Answer)
	// Posteriors brings dst, the flat copy an earlier call returned at
	// result version since (or nil), up to the per-task posterior and
	// returns it with the result version it reflects: task t's row over
	// the ℓ labels is dst[t·ℓ : (t+1)·ℓ]. An error means no posterior is
	// available (yet). It copies the rows of tasks dst lacks and those
	// that changed after since, and calls changed with the task of each
	// row it copied. Listing a row that did not change only costs the
	// ledger a score; leaving out one that did serves a stale score.
	Posteriors(dst []float64, since uint64, changed func(task int)) ([]float64, uint64, error)
	// WorkerQuality returns the method's quality estimate for one worker.
	// Methods that model workers uniformly (MV/Mean/Median) report 1 for
	// every worker; routing then reduces to pure posterior uncertainty,
	// which matches those methods' equal-weight worker model. An error
	// (no estimate yet — e.g. an iterative method before its first
	// epoch, or an unseen worker) falls back to Config.PriorQuality.
	WorkerQuality(worker int) (float64, error)
	// NumChoices returns ℓ for categorical stores, 0 for numeric.
	NumChoices() int
}

// Defaults for Config zero values.
const (
	DefaultRedundancy   = 3
	DefaultLeaseTTL     = time.Minute
	DefaultPriorQuality = 0.7
)

// Config parameterizes a Ledger.
type Config struct {
	// Policy scores candidate tasks; required (see ParsePolicy).
	Policy Policy
	// Redundancy caps each task's collected answers + outstanding leases.
	// 0 means DefaultRedundancy; negative is rejected.
	Redundancy int
	// Budget caps the total answers the ledger will route (completed +
	// outstanding leases, plus — with ChargeExisting — answers already
	// in the store at construction). 0 means unlimited.
	Budget int
	// ChargeExisting makes Budget a cap on the store's *total* answers
	// (the live answer count plus outstanding leases) instead of on this
	// instance's routed spend. The accounting is continuous across
	// restarts: recovered, preloaded and directly-ingested answers all
	// count, so a durable deployment rebooted with the same config
	// resumes with exactly the remaining budget — no manual
	// remaining-budget arithmetic. The multi-tenant config layer
	// (assign.Spec) always sets it; the closed-loop simulator builds
	// per-instance ledgers from Config directly.
	ChargeExisting bool
	// LeaseTTL is how long a worker holds an assignment before it is
	// reclaimed and re-issuable. 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Seed drives the random policy's hashing; ledgers with equal seeds
	// and request sequences issue identical leases.
	Seed int64
	// PriorQuality is the probability-correct assumed for workers the
	// serving method has no estimate for (new workers, or any worker
	// before the first epoch). 0 means DefaultPriorQuality.
	PriorQuality float64
	// Now is the ledger's clock; nil means time.Now. Tests and the
	// closed-loop simulator inject a fake clock for deterministic expiry.
	Now func() time.Time
	// Metrics, when non-nil, receives lease lifecycle and budget
	// observations (see NewMetrics). Nil disables instrumentation.
	Metrics *Metrics
	// Defense, when non-nil and enabled, arms the adversarial-crowd
	// defense layer: golden-task qualification gates, quality
	// change-detection, and pairwise collusion scoring (see DefenseSpec
	// in defense.go). Requires a categorical source.
	Defense *DefenseSpec
}

// Sentinel errors of the assignment API.
var (
	// ErrBudgetExhausted: the global answer budget is fully committed.
	ErrBudgetExhausted = errors.New("assign: answer budget exhausted")
	// ErrNoTask: no task is currently eligible for this worker (all are
	// at their redundancy cap or already seen by the worker).
	ErrNoTask = errors.New("assign: no eligible task for this worker")
	// ErrLeaseNotFound: the lease id is unknown — never issued, already
	// completed, or expired and reclaimed.
	ErrLeaseNotFound = errors.New("assign: lease unknown, completed, or expired")
	// ErrLeaseWorker: the lease exists but belongs to another worker.
	ErrLeaseWorker = errors.New("assign: lease is held by a different worker")
)

// Ledger is the concurrency-safe assignment state: outstanding leases,
// per-task redundancy accounting, per-worker exclusion lists, and the
// cached scoring view of the serving state. All methods are safe for
// concurrent use; a single mutex guards the state (assignment is a
// control-plane operation — the data-plane hot path, answer ingestion,
// never takes this lock).
type Ledger struct {
	cfg Config
	src Source
	now func() time.Time

	ell int // ℓ, at least 1: the width of a posterior row in post

	mu sync.Mutex
	// Per-task state, grown together to the store's task range. load[t]
	// is task t's answers in the store, up to answer index next, plus its
	// leases in flight: the redundancy accounting policies see, kept
	// current as answers arrive and leases are issued and retired.
	load  []int
	mark  []uint64 // mark[t] == stamp: the requesting worker saw t
	stamp uint64
	// seen lists, per worker, every task it was leased or answered
	// (self-exclusion); excludeLocked marks a list into mark. A routed
	// answer is listed twice: at issue, and when the answer delta
	// brings it back.
	seen map[int][]int
	next int // the store answer count load and seen follow up to

	// Cached posterior: when the result version moves (the epoch
	// boundary; on an incremental method, every ingest), a delta read
	// brings post, task t's row at post[t·ℓ : (t+1)·ℓ], up to it, copying
	// only the rows that changed and listing them in changed. ent[t] is
	// row t's entropy, recomputed for each listed row, and Stats sums it
	// into meanEnt once per post.
	post      []float64
	changed   []int
	ent       []float64
	postVer   uint64
	postOK    bool
	meanEnt   float64
	meanEntOK bool
	uniform   []float64

	// Score cache, kept for a Cacheable policy: cache[t] holds task t's
	// score for a request of probability-correct cacheQ, current while
	// cache[t].gen == cacheGen (never 0). A change to a task's load or
	// posterior row zeroes its entry's gen; moving the cache to another
	// probability-correct, or a posterior that appears, vanishes or
	// shrinks, bumps cacheGen, which drops every entry at once. lastQ is
	// the previous request's probability-correct.
	cache    []scoreEntry
	cacheGen uint64
	cacheQ   float64
	lastQ    float64

	leases map[uint64]Lease
	expiry expiryHeap
	// issued counts successful assignments; it doubles as the lease-id
	// counter (ids are 1-based, so id == issued after the increment) and
	// as the random policy's stream position (0-based, before it).
	issued   uint64
	redeemed uint64
	expired  uint64

	// def is the defense layer's state (nil when disabled); see
	// defense.go.
	def *defense
}

// budgetCommittedLocked returns the spend counted against the budget:
// with ChargeExisting, the store's live answer total (recovered,
// preloaded, direct and routed alike) plus outstanding leases; without
// it, the per-instance count of routed answers.
func (l *Ledger) budgetCommittedLocked() int {
	if l.cfg.ChargeExisting {
		_, _, answers := l.src.Dims()
		return answers + len(l.leases)
	}
	return int(l.redeemed) + len(l.leases)
}

// NewLedger validates the config and builds an empty ledger over the
// source.
func NewLedger(src Source, cfg Config) (*Ledger, error) {
	if src == nil {
		return nil, errors.New("assign: Source is required")
	}
	if cfg.Policy == nil {
		return nil, errors.New("assign: Config.Policy is required (see ParsePolicy)")
	}
	if cfg.Redundancy < 0 {
		return nil, fmt.Errorf("assign: negative redundancy %d", cfg.Redundancy)
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("assign: negative budget %d", cfg.Budget)
	}
	if cfg.LeaseTTL < 0 {
		return nil, fmt.Errorf("assign: negative lease TTL %v", cfg.LeaseTTL)
	}
	if cfg.Redundancy == 0 {
		cfg.Redundancy = DefaultRedundancy
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.PriorQuality == 0 {
		cfg.PriorQuality = DefaultPriorQuality
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	ell := src.NumChoices()
	l := &Ledger{
		cfg:      cfg,
		src:      src,
		now:      now,
		ell:      max(ell, 1),
		seen:     map[int][]int{},
		cacheGen: 1,
		leases:   map[uint64]Lease{},
	}
	if ell >= 2 {
		l.uniform = make([]float64, ell)
		for i := range l.uniform {
			l.uniform[i] = 1 / float64(ell)
		}
	}
	tasks, _, _ := src.Dims()
	version, log := src.Pin()
	if cfg.Defense.Enabled() {
		def, err := newDefense(*cfg.Defense, ell)
		if err != nil {
			return nil, err
		}
		l.def = def
		// The golden pool comes from recorded truth, before the answers
		// below are graded against it.
		l.refreshGoldenLocked(version)
	}
	// One pass over whatever the store already holds (a preloaded
	// dataset, or a recovered snapshot+WAL after a restart) counts the
	// answers, excludes their workers, and replays the defense layer's
	// pass/fail tallies and collusion record, so a worker qualified (or
	// banned) before a restart stays so after. Later syncs follow the
	// answers that arrive after this pass.
	l.growLocked(tasks)
	for _, a := range log {
		l.followLocked(a)
		l.recordLocked(a.Task, a.Worker, a.Value)
	}
	l.next = len(log)
	return l, nil
}

// Policy returns the ledger's scoring policy.
func (l *Ledger) Policy() Policy { return l.cfg.Policy }

// Assign picks the best eligible task for the worker and issues a lease
// on it. It returns ErrBudgetExhausted when the global budget is fully
// committed and ErrNoTask when every task is at its redundancy cap or
// already seen by this worker (a later reclaim or ingest can make tasks
// eligible again — except for seen ones, which are excluded forever).
func (l *Ledger) Assign(worker int) (Lease, error) {
	if worker < 0 {
		return Lease{}, fmt.Errorf("assign: negative worker id %d", worker)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	l.reclaimLocked(now)
	if l.def != nil && l.def.state(worker).banned {
		return Lease{}, fmt.Errorf("%w (worker %d: %s)", ErrWorkerBanned, worker, l.def.state(worker).banReason)
	}
	if l.cfg.Budget > 0 && l.budgetCommittedLocked() >= l.cfg.Budget {
		return Lease{}, ErrBudgetExhausted
	}
	l.syncLocked()

	// An unqualified worker is routed only golden tasks: its probe
	// answers are graded against recorded truth (and anchored by it, so
	// they can't poison inference) until it passes the gate or spends
	// its golden chances. Golden leases bypass the redundancy cap — the
	// gate must not starve on a popular golden pool — but respect the
	// budget and self-exclusion like any lease.
	if l.def.gateActiveLocked() && !l.def.qualifiedLocked(worker) {
		t := l.goldenTaskLocked(worker)
		if t < 0 {
			return Lease{}, ErrNoTask
		}
		return l.issueLocked(t, worker, now, true), nil
	}

	req := &Request{
		Worker:    worker,
		Quality:   l.workerProbLocked(worker),
		Seq:       l.issued,
		Seed:      l.cfg.Seed,
		Choices:   l.src.NumChoices(),
		Load:      l.load,
		Posterior: l.post,
		uniform:   l.uniform,
	}
	// A request at another probability-correct than the cache's scores
	// every task afresh and keeps none of it, unless the request before
	// it had the same one: then the cache moves to it.
	q := req.Quality
	cached := l.cfg.Policy.Cacheable() && (q == l.cacheQ || q == l.lastQ)
	if cached && q != l.cacheQ {
		l.cacheGen++
		l.cacheQ = q
	}
	l.lastQ = q
	l.excludeLocked(worker)
	limit, stamp, gen := l.cfg.Redundancy, l.stamp, l.cacheGen
	mark, cache := l.mark[:len(l.load)], l.cache[:len(l.load)]
	best, bestScore := -1, 0.0
	for t, load := range l.load {
		if load >= limit || mark[t] == stamp {
			continue
		}
		var s float64
		if e := &cache[t]; !cached {
			s = l.cfg.Policy.Score(req, t)
		} else if e.gen == gen {
			s = e.score
		} else {
			s = l.cfg.Policy.Score(req, t)
			e.score, e.gen = s, gen
		}
		if best == -1 || s > bestScore {
			best, bestScore = t, s
		}
	}
	if best == -1 {
		return Lease{}, ErrNoTask
	}
	return l.issueLocked(best, worker, now, false), nil
}

// issueLocked creates, registers and returns a lease on task for worker;
// the caller holds l.mu and has already enforced budget and eligibility.
func (l *Ledger) issueLocked(task, worker int, now time.Time, golden bool) Lease {
	l.issued++
	lease := Lease{ID: l.issued, Task: task, Worker: worker, Expires: now.Add(l.cfg.LeaseTTL), Golden: golden}
	l.leases[lease.ID] = lease
	l.expiry.push(expiryEntry{id: lease.ID, expires: lease.Expires})
	l.addLoadLocked(task, 1)
	l.seen[worker] = append(l.seen[worker], task)
	l.cfg.Metrics.observeIssued()
	l.publishGaugesLocked()
	return lease
}

// Complete redeems a lease: deliver (when non-nil) is invoked with the
// leased task while the ledger lock is held, and the lease is consumed
// only if it returns nil — so delivering the answer into the serving
// store and retiring the lease are atomic with respect to every other
// ledger operation. An expired lease fails with ErrLeaseNotFound even if
// the deadline passed only just now: its task may already be re-leased,
// and the budget must not admit both answers.
//
// Complete never sees the answer's value, so the defense layer cannot
// grade or correlate it; defense-enabled deployments should redeem
// through CompleteValue (the HTTP handler does).
func (l *Ledger) Complete(id uint64, worker int, deliver func(task int) error) error {
	return l.CompleteValue(id, worker, math.NaN(), deliver)
}

// CompleteValue is Complete carrying the delivered answer's value, which
// the defense layer grades against golden truth and records for
// collusion scoring. A NaN value records nothing.
func (l *Ledger) CompleteValue(id uint64, worker int, value float64, deliver func(task int) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reclaimLocked(l.now())
	lease, ok := l.leases[id]
	if !ok {
		return ErrLeaseNotFound
	}
	if lease.Worker != worker {
		return fmt.Errorf("%w (lease %d)", ErrLeaseWorker, id)
	}
	if deliver != nil {
		if err := deliver(lease.Task); err != nil {
			return err
		}
	}
	delete(l.leases, id)
	l.addLoadLocked(lease.Task, -1)
	l.redeemed++
	l.recordLocked(lease.Task, worker, value)
	l.cfg.Metrics.observeCompleted()
	l.publishGaugesLocked()
	return nil
}

// reclaimLocked expires every lease whose deadline passed: the task's
// load drops (so it becomes re-issuable to other workers)
// while the task stays in the original worker's seen list — a worker
// never sees a task twice, even one it abandoned.
func (l *Ledger) reclaimLocked(now time.Time) {
	reclaimed := 0
	for len(l.expiry) > 0 && !l.expiry[0].expires.After(now) {
		e := l.expiry.pop()
		lease, ok := l.leases[e.id]
		if !ok {
			continue // completed before its deadline; stale heap entry
		}
		delete(l.leases, e.id)
		l.addLoadLocked(lease.Task, -1)
		l.expired++
		reclaimed++
	}
	if reclaimed > 0 {
		l.cfg.Metrics.observeExpired(reclaimed)
		l.publishGaugesLocked()
	}
}

// publishGaugesLocked refreshes the outstanding-lease and
// budget-remaining gauges after a lease-state transition; the caller
// holds l.mu. The budget arithmetic mirrors Stats.
func (l *Ledger) publishGaugesLocked() {
	if l.cfg.Metrics == nil {
		return
	}
	remaining := -1
	if l.cfg.Budget > 0 {
		if remaining = l.cfg.Budget - l.budgetCommittedLocked(); remaining < 0 {
			remaining = 0
		}
	}
	l.cfg.Metrics.observeState(len(l.leases), remaining)
}

// syncLocked refreshes the cached serving state: it follows the answers
// the pinned log holds past the last sync, grows the per-task slices to
// the store's task range, and brings the posterior up to the result
// version when it moved (the epoch boundary; on an incremental method,
// every ingest), recomputing the entropy and dropping the cached score of
// each row the delta read lists.
func (l *Ledger) syncLocked() {
	tasks, _, _ := l.src.Dims()
	version, log := l.src.Pin()
	for _, a := range log[l.next:] {
		l.followLocked(a)
	}
	l.next = len(log)
	l.growLocked(tasks)
	if rv := l.src.ResultVersion(); !l.postOK || rv != l.postVer {
		l.changed = l.changed[:0]
		post, v, err := l.src.Posteriors(l.post, l.postVer, l.rowChangedLocked)
		if err != nil {
			post, v = nil, rv
		}
		if (post == nil) != (l.post == nil) || len(post) < len(l.post) {
			// The tasks past post's end switched between a row and none,
			// or from their own row to the uniform one; none is listed.
			l.cacheGen++
		}
		if n := len(post) / l.ell; len(l.ent) < n {
			l.ent = append(l.ent, make([]float64, n-len(l.ent))...)
		}
		for _, t := range l.changed {
			l.ent[t] = mathx.Entropy(post[t*l.ell : (t+1)*l.ell])
			if t < len(l.cache) {
				l.cache[t].gen = 0
			}
		}
		l.post, l.postVer = post, v
		l.postOK, l.meanEntOK = true, false
	}
	l.refreshGoldenLocked(version)
	l.defenseSweepLocked()
}

// rowChangedLocked lists a posterior row the delta read copied.
func (l *Ledger) rowChangedLocked(task int) { l.changed = append(l.changed, task) }

// followLocked takes one stored answer into the ledger: it counts toward
// its task's redundancy and excludes its worker from the task.
func (l *Ledger) followLocked(a dataset.Answer) {
	l.growLocked(a.Task + 1)
	l.addLoadLocked(a.Task, 1)
	l.seen[a.Worker] = append(l.seen[a.Worker], a.Task)
}

// addLoadLocked moves task's load by delta and drops its cached score.
func (l *Ledger) addLoadLocked(task, delta int) {
	l.load[task] += delta
	l.cache[task].gen = 0
}

// scoreEntry is one task's cached policy score, current while gen is
// the ledger's cacheGen.
type scoreEntry struct {
	score float64
	gen   uint64
}

// growLocked extends the per-task slices to n tasks; a new task has no
// cached score.
func (l *Ledger) growLocked(n int) {
	if extra := n - len(l.load); extra > 0 {
		l.load = append(l.load, make([]int, extra)...)
		l.mark = append(l.mark, make([]uint64, extra)...)
		l.cache = append(l.cache, make([]scoreEntry, extra)...)
	}
}

// excludeLocked marks the tasks the worker was leased or answered: until
// the next call, l.mark[t] == l.stamp exactly for those t.
func (l *Ledger) excludeLocked(worker int) {
	l.stamp++
	for _, t := range l.seen[worker] {
		l.mark[t] = l.stamp
	}
}

// workerProbLocked maps the serving method's quality estimate for worker
// onto a probability-correct, falling back to the configured prior for
// workers without an estimate.
func (l *Ledger) workerProbLocked(worker int) float64 {
	ell := l.src.NumChoices()
	if l.def != nil {
		if st, ok := l.def.workers[worker]; ok && st.downWeighted {
			// A down-weighted worker scores at chance: its answers are
			// routed as carrying no information.
			return QualityToProb(0, ell)
		}
	}
	if q, err := l.src.WorkerQuality(worker); err == nil {
		return QualityToProb(q, ell)
	}
	return QualityToProb(l.cfg.PriorQuality, ell)
}

// Leases reclaims due leases and returns a snapshot of the outstanding
// ones, ordered by id (issue order). This is the query plane's read
// surface over assignment state — every returned lease is live as of
// the call.
func (l *Ledger) Leases() []Lease {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reclaimLocked(l.now())
	out := make([]Lease, 0, len(l.leases))
	for _, lease := range l.leases {
		out = append(out, lease)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats is a consistent snapshot of the ledger (the JSON shape of
// GET /v1/assignstats).
type Stats struct {
	Policy     string  `json:"policy"`
	Redundancy int     `json:"redundancy"`
	Budget     int     `json:"budget"` // 0 = unlimited
	LeaseTTLMS float64 `json:"lease_ttl_ms"`
	// Outstanding is the number of live leases.
	Outstanding int `json:"outstanding"`
	// Issued / Completed / Expired partition every lease ever created:
	// live ones are issued − completed − expired.
	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	Expired   uint64 `json:"expired"`
	// BudgetRemaining is the uncommitted budget (−1 when unlimited).
	// With Config.ChargeExisting the committed side is the store's live
	// answer total plus outstanding leases.
	BudgetRemaining int `json:"budget_remaining"`
	// EligibleTasks counts tasks still under their redundancy cap.
	EligibleTasks int `json:"eligible_tasks"`
	// MeanEntropy is the mean posterior entropy (nats) over all tasks at
	// the last epoch boundary; 0 when no posterior is available. It is
	// the sum, in task order, of the per-task entropies the ledger keeps
	// with its cached posterior, divided by the task count.
	MeanEntropy float64 `json:"mean_entropy"`
	// ResultVersion is the epoch the cached scores reflect.
	ResultVersion uint64 `json:"result_version"`
	// Defense accounting (all zero when the defense layer is disabled):
	// banned and down-weighted workers, distinct flagged collusion
	// pairs, and the golden-pool size.
	BannedWorkers       int `json:"banned_workers,omitempty"`
	DownWeightedWorkers int `json:"down_weighted_workers,omitempty"`
	CollusionPairs      int `json:"collusion_pairs,omitempty"`
	GoldenPool          int `json:"golden_pool,omitempty"`
}

// Stats reclaims due leases, re-syncs the caches, and reports the
// ledger's state.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reclaimLocked(l.now())
	l.syncLocked()
	st := Stats{
		Policy:          l.cfg.Policy.Name(),
		Redundancy:      l.cfg.Redundancy,
		Budget:          l.cfg.Budget,
		LeaseTTLMS:      float64(l.cfg.LeaseTTL.Microseconds()) / 1000,
		Outstanding:     len(l.leases),
		Issued:          l.issued,
		Completed:       l.redeemed,
		Expired:         l.expired,
		BudgetRemaining: -1,
		ResultVersion:   l.postVer,
	}
	if l.cfg.Budget > 0 {
		if st.BudgetRemaining = l.cfg.Budget - l.budgetCommittedLocked(); st.BudgetRemaining < 0 {
			st.BudgetRemaining = 0
		}
	}
	limit := l.cfg.Redundancy
	for _, load := range l.load {
		if load < limit {
			st.EligibleTasks++
		}
	}
	if !l.meanEntOK {
		var sum float64
		n := len(l.post) / l.ell
		for _, e := range l.ent[:n] {
			sum += e
		}
		if n > 0 {
			sum /= float64(n)
		}
		l.meanEnt, l.meanEntOK = sum, true
	}
	st.MeanEntropy = l.meanEnt
	if l.def != nil {
		st.CollusionPairs = l.def.pairs / 2 // each flagged pair is recorded on both workers
		st.GoldenPool = len(l.def.goldenIDs)
		for _, wd := range l.def.workers {
			if wd.banned {
				st.BannedWorkers++
			}
			if wd.downWeighted {
				st.DownWeightedWorkers++
			}
		}
	}
	return st
}
