package assign

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeAnswer is one answer in the fake source's log.
type fakeAnswer struct {
	task, worker int
	value        float64
}

// fakeSource is an in-memory Source with settable serving state. Its
// answers live in one log, in ingest order, which AnswersSince walks.
type fakeSource struct {
	mu        sync.Mutex
	tasks     int
	workers   int
	ell       int
	storeVer  uint64
	resultVer uint64
	log       []fakeAnswer
	post      [][]float64
	postErr   error
	quality   map[int]float64
}

func newFakeSource(tasks, ell int) *fakeSource {
	return &fakeSource{
		tasks: tasks, ell: ell,
		storeVer: 1, resultVer: 1,
		quality: map[int]float64{},
	}
}

func (f *fakeSource) Dims() (int, int, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tasks, f.workers, len(f.log)
}
func (f *fakeSource) StoreVersion() uint64 { f.mu.Lock(); defer f.mu.Unlock(); return f.storeVer }
func (f *fakeSource) ResultVersion() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.resultVer
}
func (f *fakeSource) AnswersSince(from int, fn func(task, worker int, value float64)) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range f.log[from:] {
		fn(a.task, a.worker, a.value)
	}
	return len(f.log)
}
func (f *fakeSource) Posteriors(dst [][]float64) ([][]float64, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.postErr != nil {
		return nil, 0, f.postErr
	}
	dst = dst[:0]
	for _, row := range f.post {
		dst = append(dst, append([]float64(nil), row...))
	}
	return dst, f.resultVer, nil
}
func (f *fakeSource) WorkerQuality(w int) (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	q, ok := f.quality[w]
	if !ok {
		return 0, errors.New("no estimate")
	}
	return q, nil
}
func (f *fakeSource) NumChoices() int { return f.ell }

// addAnswer appends one answer to the log and bumps the store version.
func (f *fakeSource) addAnswer(task, worker int, value float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = append(f.log, fakeAnswer{task, worker, value})
	f.storeVer++
}

// taskCounts returns the answers each task holds in the log.
func (f *fakeSource) taskCounts() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	counts := make([]int, f.tasks)
	for _, a := range f.log {
		counts[a.task]++
	}
	return counts
}

// outOfBand is the first worker id preload gives its answers: far above
// the ids the tests request leases for, so the preloaded answers count
// toward redundancy without excluding anyone.
const outOfBand = 1000

// preload fills the log with counts[t] answers on each task t, each from
// its own out-of-band worker.
func (f *fakeSource) preload(counts ...int) {
	w := outOfBand
	for task, n := range counts {
		for range n {
			f.addAnswer(task, w, 0)
			w++
		}
	}
}

// fakeClock is a deterministic settable clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }
func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func mustLedger(t *testing.T, src Source, cfg Config) *Ledger {
	t.Helper()
	l, err := NewLedger(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"random", "least-answered", "uncertainty"} {
		p, err := ParsePolicy(name)
		if err != nil || p.Name() != name {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	_, err := ParsePolicy("qasca")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-policy error does not list %q: %v", name, err)
		}
	}
}

func TestNewLedgerValidation(t *testing.T) {
	src := newFakeSource(2, 2)
	pol := Random{}
	for _, cfg := range []Config{
		{},                                    // no policy
		{Policy: pol, Redundancy: -1},         // negative redundancy
		{Policy: pol, Budget: -3},             // negative budget
		{Policy: pol, LeaseTTL: -time.Second}, // negative TTL
	} {
		if _, err := NewLedger(src, cfg); err == nil {
			t.Errorf("NewLedger accepted invalid config %+v", cfg)
		}
	}
	if _, err := NewLedger(nil, Config{Policy: pol}); err == nil {
		t.Error("NewLedger accepted nil source")
	}
}

func TestExpectedAccuracyGain(t *testing.T) {
	uniform := []float64{0.5, 0.5}
	confident := []float64{0.95, 0.05}
	// Chance-level worker: no information, zero gain.
	if g := ExpectedAccuracyGain(uniform, 0.5); g != 0 {
		t.Errorf("gain at chance quality = %v, want 0", g)
	}
	// The gain grows with worker quality...
	g7, g9 := ExpectedAccuracyGain(uniform, 0.7), ExpectedAccuracyGain(uniform, 0.9)
	if !(g9 > g7 && g7 > 0) {
		t.Errorf("gain not increasing in quality: q=0.7→%v, q=0.9→%v", g7, g9)
	}
	// ...and an uncertain task gains more than a confident one.
	if gu, gc := ExpectedAccuracyGain(uniform, 0.8), ExpectedAccuracyGain(confident, 0.8); gu <= gc {
		t.Errorf("uniform gain %v not above confident gain %v", gu, gc)
	}
	// Never negative, even where one answer cannot flip the argmax.
	if g := ExpectedAccuracyGain([]float64{1, 0}, 0.9); g < 0 {
		t.Errorf("gain on a settled posterior = %v, want ≥ 0", g)
	}
}

func TestQualityToProb(t *testing.T) {
	cases := []struct {
		q    float64
		ell  int
		want float64
	}{
		{0.8, 2, 0.8},
		{math.NaN(), 2, 0.5}, // no estimate → chance
		{0.1, 4, 0.25},       // sub-chance clamps to chance
		{3.7, 2, 1 - 1e-9},   // PM/CATD-style weight clamps below 1
		{-1, 3, 1 / 3.0},     // negative clamps to chance
	}
	for _, c := range cases {
		if got := QualityToProb(c.q, c.ell); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("QualityToProb(%v, %d) = %v, want %v", c.q, c.ell, got, c.want)
		}
	}
}

func TestUncertaintyRoutesToUncertainTask(t *testing.T) {
	src := newFakeSource(3, 2)
	src.post = [][]float64{{0.99, 0.01}, {0.5, 0.5}, {0.9, 0.1}}
	src.preload(3, 2, 3) // the load backing each row's confidence
	src.quality[7] = 0.8
	l := mustLedger(t, src, Config{Policy: Uncertainty{}, Redundancy: 5})
	lease, err := l.Assign(7)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Task != 1 {
		t.Errorf("uncertainty assigned task %d, want the 0.5/0.5 task 1", lease.Task)
	}
}

func TestLeastAnsweredBalances(t *testing.T) {
	src := newFakeSource(3, 2)
	src.preload(2, 0, 1)
	l := mustLedger(t, src, Config{Policy: LeastAnswered{}, Redundancy: 5})
	lease, err := l.Assign(0)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Task != 1 {
		t.Errorf("least-answered assigned task %d, want the empty task 1", lease.Task)
	}
	// The outstanding lease counts as load: task 1 and 2 now tie at load
	// 1, and ties go to the lowest id.
	lease2, err := l.Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	if lease2.Task != 1 {
		t.Errorf("second assignment got task %d, want 1 (tie at load 1, lowest id wins)", lease2.Task)
	}
	// With both leases outstanding the load is [2,2,1]: the next worker
	// lands on task 2 — outstanding leases really do count.
	lease3, err := l.Assign(2)
	if err != nil {
		t.Fatal(err)
	}
	if lease3.Task != 2 {
		t.Errorf("third assignment got task %d, want 2 (leases count as load)", lease3.Task)
	}
}

func TestRandomIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []int {
		src := newFakeSource(20, 2)
		l := mustLedger(t, src, Config{Policy: Random{}, Redundancy: 1, Seed: seed})
		var tasks []int
		for w := 0; w < 10; w++ {
			lease, err := l.Assign(w)
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, lease.Task)
		}
		return tasks
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: %v vs %v", i, a, b)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 issued identical sequences (hash not seed-dependent?)")
	}
}

func TestSelfExclusion(t *testing.T) {
	src := newFakeSource(2, 2)
	l := mustLedger(t, src, Config{Policy: LeastAnswered{}, Redundancy: 10})
	seenTasks := map[int]bool{}
	for i := 0; i < 2; i++ {
		lease, err := l.Assign(5)
		if err != nil {
			t.Fatal(err)
		}
		if seenTasks[lease.Task] {
			t.Fatalf("worker 5 assigned task %d twice", lease.Task)
		}
		seenTasks[lease.Task] = true
	}
	if _, err := l.Assign(5); !errors.Is(err, ErrNoTask) {
		t.Fatalf("third assignment for worker 5 = %v, want ErrNoTask", err)
	}
	// A different worker still gets tasks.
	if _, err := l.Assign(6); err != nil {
		t.Fatalf("worker 6 blocked: %v", err)
	}
}

func TestRedundancyCap(t *testing.T) {
	src := newFakeSource(1, 2)
	src.preload(1) // one answer already collected out of band
	l := mustLedger(t, src, Config{Policy: LeastAnswered{}, Redundancy: 2})
	if _, err := l.Assign(0); err != nil {
		t.Fatal(err)
	}
	// collected(1) + outstanding(1) == cap: no worker can get the task.
	if _, err := l.Assign(1); !errors.Is(err, ErrNoTask) {
		t.Fatalf("assignment beyond the redundancy cap = %v, want ErrNoTask", err)
	}
}

func TestBudgetCountsOutstandingAndCompleted(t *testing.T) {
	src := newFakeSource(10, 2)
	l := mustLedger(t, src, Config{Policy: LeastAnswered{}, Redundancy: 5, Budget: 2})
	l1, err := l.Assign(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Assign(1); err != nil {
		t.Fatal(err)
	}
	// Two outstanding leases fully commit the budget of 2.
	if _, err := l.Assign(2); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("assignment beyond budget = %v, want ErrBudgetExhausted", err)
	}
	// Completing does not free budget — the answer is spent.
	if err := l.Complete(l1.ID, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Assign(3); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("assignment after completion = %v, want ErrBudgetExhausted", err)
	}
	st := l.Stats()
	if st.BudgetRemaining != 0 {
		t.Errorf("BudgetRemaining = %d, want 0", st.BudgetRemaining)
	}
}

func TestLeaseExpiryReclaimAndBudgetReturn(t *testing.T) {
	src := newFakeSource(1, 2)
	clock := newFakeClock()
	l := mustLedger(t, src, Config{
		Policy: LeastAnswered{}, Redundancy: 1, Budget: 1,
		LeaseTTL: time.Minute, Now: clock.Now,
	})
	lease, err := l.Assign(0)
	if err != nil {
		t.Fatal(err)
	}
	// Budget and redundancy are fully committed while the lease lives.
	if _, err := l.Assign(1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted while lease outstanding, got %v", err)
	}
	clock.Advance(time.Minute) // exactly the deadline: expired (not After)
	// The abandoned lease is reclaimed: budget returns, the task is
	// re-issuable — but not to the worker who abandoned it.
	lease2, err := l.Assign(1)
	if err != nil {
		t.Fatalf("assignment after reclaim: %v", err)
	}
	if lease2.Task != lease.Task {
		t.Errorf("reclaimed task %d re-issued as %d", lease.Task, lease2.Task)
	}
	if lease2.ID == lease.ID {
		t.Error("lease id reused after expiry")
	}
	// The original worker's late Complete must fail — the task is leased
	// to someone else and the budget cannot admit both answers.
	if err := l.Complete(lease.ID, 0, nil); !errors.Is(err, ErrLeaseNotFound) {
		t.Fatalf("late Complete on expired lease = %v, want ErrLeaseNotFound", err)
	}
	if st := l.Stats(); st.Expired != 1 {
		t.Errorf("Stats.Expired = %d, want 1", st.Expired)
	}
	// And the abandoning worker never sees the task again — even after
	// the replacement lease expires too.
	clock.Advance(2 * time.Minute)
	if _, err := l.Assign(0); !errors.Is(err, ErrNoTask) {
		t.Fatalf("abandoning worker re-assigned the task: %v", err)
	}
}

func TestCompleteValidation(t *testing.T) {
	src := newFakeSource(2, 2)
	l := mustLedger(t, src, Config{Policy: LeastAnswered{}})
	lease, err := l.Assign(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Complete(lease.ID, 4, nil); !errors.Is(err, ErrLeaseWorker) {
		t.Fatalf("Complete by wrong worker = %v, want ErrLeaseWorker", err)
	}
	if err := l.Complete(999, 3, nil); !errors.Is(err, ErrLeaseNotFound) {
		t.Fatalf("Complete of unknown lease = %v, want ErrLeaseNotFound", err)
	}
	// A failing delivery keeps the lease alive for a retry.
	boom := errors.New("store rejected the answer")
	if err := l.Complete(lease.ID, 3, func(int) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failed delivery = %v, want the delivery error", err)
	}
	if err := l.Complete(lease.ID, 3, nil); err != nil {
		t.Fatalf("retry after failed delivery: %v", err)
	}
	// Double-complete fails: the lease was consumed.
	if err := l.Complete(lease.ID, 3, nil); !errors.Is(err, ErrLeaseNotFound) {
		t.Fatalf("double Complete = %v, want ErrLeaseNotFound", err)
	}
}

func TestCacheInvalidatesOnEpochBoundary(t *testing.T) {
	src := newFakeSource(2, 2)
	src.post = [][]float64{{0.5, 0.5}, {0.99, 0.01}}
	src.quality[0] = 0.9
	src.quality[1] = 0.9
	l := mustLedger(t, src, Config{Policy: Uncertainty{}, Redundancy: 10})
	if lease, _ := l.Assign(0); lease.Task != 0 {
		t.Fatalf("assigned task %d, want the uncertain task 0", lease.Task)
	}
	// Publish a new epoch in which the OTHER task is the uncertain one.
	// Without the version-keyed cache invalidation the ledger would keep
	// scoring from the stale posterior.
	src.mu.Lock()
	src.post = [][]float64{{0.99, 0.01}, {0.5, 0.5}}
	src.resultVer++
	src.mu.Unlock()
	if lease, _ := l.Assign(1); lease.Task != 1 {
		t.Fatalf("after epoch boundary assigned task %d, want newly-uncertain task 1", lease.Task)
	}
}

func TestStoreGrowthExtendsLedger(t *testing.T) {
	src := newFakeSource(1, 2)
	l := mustLedger(t, src, Config{Policy: LeastAnswered{}, Redundancy: 1})
	if _, err := l.Assign(0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Assign(1); !errors.Is(err, ErrNoTask) {
		t.Fatalf("want ErrNoTask on a full 1-task store, got %v", err)
	}
	// The store grows (a new task is posted): the ledger picks it up on
	// the next request via the store-version sync.
	src.mu.Lock()
	src.tasks = 2
	src.storeVer++
	src.mu.Unlock()
	lease, err := l.Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Task != 1 {
		t.Errorf("assigned task %d, want the new task 1", lease.Task)
	}
}

func TestStatsShape(t *testing.T) {
	src := newFakeSource(4, 2)
	src.post = [][]float64{{0.5, 0.5}, {0.5, 0.5}, {1, 0}, {1, 0}}
	l := mustLedger(t, src, Config{Policy: Uncertainty{}, Redundancy: 2, Budget: 10, LeaseTTL: time.Second})
	if _, err := l.Assign(0); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Policy != "uncertainty" || st.Redundancy != 2 || st.Budget != 10 {
		t.Errorf("config fields wrong: %+v", st)
	}
	if st.Outstanding != 1 || st.Issued != 1 || st.Completed != 0 {
		t.Errorf("lease accounting wrong: %+v", st)
	}
	if st.BudgetRemaining != 9 {
		t.Errorf("BudgetRemaining = %d, want 9", st.BudgetRemaining)
	}
	if st.EligibleTasks != 4 {
		t.Errorf("EligibleTasks = %d, want 4 (one lease on a cap-2 task)", st.EligibleTasks)
	}
	// Two uniform rows (ln 2 each) + two settled rows (0) → mean ln2/2.
	if want := math.Log(2) / 2; math.Abs(st.MeanEntropy-want) > 1e-12 {
		t.Errorf("MeanEntropy = %v, want %v", st.MeanEntropy, want)
	}
}

func TestNoPosteriorFallsBackToLeastAnswered(t *testing.T) {
	src := newFakeSource(3, 2)
	src.postErr = errors.New("no result yet")
	src.preload(2, 0, 1)
	l := mustLedger(t, src, Config{Policy: Uncertainty{}, Redundancy: 5})
	lease, err := l.Assign(0)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Task != 1 {
		t.Errorf("cold-start uncertainty assigned task %d, want least-answered task 1", lease.Task)
	}
}

// TestSelfExclusionSeededFromExistingAnswers pins the recovery/preload
// contract: a worker whose answer is already in the store (ingested out
// of band, or recovered from a WAL after a restart) is never assigned
// that task, even though this ledger instance never leased it.
func TestSelfExclusionSeededFromExistingAnswers(t *testing.T) {
	src := newFakeSource(2, 2)
	src.addAnswer(0, 5, 1)
	src.addAnswer(1, 5, 1)
	src.addAnswer(0, 6, 1)
	l := mustLedger(t, src, Config{Policy: LeastAnswered{}, Redundancy: 10})
	// Worker 5 answered both tasks before this ledger existed.
	if _, err := l.Assign(5); !errors.Is(err, ErrNoTask) {
		t.Fatalf("worker 5 re-assigned a task it already answered: %v", err)
	}
	// Worker 6 answered only task 0: it must get task 1.
	lease, err := l.Assign(6)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Task != 1 {
		t.Fatalf("worker 6 assigned task %d, want 1 (it already answered 0)", lease.Task)
	}
	// A fresh worker sees everything.
	if _, err := l.Assign(7); err != nil {
		t.Fatal(err)
	}
}

func TestAssignRejectsNegativeWorker(t *testing.T) {
	l := mustLedger(t, newFakeSource(1, 2), Config{Policy: Random{}})
	if _, err := l.Assign(-1); err == nil {
		t.Fatal("negative worker id accepted")
	}
}

// TestLedgerDeterministicReplay pins the determinism contract the
// closed-loop simulation tests rely on: same seed, same request
// sequence, same source state → identical leases, for every policy.
func TestLedgerDeterministicReplay(t *testing.T) {
	for name := range policies {
		t.Run(name, func(t *testing.T) {
			run := func() []Lease {
				src := newFakeSource(30, 2)
				src.post = make([][]float64, 30)
				for i := range src.post {
					p := 0.5 + float64(i%7)/16
					src.post[i] = []float64{p, 1 - p}
				}
				pol, err := ParsePolicy(name)
				if err != nil {
					t.Fatal(err)
				}
				clock := newFakeClock()
				l := mustLedger(t, src, Config{Policy: pol, Redundancy: 2, Seed: 11, Now: clock.Now})
				var leases []Lease
				for i := 0; i < 40; i++ {
					w := i % 8
					lease, err := l.Assign(w)
					if err != nil {
						continue
					}
					leases = append(leases, lease)
					if i%3 == 0 {
						if err := l.Complete(lease.ID, w, func(task int) error {
							src.addAnswer(task, w, 1)
							return nil
						}); err != nil {
							t.Fatal(err)
						}
					}
					clock.Advance(time.Second)
				}
				return leases
			}
			a, b := run(), run()
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("replay diverged:\n%v\n%v", a, b)
			}
		})
	}
}
