package assign

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/methods/direct"
	"truthinference/internal/methods/ds"
	"truthinference/internal/stream"
)

// plainWinnerLocked is the task a ledger without a score cache would
// lease to worker on the synced state: one Policy.Score pass over every
// task under the redundancy cap that the worker has not seen, ties to
// the lowest id; -1 when no task is eligible. Under a Cacheable policy
// it also checks that every score the cache holds as current equals a
// fresh Score.
func (l *Ledger) plainWinnerLocked(tb testing.TB, worker int) int {
	tb.Helper()
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
	cached := *req
	cached.Quality = l.cacheQ
	for t, e := range l.cache {
		if e.gen != l.cacheGen || !l.cfg.Policy.Cacheable() {
			continue
		}
		if s := l.cfg.Policy.Score(&cached, t); math.Float64bits(s) != math.Float64bits(e.score) {
			tb.Fatalf("task %d: cached score %v, a fresh Score gives %v (load %d)", t, e.score, s, l.load[t])
		}
	}
	seen := map[int]bool{}
	for _, t := range l.seen[worker] {
		seen[t] = true
	}
	best, bestScore := -1, 0.0
	for t, load := range l.load {
		if load >= l.cfg.Redundancy || seen[t] {
			continue
		}
		if s := l.cfg.Policy.Score(req, t); best == -1 || s > bestScore {
			best, bestScore = t, s
		}
	}
	return best
}

// checkedAssign syncs the ledger, takes the plain winner for worker and
// fails unless Assign leases that task, or reports ErrNoTask when there
// is none. It reports whether a lease was issued.
func checkedAssign(tb testing.TB, l *Ledger, worker int) (Lease, bool) {
	tb.Helper()
	l.mu.Lock()
	l.reclaimLocked(l.now())
	l.syncLocked()
	want := l.plainWinnerLocked(tb, worker)
	l.mu.Unlock()
	lease, err := l.Assign(worker)
	switch {
	case want == -1 && errors.Is(err, ErrNoTask):
		return Lease{}, false
	case err != nil:
		tb.Fatalf("worker %d: Assign: %v (a plain pass picks task %d)", worker, err, want)
	case lease.Task != want:
		tb.Fatalf("worker %d leased task %d, a plain Score pass picks %d", worker, lease.Task, want)
	}
	return lease, true
}

// cacheCrowd is the differential test's crowd: workers 0–2 are a ring
// whose identical preloaded answers get them flagged as colluders and
// down-weighted, 3–7 answer the hidden truth 90% of the time, and 8–11
// answer at random (D&S's quality floor down-weights them after two
// epochs).
const cacheCrowd = 12

// cacheAnswer is worker's answer on task under the crowd's profiles.
func cacheAnswer(rng *rand.Rand, truth []int, task, worker, ell int) float64 {
	if worker >= 3 && worker < 8 && rng.Float64() < 0.9 {
		return float64(truth[task])
	}
	return float64(rng.Intn(ell))
}

// TestScoreCacheMatchesFullPass drives seeded operations through ledgers
// over real MV and D&S services and checks, before every Assign, that
// the lease equals the winner of a plain Policy.Score pass over the
// synced state, that every cached score equals a fresh Score, and that
// the posterior the ledger follows by delta reads equals a full copy bit
// for bit. The operations mix fresh workers (the prior), known workers
// (the method's estimate; on MV every one maps to the same
// probability-correct) and down-weighted ones (chance), completes (some
// with no answer reaching the store, so only the lease's load moves),
// leases left to expire on a fake clock, direct ingest that adds tasks,
// and epochs.
func TestScoreCacheMatchesFullPass(t *testing.T) {
	const ell, ops = 3, 1000
	for _, method := range []core.Method{direct.NewMV(), ds.New()} {
		for _, name := range PolicyNames() {
			t.Run(method.Name()+"/"+name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name) + 7*len(method.Name()))))
				store, err := stream.NewStoreN("cache", dataset.SingleChoice, ell, 2)
				if err != nil {
					t.Fatal(err)
				}
				svc, err := stream.NewService(store, stream.Config{Method: method, Options: core.Options{Seed: 5}})
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				truth := make([]int, 40)
				for i := range truth {
					truth[i] = rng.Intn(ell)
				}
				preload := stream.Batch{NumTasks: len(truth), NumWorkers: cacheCrowd}
				for task := 0; task < 10; task++ {
					for w := 0; w < 3; w++ {
						preload.Answers = append(preload.Answers, dataset.Answer{Task: task, Worker: w, Value: float64(task % ell)})
					}
				}
				if _, err := svc.Ingest(preload); err != nil {
					t.Fatal(err)
				}
				clock := newFakeClock()
				pol, _ := ParsePolicy(name)
				l := mustLedger(t, svc, Config{
					Policy:     pol,
					Redundancy: 6,
					LeaseTTL:   20 * time.Second,
					Seed:       3,
					Now:        clock.Now,
					Defense: &DefenseSpec{
						MinQuality: 0.6, QualityMinAnswers: 3,
						CollusionThreshold: 0.9, DownWeightOnly: true,
					},
				})
				var (
					held                                []Lease
					assigned, downWeighted, epochs, dry int
				)
				assign := func(worker int) {
					if st, ok := l.def.workers[worker]; ok && st.downWeighted {
						downWeighted++
					}
					if lease, ok := checkedAssign(t, l, worker); ok {
						held = append(held, lease)
						assigned++
					} else {
						dry++
					}
				}
				for op := 0; op < ops; op++ {
					clock.Advance(time.Duration(rng.Intn(2000)) * time.Millisecond)
					switch x := rng.Intn(100); {
					case x < 30: // a fresh worker: no estimate, the prior
						_, workers, _ := svc.Dims()
						assign(workers)
					case x < 60: // a known worker
						assign(rng.Intn(cacheCrowd))
					case x < 80 && len(held) > 0: // redeem a lease, now and then an expired one
						i := len(held) - 1
						if rng.Intn(4) == 0 {
							i = rng.Intn(len(held))
						}
						lease := held[i]
						held = append(held[:i], held[i+1:]...)
						value := cacheAnswer(rng, truth, lease.Task, lease.Worker, ell)
						deliver := func(task int) error {
							_, err := svc.Ingest(stream.Batch{Answers: []dataset.Answer{{Task: task, Worker: lease.Worker, Value: value}}})
							return err
						}
						if rng.Intn(2) == 0 {
							deliver = nil // redeemed without an answer reaching the store
						}
						if err := l.CompleteValue(lease.ID, lease.Worker, value, deliver); err != nil && !errors.Is(err, ErrLeaseNotFound) {
							t.Fatal(err)
						}
					case x < 92: // direct ingest, now and then onto new tasks
						var b stream.Batch
						tasks, _, _ := svc.Dims()
						if rng.Intn(4) == 0 {
							b.NumTasks = tasks + 1 + rng.Intn(3)
							for len(truth) < b.NumTasks {
								truth = append(truth, rng.Intn(ell))
							}
							tasks = b.NumTasks
						}
						for range 1 + rng.Intn(3) {
							task, w := rng.Intn(tasks), rng.Intn(cacheCrowd)
							b.Answers = append(b.Answers, dataset.Answer{Task: task, Worker: w, Value: cacheAnswer(rng, truth, task, w, ell)})
						}
						if _, err := svc.Ingest(b); err != nil {
							t.Fatal(err)
						}
					case x < 96: // an epoch
						if err := svc.Refresh(); err != nil {
							t.Fatal(err)
						}
						epochs++
					default: // every lease held now expires
						clock.Advance(l.cfg.LeaseTTL)
					}
					l.mu.Lock()
					post, v := l.post, l.postVer
					l.mu.Unlock()
					if full, fv, err := svc.Posteriors(nil, 0, nil); err == nil && post != nil && fv == v {
						checkRowsEqual(t, fmt.Sprintf("op %d", op), post, full)
					}
				}
				st := l.Stats()
				t.Logf("%d leases (%d to down-weighted workers), %d without a task, %d completed, %d expired, %d epochs",
					assigned, downWeighted, dry, st.Completed, st.Expired, epochs)
				if assigned < ops/4 || downWeighted == 0 || st.Completed == 0 || st.Expired == 0 {
					t.Fatalf("the operations missed a path the cache depends on: %+v", st)
				}
			})
		}
	}
}

// TestScoreCacheFollowsPosteriorAvailability covers what the real
// services never do: a posterior that vanishes, and one that reappears
// covering fewer tasks than the store holds, so the tasks past its end
// switch from least-answered scores to the uniform row's.
func TestScoreCacheFollowsPosteriorAvailability(t *testing.T) {
	const tasks, ell = 30, 3
	rng := rand.New(rand.NewSource(11))
	src := newFakeSource(tasks, ell)
	src.postErr = errors.New("no posterior yet")
	src.quality[0], src.quality[1] = 0.9, 0.8
	l := mustLedger(t, src, Config{Policy: Uncertainty{}, Redundancy: 4, LeaseTTL: time.Hour})
	for op := 0; op < 400; op++ {
		src.mu.Lock()
		switch rng.Intn(4) {
		case 0:
			src.postErr = errors.New("no posterior")
		case 1:
			src.postErr = nil
			src.post = make([][]float64, rng.Intn(tasks))
			for i := range src.post {
				row := make([]float64, ell)
				row[rng.Intn(ell)] = 1
				src.post[i] = row
			}
		}
		src.resultVer++
		src.mu.Unlock()
		if lease, ok := checkedAssign(t, l, rng.Intn(2+op/40)); ok && rng.Intn(2) == 0 {
			if err := l.Complete(lease.ID, lease.Worker, nil); err != nil {
				t.Fatal(err)
			}
			src.addAnswer(lease.Task, lease.Worker, 0)
		}
	}
}

// checkRowsEqual fails unless got and want, two flat posterior copies,
// hold the same rows bit for bit.
func checkRowsEqual(tb testing.TB, at string, got, want []float64) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d posterior values, a full copy has %d", at, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			tb.Fatalf("%s: posterior value %d is %v, a full copy has %v", at, i, got[i], want[i])
		}
	}
}
