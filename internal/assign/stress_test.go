package assign

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"truthinference/internal/dataset"
)

// TestLeaseExpiryReclaimRace is the -race stress test for the ledger's
// expiry/reclaim machinery: many workers assign and complete against a
// tiny real-clock TTL while the source keeps publishing new epochs and
// answer counts, so reclaims, completions and cache re-syncs constantly
// interleave. The CI race job runs it under -race; the final accounting
// invariants catch lost or double-counted leases even without a data
// race.
func TestLeaseExpiryReclaimRace(t *testing.T) {
	const (
		tasks      = 64
		workers    = 16
		iters      = 300
		redundancy = 4
	)
	src := newFakeSource(tasks, 2)
	src.post = make([][]float64, tasks)
	for i := range src.post {
		src.post[i] = []float64{0.5, 0.5}
	}
	l, err := NewLedger(src, Config{
		Policy:     Uncertainty{},
		Redundancy: redundancy,
		LeaseTTL:   200 * time.Microsecond, // so short that reclaims race completions
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}

	var delivered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				lease, err := l.Assign(w)
				if err != nil {
					if errors.Is(err, ErrNoTask) {
						continue
					}
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if i%4 == 0 {
					// Abandon: let the lease expire and be reclaimed.
					continue
				}
				if i%8 == 1 {
					time.Sleep(300 * time.Microsecond) // usually past the TTL
				}
				err = l.Complete(lease.ID, w, func(task int) error {
					delivered.Add(1)
					src.addAnswer(task, w, 1)
					return nil
				})
				// Expired-underneath-us is expected; anything else is a bug.
				if err != nil && !errors.Is(err, ErrLeaseNotFound) {
					t.Errorf("worker %d complete: %v", w, err)
					return
				}
				if err != nil {
					// The delivery ran but the lease had expired? Complete
					// reclaims BEFORE delivering, so a failed Complete must
					// not have delivered — delivered is re-checked at the end
					// against the ledger's own count.
					_ = err
				}
			}
		}(w)
	}
	// A background epoch publisher keeps invalidating the score cache.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			src.mu.Lock()
			src.resultVer++
			src.mu.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)

	// Drain every remaining lease by letting it expire.
	time.Sleep(2 * time.Millisecond)
	st := l.Stats()
	if st.Outstanding != 0 {
		t.Fatalf("leases still outstanding after drain: %+v", st)
	}
	if st.Issued != st.Completed+st.Expired {
		t.Fatalf("lease accounting does not balance: issued %d != completed %d + expired %d",
			st.Issued, st.Completed, st.Expired)
	}
	if got := uint64(delivered.Load()); got != st.Completed {
		t.Fatalf("delivered %d answers but ledger counted %d completions", got, st.Completed)
	}
	// Self-exclusion held under the race: no worker answered a task twice.
	src.mu.Lock()
	defer src.mu.Unlock()
	answered := map[dataset.Answer]bool{}
	for _, a := range src.log {
		if answered[a] {
			t.Fatalf("worker %d answered task %d twice", a.Worker, a.Task)
		}
		answered[a] = true
	}
}
