package assign_test

import (
	"errors"
	"math"
	"testing"

	"truthinference/internal/assign"
	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/methods/direct"
	"truthinference/internal/methods/ds"
	"truthinference/internal/stream"
)

// newService serves method over an empty decision store.
func newService(t *testing.T, method core.Method) *stream.Service {
	t.Helper()
	store, err := stream.NewStoreN("ledger", dataset.Decision, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := stream.NewService(store, stream.Config{Method: method, Options: core.Options{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func ingest(t *testing.T, svc *stream.Service, answers ...dataset.Answer) {
	t.Helper()
	if _, err := svc.Ingest(stream.Batch{Answers: answers}); err != nil {
		t.Fatal(err)
	}
}

// TestSelfExclusionFollowsDirectIngest pins that answers ingested
// directly after the ledger was built exclude their workers, as a client
// preloading through ingest-batch after project creation does: the
// ledger follows the store's answer delta, not only the answers it found
// at construction.
func TestSelfExclusionFollowsDirectIngest(t *testing.T) {
	svc := newService(t, direct.NewMV())
	if _, err := svc.Ingest(stream.Batch{NumTasks: 2, NumWorkers: 3}); err != nil {
		t.Fatal(err)
	}
	l, err := assign.NewLedger(svc, assign.Config{Policy: assign.LeastAnswered{}, Redundancy: 10})
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, svc,
		dataset.Answer{Task: 0, Worker: 0, Value: 1},
		dataset.Answer{Task: 1, Worker: 0, Value: 0},
	)
	ingest(t, svc, dataset.Answer{Task: 0, Worker: 1, Value: 1})
	// Worker 0 answered both tasks after the ledger was built.
	if lease, err := l.Assign(0); !errors.Is(err, assign.ErrNoTask) {
		t.Fatalf("worker 0 leased %+v after answering every task directly (err %v)", lease, err)
	}
	// Worker 1 answered only task 0.
	lease, err := l.Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Task != 1 {
		t.Fatalf("worker 1 leased task %d, want 1 (it already answered 0)", lease.Task)
	}
	// The direct answers also count toward redundancy: task 0 holds two
	// answers and task 1 one answer plus worker 1's lease.
	if st := l.Stats(); st.EligibleTasks != 2 || st.Outstanding != 1 {
		t.Fatalf("stats %+v, want 2 eligible tasks and 1 outstanding lease", st)
	}
	lease, err = l.Assign(2)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Task != 0 {
		t.Fatalf("worker 2 leased task %d, want 0 (load 2 against task 1's 2, lowest id)", lease.Task)
	}
}

// TestMeanEntropyBitIdentical pins Stats().MeanEntropy, which the ledger
// sums from per-task entropies it recomputes only for changed posterior
// rows, to the mean of mathx.Entropy over a fresh copy of the posterior
// taken in task order: equal bit for bit, after every ingest and epoch,
// for the incremental MV and the iterative D&S.
func TestMeanEntropyBitIdentical(t *testing.T) {
	for _, method := range []core.Method{direct.NewMV(), ds.New()} {
		t.Run(method.Name(), func(t *testing.T) {
			svc := newService(t, method)
			if _, err := svc.Ingest(stream.Batch{NumTasks: 20, NumWorkers: 6}); err != nil {
				t.Fatal(err)
			}
			l, err := assign.NewLedger(svc, assign.Config{Policy: assign.Uncertainty{}, Redundancy: 4})
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 40; round++ {
				w := round % 6
				ingest(t, svc, dataset.Answer{Task: round * 7 % 23, Worker: w, Value: float64(round % 3 % 2)})
				if lease, err := l.Assign(w); err == nil {
					if err := l.Complete(lease.ID, w, func(task int) error {
						_, err := svc.Ingest(stream.Batch{Answers: []dataset.Answer{{Task: task, Worker: w, Value: 1}}})
						return err
					}); err != nil {
						t.Fatal(err)
					}
				}
				if round%5 == 4 {
					if err := svc.Refresh(); err != nil {
						t.Fatal(err)
					}
				}
				got := l.Stats().MeanEntropy
				post, _, err := svc.Posteriors(nil, 0, nil)
				if err != nil {
					if got != 0 {
						t.Fatalf("round %d: MeanEntropy %v without a posterior (%v)", round, got, err)
					}
					continue
				}
				var want float64
				ell := svc.NumChoices()
				for lo := 0; lo < len(post); lo += ell {
					want += mathx.Entropy(post[lo : lo+ell])
				}
				want /= float64(len(post) / ell)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("round %d: MeanEntropy %v (%#x), want %v (%#x)",
						round, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		})
	}
}
