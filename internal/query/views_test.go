package query_test

import (
	"runtime"
	"testing"

	"truthinference/internal/assign"
	"truthinference/internal/dataset"
	"truthinference/internal/methods/direct"
	"truthinference/internal/query"
	"truthinference/internal/simulate"
	"truthinference/internal/stream"
	"truthinference/internal/testutil"
)

// dProductService serves MV over D_Product at scale 1.0 (8,315 tasks,
// 24,945 answers), with an uncertainty ledger beside it: the tenant the
// serve-mix benchmark workload queries.
func dProductService(tb testing.TB) (*stream.Service, *assign.Ledger) {
	tb.Helper()
	d := simulate.Generate(simulate.DProduct, 1)
	svc, err := stream.NewService(stream.NewStoreAt(d, 1, stream.DefaultShards), stream.Config{Method: direct.NewMV()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { svc.Close() })
	led, err := assign.NewLedger(svc, assign.Config{Policy: assign.Uncertainty{}, Redundancy: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	return svc, led
}

// runView compiles and collects one canned view the way the HTTP handler
// does, failing on any error.
func runView(tb testing.TB, svc *stream.Service, led *assign.Ledger, view string) []query.Row {
	c := query.NewCatalog(svc, led)
	rel, err := query.View(c, view)
	if err != nil {
		tb.Fatal(err)
	}
	rows, _ := query.Collect(rel, query.DefaultLimit)
	if err := c.Err(); err != nil {
		tb.Fatal(err)
	}
	return rows
}

// TestDisagreementViewAllocations pins the cost of the query plane's
// busiest view. Its join keys are key-column bits, its rows are carved
// from shared slabs and its majority vote counts into one flat array, so
// a query over the real MV service on D_Product makes a bounded number
// of allocations instead of several per task and per answer. The race
// runtime changes allocator behaviour, so the test skips under -race.
func TestDisagreementViewAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxAllocs = 1000
	svc, led := dProductService(t)
	allocs := testing.AllocsPerRun(5, func() { runView(t, svc, led, query.ViewDisagreement) })
	t.Logf("%.0f allocations per disagreement query", allocs)
	if allocs >= maxAllocs {
		t.Errorf("disagreement query made %.0f allocations, want fewer than %d", allocs, maxAllocs)
	}
}

// BenchmarkViews runs each canned view over the same D_Product service,
// compiled and collected as the HTTP handler does.
func BenchmarkViews(b *testing.B) {
	svc, led := dProductService(b)
	for _, view := range query.ViewNames {
		b.Run(view, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runView(b, svc, led, view)
			}
		})
	}
}

// ledgerRound is one round of the assignment plane over the D_Product
// service: a single answer ingested directly, then a lease assigned to a
// fresh worker and completed. On MV the ingest moves both the store and
// the result version, so every round's Assign syncs the ledger.
func ledgerRound(tb testing.TB, svc *stream.Service, led *assign.Ledger, i int) {
	tasks, _, _ := svc.Dims()
	if _, err := svc.Ingest(stream.Batch{Answers: []dataset.Answer{
		{Task: i * 7919 % tasks, Worker: 1000 + i%64, Value: float64(i % 2)},
	}}); err != nil {
		tb.Fatal(err)
	}
	w := 100000 + i
	lease, err := led.Assign(w)
	if err != nil {
		tb.Fatal(err)
	}
	if err := led.Complete(lease.ID, w, nil); err != nil {
		tb.Fatal(err)
	}
}

// spendRound is a single-answer ingest followed by the spend-vs-budget
// view, which syncs the ledger through Stats.
func spendRound(tb testing.TB, svc *stream.Service, led *assign.Ledger, i int) {
	tasks, _, _ := svc.Dims()
	if _, err := svc.Ingest(stream.Batch{Answers: []dataset.Answer{
		{Task: i * 7919 % tasks, Worker: 2000 + i%64, Value: float64(i % 2)},
	}}); err != nil {
		tb.Fatal(err)
	}
	runView(tb, svc, led, query.ViewSpendVsBudget)
}

// TestLedgerSyncAllocations pins the bytes the ledger allocates to follow
// the store. It follows the answer delta, copies posteriors into buffers
// it reuses and scores against a reused load slice, so a round over MV
// on D_Product allocates a few KiB rather than a copy of every count and
// posterior row. The race runtime changes allocator behaviour, so the
// test skips under -race.
func TestLedgerSyncAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const rounds, maxBytes = 100, 16 << 10
	svc, led := dProductService(t)
	for _, tc := range []struct {
		name  string
		round func(testing.TB, *stream.Service, *assign.Ledger, int)
	}{
		{"ingest+assign+complete", ledgerRound},
		{"ingest+spend-vs-budget", spendRound},
	} {
		tc.round(t, svc, led, 0) // warm the ledger's buffers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= rounds; i++ {
			tc.round(t, svc, led, i)
		}
		runtime.ReadMemStats(&after)
		perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
		t.Logf("%s: %d bytes per round", tc.name, perRound)
		if perRound >= maxBytes {
			t.Errorf("%s allocated %d bytes per round, want under %d", tc.name, perRound, maxBytes)
		}
	}
}

// BenchmarkLedger times the two rounds TestLedgerSyncAllocations
// measures: a single-answer ingest plus Assign plus Complete, and a
// single-answer ingest plus the spend-vs-budget view.
func BenchmarkLedger(b *testing.B) {
	svc, led := dProductService(b)
	b.Run("ingest-assign-complete", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ledgerRound(b, svc, led, i)
		}
	})
	b.Run("ingest-spend-vs-budget", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spendRound(b, svc, led, i)
		}
	})
}
