package query_test

import (
	"testing"

	"truthinference/internal/assign"
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
