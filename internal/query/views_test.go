package query_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"truthinference/internal/api"
	"truthinference/internal/assign"
	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/methods/direct"
	"truthinference/internal/methods/ds"
	"truthinference/internal/query"
	"truthinference/internal/simulate"
	"truthinference/internal/stream"
	"truthinference/internal/testutil"
)

// dProductService serves MV over D_Product at scale 1.0 (8,315 tasks,
// 24,945 answers), with an uncertainty ledger beside it: the tenant the
// serve-mix benchmark workload queries.
func dProductService(tb testing.TB) (*stream.Service, *assign.Ledger) {
	return dProductServiceOf(tb, direct.NewMV())
}

// dProductServiceOf serves method over D_Product at scale 1.0 after one
// epoch, with an uncertainty ledger beside it.
func dProductServiceOf(tb testing.TB, method core.Method) (*stream.Service, *assign.Ledger) {
	tb.Helper()
	d := simulate.Generate(simulate.DProduct, 1)
	svc, err := stream.NewService(stream.NewStoreAt(d, 1), stream.Config{Method: method})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { svc.Close() })
	if err := svc.Refresh(); err != nil {
		tb.Fatal(err)
	}
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

// TestViewsAreSavedPlans posts each canned view's saved plan as a raw
// plan and requires the view's own response: the same columns and the
// same rows in the same order. It runs over the golden fixture, where
// every view has a row, and over D&S on D_Product, where the
// disagreement view has hundreds.
func TestViewsAreSavedPlans(t *testing.T) {
	led := &fakeLedger{
		stats:    assign.Stats{Budget: 100, BudgetRemaining: 40, Outstanding: 10, Completed: 50},
		suspects: []assign.Suspect{{Worker: 0, Qualified: true}, {Worker: 1, Banned: true, BanReason: "golden", GoldenFailed: 2}},
	}
	dsSvc, dsLed := dProductServiceOf(t, ds.New())
	for _, tc := range []struct {
		name string
		src  query.Source
		led  query.Ledger
	}{{"golden", golden(), led}, {"D&S on D_Product", dsSvc, dsLed}} {
		srv := queryServer(t, tc.src, tc.led)
		for _, view := range query.ViewNames {
			get := func(body string) api.QueryResponse {
				t.Helper()
				resp, data := postQuery(t, srv, body)
				var out api.QueryResponse
				if err := json.Unmarshal(data, &out); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("%s, %s: HTTP %d, %v: %s", tc.name, body, resp.StatusCode, err, data)
				}
				return out
			}
			want := get(fmt.Sprintf(`{"view":%q,"limit":%d}`, view, query.MaxLimit))
			got := get(fmt.Sprintf(`{"plan":%s,"limit":%d}`, query.ViewPlans[view], query.MaxLimit))
			if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("%s: the saved plan of %s returned %v with %d rows, the view %v with %d",
					tc.name, view, got.Cols, len(got.Rows), want.Cols, len(want.Rows))
			}
			if len(want.Rows) == 0 && tc.name == "golden" {
				t.Errorf("%s: the view %s returned no rows to compare", tc.name, view)
			}
			t.Logf("%s: %s: %d rows", tc.name, view, len(want.Rows))
		}
	}
}

// TestDisagreementViewAllocations pins the cost of the query plane's
// busiest view. Its operators each write their rows into one buffer of
// their own, its join indexes the stored build rows in one flat table
// sized once, and its majority vote counts into blocks that are never
// regrown, so a query over the real MV service on D_Product makes a
// bounded number of allocations instead of several per task and per
// answer, and allocates under 1 MiB: the posterior copy, the vote
// counts, the stored build rows and the table. The race runtime changes
// allocator behaviour, so the test skips under -race.
func TestDisagreementViewAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxAllocs, maxBytes, runs = 1000, 1 << 20, 5
	svc, led := dProductService(t)
	allocs := testing.AllocsPerRun(runs, func() { runView(t, svc, led, query.ViewDisagreement) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runView(t, svc, led, query.ViewDisagreement)
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocations and %d bytes per disagreement query", allocs, perQuery)
	if allocs >= maxAllocs {
		t.Errorf("disagreement query made %.0f allocations, want fewer than %d", allocs, maxAllocs)
	}
	if perQuery >= maxBytes {
		t.Errorf("disagreement query allocated %d bytes, want under %d", perQuery, maxBytes)
	}
}

// TestGroupAggregateAllocationsFollowGroups pins what a count-by-worker
// aggregate over the D_Product service allocates. Each input row's group
// key is built in one reused buffer, so the aggregate allocates per
// group (176 workers), not per answer (24,945). The race runtime changes
// allocator behaviour, so the test skips under -race.
func TestGroupAggregateAllocationsFollowGroups(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxPerGroup = 16
	svc, led := dProductService(t)
	groups := 0
	allocs := testing.AllocsPerRun(5, func() {
		c := query.NewCatalog(svc, led)
		rel := mustCompile(t, c, `{"op":"aggregate","by":["worker"],"aggs":[{"op":"count","as":"n"}],"input":{"op":"scan","relation":"answers"}}`)
		rows, _ := query.Collect(rel, -1)
		groups = len(rows)
	})
	if groups != dProductWorkers {
		t.Fatalf("aggregate returned %d groups, want %d", groups, dProductWorkers)
	}
	t.Logf("%.0f allocations for %d groups", allocs, groups)
	if allocs >= maxPerGroup*dProductWorkers {
		t.Errorf("count-by-worker aggregate made %.0f allocations, want fewer than %d per group (%d)",
			allocs, maxPerGroup, maxPerGroup*dProductWorkers)
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
	assignRound(tb, svc, led, i, 100000+i)
}

// knownRound is ledgerRound with the lease assigned to a worker of
// D_Product, a different one each round.
func knownRound(tb testing.TB, svc *stream.Service, led *assign.Ledger, i int) {
	assignRound(tb, svc, led, i, i%dProductWorkers)
}

// dProductWorkers is D_Product's worker count at scale 1.0.
const dProductWorkers = 176

// assignRound ingests a single answer, then assigns worker a lease and
// completes it.
func assignRound(tb testing.TB, svc *stream.Service, led *assign.Ledger, i, w int) {
	tasks, _, _ := svc.Dims()
	if _, err := svc.Ingest(stream.Batch{Answers: []dataset.Answer{
		{Task: i * 7919 % tasks, Worker: 1000 + i%64, Value: float64(i % 2)},
	}}); err != nil {
		tb.Fatal(err)
	}
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
// single-answer ingest plus the spend-vs-budget view. Both request from
// fresh workers at the prior, so every Assign after the first reads the
// ledger's cached scores. The D&S round requests from D_Product's own
// workers, each with its own quality estimate, so every Assign misses the
// cache and scores every task.
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
	b.Run("ds-known-worker", func(b *testing.B) {
		svc, led := dProductServiceOf(b, ds.New())
		for w := 0; w < dProductWorkers; w++ {
			q, err := svc.WorkerQuality(w)
			next, nerr := svc.WorkerQuality((w + 1) % dProductWorkers)
			if err != nil || nerr != nil || q == next {
				b.Fatalf("workers %d and %d: qualities %v, %v (%v, %v); each round must miss the score cache",
					w, (w+1)%dProductWorkers, q, next, err, nerr)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			knownRound(b, svc, led, i)
		}
	})
}
