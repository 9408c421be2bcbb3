package query_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"truthinference/internal/api"
	"truthinference/internal/assign"
	"truthinference/internal/dataset"
	"truthinference/internal/methods/direct"
	"truthinference/internal/query"
	"truthinference/internal/stream"
)

// newMVService wraps a real store in an MV serving service — the
// structural query.Source the production wiring hands the catalog.
func newMVService(t *testing.T, store *stream.Store) *stream.Service {
	t.Helper()
	svc, err := stream.NewService(store, stream.Config{Method: direct.NewMV()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// fakeSource is a deterministic query.Source with a fixed answer log and
// hand-set model surfaces — the golden fixture the operator and view
// tests assert exact rows against.
type fakeSource struct {
	answers   []dataset.Answer
	pinAt     int // Pin reports this count (defaults to len(answers))
	choices   int
	post      [][]float64
	postErr   error
	cur, prev []float64
	wqErr     error
	version   uint64
}

func (f *fakeSource) Pin() (uint64, []dataset.Answer) {
	n := f.pinAt
	if n == 0 {
		n = len(f.answers)
	}
	return f.version, f.answers[:n:n]
}
func (f *fakeSource) NumChoices() int { return f.choices }
func (f *fakeSource) Posteriors([][]float64, uint64, func(int)) ([][]float64, uint64, error) {
	if f.postErr != nil {
		return nil, 0, f.postErr
	}
	return f.post, f.version, nil
}
func (f *fakeSource) Entropies() ([]float64, uint64, error) {
	if f.postErr != nil {
		return nil, 0, f.postErr
	}
	ent := make([]float64, len(f.post))
	for i, row := range f.post {
		for _, p := range row {
			if p > 0 {
				ent[i] -= p * math.Log(p)
			}
		}
	}
	return ent, f.version, nil
}
func (f *fakeSource) WorkerQualities() (cur, prev []float64, version uint64, err error) {
	if f.wqErr != nil {
		return nil, nil, 0, f.wqErr
	}
	return f.cur, f.prev, f.version, nil
}

// fakeLedger is a fixed query.Ledger.
type fakeLedger struct {
	leases   []assign.Lease
	stats    assign.Stats
	suspects []assign.Suspect
}

func (f *fakeLedger) Leases() []assign.Lease     { return f.leases }
func (f *fakeLedger) Stats() assign.Stats        { return f.stats }
func (f *fakeLedger) Suspects() []assign.Suspect { return f.suspects }

// golden builds the shared fixture: 3 tasks × 3 workers of binary
// answers where MV and the posterior argmax disagree on task 2 only.
//
//	task 0: answers 1,1,0 → MV 1 (2/3); posterior favors 1 — agree
//	task 1: answers 0,0,0 → MV 0 (3/3); posterior favors 0 — agree
//	task 2: answers 1,1,0 → MV 1 (2/3); posterior favors 0 — DISAGREE
//	          (the model decided workers 0 and 1 are unreliable)
func golden() *fakeSource {
	return &fakeSource{
		answers: []dataset.Answer{
			{Task: 0, Worker: 0, Value: 1}, {Task: 0, Worker: 1, Value: 1}, {Task: 0, Worker: 2, Value: 0},
			{Task: 1, Worker: 0, Value: 0}, {Task: 1, Worker: 1, Value: 0}, {Task: 1, Worker: 2, Value: 0},
			{Task: 2, Worker: 0, Value: 1}, {Task: 2, Worker: 1, Value: 1}, {Task: 2, Worker: 2, Value: 0},
		},
		choices: 2,
		post:    [][]float64{{0.2, 0.8}, {0.9, 0.1}, {0.7, 0.3}},
		cur:     []float64{0.55, 0.60, 0.95},
		prev:    []float64{0.80, 0.55, 0.95},
		version: 7,
	}
}

// specials is the golden fixture plus answers from workers 3 and 4 whose
// values are the float64 key edge cases: +0 and −0 (two keys), NaNs with
// two payloads (one key), and +Inf and −Inf.
func specials() *fakeSource {
	src := golden()
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	src.answers = append(src.answers,
		dataset.Answer{Task: 0, Worker: 3, Value: 0}, dataset.Answer{Task: 1, Worker: 3, Value: math.Copysign(0, -1)},
		dataset.Answer{Task: 2, Worker: 3, Value: nan1}, dataset.Answer{Task: 0, Worker: 4, Value: nan2},
		dataset.Answer{Task: 1, Worker: 4, Value: math.Inf(1)}, dataset.Answer{Task: 2, Worker: 4, Value: math.Inf(-1)})
	return src
}

// specialAnswers scans specials' answers from workers 3 and 4, keeping
// the named columns.
func specialAnswers(cols string) string {
	return `{"op":"project","cols":` + cols + `,"input":{"op":"select","where":{"op":"ge","col":"worker","value":3},"input":{"op":"scan","relation":"answers"}}}`
}

func collectAll(t *testing.T, rel query.Relation) []query.Row {
	t.Helper()
	rows, truncated := query.Collect(rel, -1)
	if truncated {
		t.Fatal("unbounded Collect reported truncation")
	}
	return rows
}

func compileJSON(t *testing.T, c *query.Catalog, plan string) (query.Relation, error) {
	t.Helper()
	var node query.Node
	if err := json.Unmarshal([]byte(plan), &node); err != nil {
		t.Fatalf("bad test plan %s: %v", plan, err)
	}
	return query.Compile(c, &node)
}

func mustCompile(t *testing.T, c *query.Catalog, plan string) query.Relation {
	t.Helper()
	rel, err := compileJSON(t, c, plan)
	if err != nil {
		t.Fatalf("compile %s: %v", plan, err)
	}
	return rel
}

func TestScanSelectProjectLimit(t *testing.T) {
	c := query.NewCatalog(golden(), nil)
	rel := mustCompile(t, c, `{
		"op":"limit","n":2,"input":{
			"op":"project","cols":["task","worker"],"input":{
				"op":"select","where":{"op":"eq","col":"value","value":1},
				"input":{"op":"scan","relation":"answers"}}}}`)
	if got, want := fmt.Sprint(rel.Cols), "[task worker]"; got != want {
		t.Fatalf("cols = %v, want %v", got, want)
	}
	rows := collectAll(t, rel)
	want := []query.Row{{0, 0}, {0, 1}}
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
}

func TestGroupAggregate(t *testing.T) {
	c := query.NewCatalog(golden(), nil)
	// Answers per worker plus their mean value.
	rel := mustCompile(t, c, `{
		"op":"aggregate","by":["worker"],
		"aggs":[{"op":"count","as":"n"},{"op":"avg","col":"value","as":"mean"}],
		"input":{"op":"scan","relation":"answers"}}`)
	rows := collectAll(t, rel)
	want := []query.Row{{0, 3, 2.0 / 3}, {1, 3, 2.0 / 3}, {2, 3, 0}}
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	// Global aggregate over zero rows still yields exactly one row.
	c2 := query.NewCatalog(&fakeSource{choices: 2}, nil)
	rel2 := mustCompile(t, c2, `{
		"op":"aggregate","aggs":[{"op":"count","as":"n"},{"op":"min","col":"value","as":"lo"}],
		"input":{"op":"scan","relation":"answers"}}`)
	rows2 := collectAll(t, rel2)
	if fmt.Sprint(rows2) != fmt.Sprint([]query.Row{{0, -1}}) {
		t.Fatalf("empty-input aggregate = %v, want [[0 -1]]", rows2)
	}
	// Group keys compare bits with every NaN folded to one: +0 and −0 are
	// two groups, the two NaN payloads one, and ±Inf one each. Groups
	// leave sorted by <, under which ±0 and NaN tie with their
	// neighbours, so the order below is the sort's, pinned.
	c3 := query.NewCatalog(specials(), nil)
	rel3 := mustCompile(t, c3, `{"op":"aggregate","by":["value"],"aggs":[{"op":"count","as":"n"}],"input":`+specialAnswers(`["value"]`)+`}`)
	rows3 := collectAll(t, rel3)
	if got, want := fmt.Sprint(rows3), "[[0 1] [-0 1] [NaN 2] [-Inf 1] [+Inf 1]]"; got != want {
		t.Fatalf("groups over key edge cases = %v, want %v", got, want)
	}
}

func TestJoinAnswersWithWorkersAndMV(t *testing.T) {
	c := query.NewCatalog(golden(), nil)
	// A three-way join exercising the greedy orderer: workers (rank 2)
	// seeds, mv folds in via... no shared column with workers — answers
	// must bridge. The orderer joins workers⋈answers (worker), then
	// ⋈mv (task).
	rel := mustCompile(t, c, `{
		"op":"join","inputs":[
			{"op":"scan","relation":"answers"},
			{"op":"scan","relation":"mv"},
			{"op":"scan","relation":"workers"}]}`)
	rows := collectAll(t, rel)
	if len(rows) != 9 {
		t.Fatalf("join produced %d rows, want 9 (one per answer)", len(rows))
	}
	for _, col := range []string{"task", "worker", "value", "mv_label", "mv_share", "quality", "drop"} {
		found := false
		for _, c := range rel.Cols {
			if c == col {
				found = true
			}
		}
		if !found {
			t.Fatalf("join schema %v is missing %q", rel.Cols, col)
		}
	}
	// Join keys have the same equality classes as group keys: +0 and −0
	// match only themselves, the two NaN payloads match each other, and
	// ±Inf match only themselves. A probe row's matches come in build
	// order.
	c2 := query.NewCatalog(specials(), nil)
	rel2 := mustCompile(t, c2, `{"op":"join","inputs":[`+specialAnswers(`["worker","value"]`)+`,`+specialAnswers(`["task","value"]`)+`]}`)
	if got, want := fmt.Sprint(rel2.Cols), "[worker value task]"; got != want {
		t.Fatalf("join schema = %v, want %v", got, want)
	}
	rows2 := collectAll(t, rel2)
	if got, want := fmt.Sprint(rows2), "[[3 0 0] [3 -0 1] [3 NaN 2] [4 NaN 2] [3 NaN 0] [4 NaN 0] [4 +Inf 1] [4 -Inf 2]]"; got != want {
		t.Fatalf("join over key edge cases = %v, want %v", got, want)
	}
}

// bufferRel streams rows through one reused buffer, as the catalog's
// operators do, so a consumer that keeps a row without copying it sees
// the row change under it.
func bufferRel(cols []string, rows []query.Row) query.Relation {
	buf := make(query.Row, len(cols))
	i := 0
	return query.Relation{Cols: cols, Next: func() (query.Row, bool) {
		if i >= len(rows) {
			return nil, false
		}
		copy(buf, rows[i])
		i++
		return buf, true
	}}
}

// sameKeyValue is the join's key equality, written out: equal bits, with
// every NaN equal to every other NaN.
func sameKeyValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestHashJoinMatchesNestedLoop checks HashJoin against a nested-loop
// join over seeded relations with one- and two-column keys drawn from
// the float64 key edge cases (two NaN payloads, ±0, ±Inf) and negative,
// fractional and large values, with duplicate keys on both sides and
// empty sides. The join must return the reference's rows in its order,
// bit for bit. Both inputs reuse one row buffer and the rows are read
// through Collect, so a join that kept a build row, or a Collect that
// kept a row, without copying it fails too.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	pool := []float64{nan1, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), nan2, -1, 2.5, -0.75, 1, 1e300, 3}
	class := func(v float64) string {
		switch {
		case math.IsNaN(v):
			return "NaN"
		case v == 0 && math.Signbit(v):
			return "-0"
		case v == 0:
			return "+0"
		case math.IsInf(v, 0):
			return fmt.Sprint(v)
		case v < 0:
			return "negative"
		case v != math.Trunc(v):
			return "fractional"
		}
		return "integral"
	}
	covered := map[string]bool{}
	rng := rand.New(rand.NewSource(26))
	for round := 0; round < 600; round++ {
		nKeys := 1 + round%2
		on := []string{"k0", "k1"}[:nKeys]
		// Build keys follow a payload column and probe keys lead, so the
		// key columns sit at different positions on the two sides.
		bCols := append([]string{"b"}, on...)
		pCols := append(append([]string(nil), on...), "p")
		nb, np := rng.Intn(30), rng.Intn(30)
		switch round % 10 {
		case 0:
			nb = 0
		case 1:
			np = 0
		}
		distinct := 1 + rng.Intn(len(pool)) // few distinct values: many duplicate keys
		draw := func() float64 { return pool[rng.Intn(distinct)] }
		bRows := make([]query.Row, nb)
		for i := range bRows {
			bRows[i] = query.Row{float64(i) + 0.5}
			for range on {
				bRows[i] = append(bRows[i], draw())
			}
		}
		pRows := make([]query.Row, np)
		for i := range pRows {
			for range on {
				pRows[i] = append(pRows[i], draw())
			}
			pRows[i] = append(pRows[i], -float64(i))
		}

		sameKeys := func(a []float64, ai int, b []float64, bi int) bool {
			for k := range on {
				if !sameKeyValue(a[ai+k], b[bi+k]) {
					return false
				}
			}
			return true
		}
		var want []query.Row
		for _, p := range pRows {
			matches, twins := 0, 0
			for _, b := range bRows {
				if sameKeys(b, 1, p, 0) {
					matches++
					want = append(want, append(append(query.Row(nil), b...), p[nKeys]))
					for k, v := range p[:nKeys] {
						covered[class(v)] = true
						if math.Float64bits(v) != math.Float64bits(b[1+k]) {
							covered["NaNs of two payloads"] = true
						}
					}
				}
			}
			for _, q := range pRows {
				if sameKeys(q, 0, p, 0) {
					twins++
				}
			}
			if matches > 1 && twins > 1 {
				covered["duplicate keys on both sides"] = true
			}
		}

		c := query.NewCatalog(&fakeSource{}, nil)
		rel, err := c.HashJoin(bufferRel(bCols, bRows), bufferRel(pCols, pRows), on)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(rel.Cols), fmt.Sprint(append(bCols, "p")); got != want {
			t.Fatalf("round %d: cols %v, want %v", round, got, want)
		}
		got := collectAll(t, rel)
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = len(got[i]) == len(want[i])
			for j := 0; same && j < len(got[i]); j++ {
				same = math.Float64bits(got[i][j]) == math.Float64bits(want[i][j])
			}
		}
		if !same {
			t.Fatalf("round %d: join of build %v and probe %v on %v\ngot  %v\nwant %v", round, bRows, pRows, on, got, want)
		}
		if nb == 0 || np == 0 {
			covered["empty side"] = true
		}
	}
	for _, c := range []string{"NaN", "NaNs of two payloads", "+0", "-0", "+Inf", "-Inf", "negative",
		"fractional", "integral", "duplicate keys on both sides", "empty side"} {
		if !covered[c] {
			t.Errorf("no round joined on %s", c)
		}
	}
}

func TestDisagreementViewGolden(t *testing.T) {
	c := query.NewCatalog(golden(), nil)
	rel, err := query.View(c, query.ViewDisagreement)
	if err != nil {
		t.Fatal(err)
	}
	rows := collectAll(t, rel)
	if len(rows) != 1 {
		t.Fatalf("disagreement rows = %v, want exactly task 2", rows)
	}
	get := func(col string) float64 {
		for i, c := range rel.Cols {
			if c == col {
				return rows[0][i]
			}
		}
		t.Fatalf("column %q missing from %v", col, rel.Cols)
		return 0
	}
	if get("task") != 2 || get("mv_label") != 1 || get("top_label") != 0 {
		t.Fatalf("disagreement row = %v (%v), want task 2: mv 1 vs top 0", rows[0], rel.Cols)
	}
	if math.Abs(get("mv_share")-2.0/3) > 1e-12 || get("top_p") != 0.7 {
		t.Fatalf("disagreement shares = %v (%v)", rows[0], rel.Cols)
	}
	if c.StoreVersion != 7 || c.ResultVersion != 7 {
		t.Fatalf("catalog versions = (%d, %d), want (7, 7)", c.StoreVersion, c.ResultVersion)
	}
}

func TestWorkerQualityDropViewGolden(t *testing.T) {
	c := query.NewCatalog(golden(), nil)
	rel, err := query.View(c, query.ViewWorkerQualityDrop)
	if err != nil {
		t.Fatal(err)
	}
	rows := collectAll(t, rel)
	// Only worker 0 dropped (0.80 → 0.55); worker 1 rose, worker 2 held.
	want := []query.Row{{0, 0.55, 0.80, 0.25}}
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("drop rows = %v, want %v", rows, want)
	}
}

func TestSpendVsBudgetViewGolden(t *testing.T) {
	led := &fakeLedger{
		leases: []assign.Lease{{ID: 3, Task: 1, Worker: 2, Expires: time.UnixMilli(1000)}},
		stats:  assign.Stats{Budget: 100, BudgetRemaining: 40, Outstanding: 10, Completed: 50, Expired: 4},
	}
	c := query.NewCatalog(golden(), led)
	rel, err := query.View(c, query.ViewSpendVsBudget)
	if err != nil {
		t.Fatal(err)
	}
	rows := collectAll(t, rel)
	want := []query.Row{{100, 60, 40, 10, 50, 4}}
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("budget row = %v, want %v", rows, want)
	}

	// The leases relation is queryable alongside.
	c2 := query.NewCatalog(golden(), led)
	rel2 := mustCompile(t, c2, `{"op":"scan","relation":"leases"}`)
	rows2 := collectAll(t, rel2)
	if fmt.Sprint(rows2) != fmt.Sprint([]query.Row{{3, 1, 2, 1000}}) {
		t.Fatalf("lease rows = %v", rows2)
	}

	// Without a ledger both relations are structural errors.
	c3 := query.NewCatalog(golden(), nil)
	if _, err := query.View(c3, query.ViewSpendVsBudget); !errors.Is(err, query.ErrNoLedger) {
		t.Fatalf("budget without ledger: err = %v, want ErrNoLedger", err)
	}
}

func TestUnavailableSurfaces(t *testing.T) {
	src := golden()
	src.postErr = errors.New("not inferred yet")
	src.wqErr = src.postErr
	c := query.NewCatalog(src, nil)
	for _, name := range []string{"posterior", "posterior_top", "entropy", "workers"} {
		_, err := compileJSON(t, c, fmt.Sprintf(`{"op":"scan","relation":%q}`, name))
		var unavailable query.ErrUnavailable
		if !errors.As(err, &unavailable) {
			t.Fatalf("scan %s before an epoch: err = %v, want ErrUnavailable", name, err)
		}
	}
	if _, err := query.View(c, query.ViewDisagreement); err == nil {
		t.Fatal("disagreement view compiled without a posterior")
	}
}

// valueSelfJoin is an aggregate count over a natural join of two
// `project [value]` scans of the answer log.
const valueSelfJoin = `{"op":"aggregate","aggs":[{"op":"count","as":"n"}],"input":{"op":"join","inputs":[` +
	`{"op":"project","cols":["value"],"input":{"op":"scan","relation":"answers"}},` +
	`{"op":"project","cols":["value"],"input":{"op":"scan","relation":"answers"}}]}}`

// TestHostileAST sends each hostile plan through the HTTP handler: it
// must answer 422, with an error naming what is wrong, in under 2 s.
func TestHostileAST(t *testing.T) {
	// A natural join of 31 copies of the answer log's task column, which
	// MaxNodes admits (63 nodes). On the 9-answer fixture each join
	// triples its build side, so only the join row budget stops it.
	chain := strings.TrimSuffix(strings.Repeat(`{"op":"project","cols":["task"],"input":{"op":"scan","relation":"answers"}},`, 31), ",")
	cases := []struct {
		name, plan, wantErr string
	}{
		{"unknown op", `{"op":"explode"}`, "unknown operator"},
		{"unknown relation", `{"op":"scan","relation":"secrets"}`, "unknown relation"},
		{"unknown column", `{"op":"project","cols":["nope"],"input":{"op":"scan","relation":"answers"}}`, "unknown column"},
		{"unknown pred col", `{"op":"select","where":{"op":"eq","col":"nope","value":1},"input":{"op":"scan","relation":"answers"}}`, "unknown column"},
		{"pred without rhs", `{"op":"select","where":{"op":"eq","col":"task"},"input":{"op":"scan","relation":"answers"}}`, "requires col2 or value"},
		{"select without where", `{"op":"select","input":{"op":"scan","relation":"answers"}}`, "without a where"},
		{"cross join", `{"op":"join","inputs":[{"op":"scan","relation":"answers"},{"op":"scan","relation":"budget"}]}`, "share no columns"},
		{"join arity", `{"op":"join","inputs":[{"op":"scan","relation":"answers"}]}`, "at least 2"},
		{"unknown aggregate", `{"op":"aggregate","aggs":[{"op":"median","col":"value","as":"m"}],"input":{"op":"scan","relation":"answers"}}`, "unknown op"},
		{"negative limit", `{"op":"limit","n":-1,"input":{"op":"scan","relation":"answers"}}`, "n >= 0"},
		{"missing input", `{"op":"select","where":{"op":"eq","col":"task","value":0}}`, "requires an input"},
		{"join chain", `{"op":"join","inputs":[` + chain + `]}`, "join row budget"},
	}
	check := func(t *testing.T, srv *httptest.Server, plan, wantErr string) {
		start := time.Now()
		resp, body := postQuery(t, srv, `{"plan":`+plan+`}`)
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("answered in %v, want under 2s", took)
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("status %d, body %s: %v", resp.StatusCode, body, err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(env.Error.Message, wantErr) {
			t.Fatalf("status %d, body %s; want 422 naming %q", resp.StatusCode, body, wantErr)
		}
	}
	// Cross-join needs a ledger for the budget relation to resolve first.
	srv := queryServer(t, golden(), &fakeLedger{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { check(t, srv, tc.plan, tc.wantErr) })
	}
	// A count over a natural join of the answer log's value column with
	// itself stores 24,945 rows on D_Product but would emit
	// Σ n_v² = 442,686,933, so only the emission budget stops it.
	t.Run("value self-join", func(t *testing.T) {
		svc, led := dProductService(t)
		check(t, queryServer(t, svc, led), valueSelfJoin, "join row budget")
	})
	c := query.NewCatalog(golden(), &fakeLedger{})
	if _, err := query.Compile(c, nil); err == nil {
		t.Fatal("nil plan compiled")
	}
	// Oversized plan: a chain of MaxNodes+1 selects.
	deep := `{"op":"scan","relation":"answers"}`
	for i := 0; i < query.MaxNodes; i++ {
		deep = fmt.Sprintf(`{"op":"select","where":{"op":"ge","col":"task","value":0},"input":%s}`, deep)
	}
	if _, err := compileJSON(t, c, deep); err == nil || !strings.Contains(err.Error(), "max") {
		t.Fatalf("oversized plan: err = %v, want node-cap rejection", err)
	}
}

// TestPinnedScanUnderConcurrentIngest proves the tentpole consistency
// property on the real store: a catalog pinned before a wave of
// concurrent ingests sees exactly the pinned answers — no more, no less
// — even while the store grows under it, and a catalog pinned after
// sees everything.
func TestPinnedScanUnderConcurrentIngest(t *testing.T) {
	store, err := stream.NewStoreN("query-pin", dataset.Decision, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	const initial = 100
	ans := make([]dataset.Answer, initial)
	for i := range ans {
		ans[i] = dataset.Answer{Task: i % 10, Worker: i % 7, Value: float64(i % 2)}
	}
	if _, _, err := store.Ingest(stream.Batch{Answers: ans}); err != nil {
		t.Fatal(err)
	}
	svc := newMVService(t, store)

	c := query.NewCatalog(svc, nil)
	if c.PinAnswers != initial {
		t.Fatalf("pinned %d answers, want %d", c.PinAnswers, initial)
	}
	rel := mustCompile(t, c, `{"op":"scan","relation":"answers"}`)

	// Read half the relation, then grow the store concurrently from
	// multiple goroutines while draining the rest.
	var got []query.Row
	for i := 0; i < initial/2; i++ {
		r, ok := rel.Next()
		if !ok {
			t.Fatalf("scan ended early at row %d", i)
		}
		got = append(got, r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < 5; b++ {
				batch := make([]dataset.Answer, 20)
				for i := range batch {
					batch[i] = dataset.Answer{Task: (g*100 + b*20 + i) % 50, Worker: 7 + g, Value: 1}
				}
				if _, _, err := store.Ingest(stream.Batch{Answers: batch}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for {
		r, ok := rel.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	wg.Wait()

	if len(got) != initial {
		t.Fatalf("pinned scan returned %d rows, want exactly %d", len(got), initial)
	}
	// A fresh catalog pinned after the wave sees everything.
	c2 := query.NewCatalog(svc, nil)
	rows, _ := query.Collect(mustCompile(t, c2, `{"op":"scan","relation":"answers"}`), -1)
	if want := initial + 4*5*20; len(rows) != want {
		t.Fatalf("post-ingest scan returned %d rows, want %d", len(rows), want)
	}
}

// TestAnswersRelationStreamsIngestionOrder pins that the answers
// relation over a real store streams the log in ingestion order, with
// tasks that span several 64-task chunks and arrive out of task order,
// and that the catalog counts every answer it read.
func TestAnswersRelationStreamsIngestionOrder(t *testing.T) {
	store, err := stream.NewStore("query-order", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want []query.Row
	for b := 0; b < 4; b++ {
		batch := make([]dataset.Answer, 50)
		for i := range batch {
			n := b*50 + i
			batch[i] = dataset.Answer{Task: n * 97 % 500, Worker: n % 13, Value: float64(n % 2)}
			want = append(want, query.Row{float64(batch[i].Task), float64(batch[i].Worker), batch[i].Value})
		}
		if _, _, err := store.Ingest(stream.Batch{Answers: batch}); err != nil {
			t.Fatal(err)
		}
	}
	c := query.NewCatalog(newMVService(t, store), nil)
	rows := collectAll(t, mustCompile(t, c, `{"op":"scan","relation":"answers"}`))
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("answers relation streamed %v..., want ingestion order %v...", rows[:min(len(rows), 4)], want[:4])
	}
	if c.Scanned != len(want) {
		t.Fatalf("catalog scanned %d answers, want %d", c.Scanned, len(want))
	}
}
