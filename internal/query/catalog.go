package query

import (
	"errors"
	"fmt"
	"math"

	"truthinference/internal/assign"
	"truthinference/internal/dataset"
)

// Source is the serving-state surface the catalog reads from.
// *stream.Service implements it structurally — this package never
// imports internal/stream, mirroring how internal/assign consumes the
// same service.
type Source interface {
	// Pin returns the store version and the answer log at that version,
	// in ingestion order: a prefix no later ingest writes to. Every
	// answer-sourced relation in one query reads this one prefix, so
	// concurrent ingest cannot skew a result.
	Pin() (version uint64, answers []dataset.Answer)
	// NumChoices returns ℓ for categorical stores, 0 for numeric.
	NumChoices() int
	// Posteriors copies per-task posterior rows into dst and returns them
	// plus the result version they reflect; errors mean no posterior
	// exists (yet, or ever). It is a delta read for callers that keep
	// dst (see internal/assign); the catalog passes (nil, 0, nil), so it
	// gets every row, in rows of its own.
	Posteriors(dst [][]float64, since uint64, changed func(task int)) ([][]float64, uint64, error)
	// Entropies returns per-task posterior entropies (nats).
	Entropies() ([]float64, uint64, error)
	// WorkerQualities returns current and previous-epoch worker-quality
	// vectors plus the result version they reflect. The catalog only
	// reads them; prev may be cur itself.
	WorkerQualities() (cur, prev []float64, version uint64, err error)
}

// Ledger is the assignment-state surface (satisfied by *assign.Ledger);
// nil in a Catalog means the project has no assignment plane and the
// lease/budget relations are unavailable.
type Ledger interface {
	Leases() []assign.Lease
	Stats() assign.Stats
	// Suspects returns per-worker defense dossiers (nil when the
	// ledger's defense layer is disabled — the suspects relation is
	// then empty, not an error: no defenses means no suspects).
	Suspects() []assign.Suspect
}

// ErrNoLedger is returned for lease/budget relations on a project
// without an assignment ledger.
var ErrNoLedger = errors.New("query: project has no assignment ledger")

// ErrUnavailable wraps source errors that mean "the data this relation
// needs does not exist yet" (no posterior before the first epoch, no
// worker estimates yet). The HTTP layer maps it to 409: retry after an
// epoch, nothing is wrong with the query.
type ErrUnavailable struct{ Err error }

func (e ErrUnavailable) Error() string { return fmt.Sprintf("query: relation unavailable: %v", e.Err) }
func (e ErrUnavailable) Unwrap() error { return e.Err }

// Cardinality ranks of the base relations, smallest first. The greedy
// join orderer and the build-side choice in HashJoin need only this
// ordering — the relations' shapes are known, so no statistics are
// collected (the janus-datalog approach named in ROADMAP item 3).
const (
	rankBudget  = 0 // exactly one row
	rankLeases  = 1 // outstanding leases (bounded by budget/redundancy)
	rankWorkers = 2 // one row per worker
	rankPerTask = 3 // one row per task (mv, posterior_top, entropy) or task×ℓ (posterior)
	rankAnswers = 4 // one row per answer — the probe side against any smaller input
)

// MaxJoinRows is the per-query budget of rows that all of a plan's hash
// joins may store in their build tables and emit, together: about 10×
// the answers of the largest paper dataset at scale 1.0 (S_Rel, 98,453),
// so no canned view or sensible plan comes near it. A plan whose joins
// grow past it ends with ErrJoinBudget: say, a chain of self-joins of
// the answer log, which multiplies rows by the redundancy per join, or
// one join on a low-cardinality column such as value, which emits the
// sum over values of each value's count squared.
const MaxJoinRows = 1_000_000

// ErrJoinBudget is recorded on the catalog when a plan's joins store or
// emit more than MaxJoinRows rows. The HTTP layer answers 422.
var ErrJoinBudget = fmt.Errorf("query: the plan's joins stored or emitted more than %d rows, the per-query join row budget", MaxJoinRows)

// relationRank maps every catalog relation to its cardinality class.
var relationRank = map[string]int{
	"budget":        rankBudget,
	"leases":        rankLeases,
	"workers":       rankWorkers,
	"suspects":      rankWorkers,
	"mv":            rankPerTask,
	"posterior_top": rankPerTask,
	"entropy":       rankPerTask,
	"posterior":     rankPerTask,
	"answers":       rankAnswers,
}

// RelationNames lists the catalog's base relations (documentation
// order: cheap to expensive).
var RelationNames = []string{"budget", "leases", "workers", "suspects", "mv", "posterior_top", "entropy", "posterior", "answers"}

// Catalog resolves base-relation names to lazily-evaluated Relations,
// all pinned to one store version captured at construction. Build one
// Catalog per query.
type Catalog struct {
	src    Source
	ledger Ledger

	// StoreVersion and pinned answer count captured by NewCatalog; every
	// answers/mv scan in this catalog sees exactly the first PinAnswers
	// answers, no matter how much is ingested concurrently.
	StoreVersion uint64
	PinAnswers   int
	// ResultVersion is the inference epoch backing any model-derived
	// relation the query touched (0 until one is touched or none exists).
	ResultVersion uint64
	// Scanned counts answers read out of the pinned log by this catalog's
	// scans — the query's real read cost, as opposed to the rows it
	// returned. Read it after the query has been collected; catalogs are
	// per-query and single-goroutine, so plain int is fine.
	Scanned int

	log []dataset.Answer // the pinned answer log

	joinRows int   // rows stored or emitted so far by this query's hash joins
	err      error // sticky: the first error a stream recorded (see Err)
}

// Err returns the error that cut one of the query's streams short
// (today only ErrJoinBudget), or nil. A stream cut short ends like a
// drained one, so read Err after Collect.
func (c *Catalog) Err() error { return c.err }

// NewCatalog pins the store and returns a catalog for one query.
func NewCatalog(src Source, ledger Ledger) *Catalog {
	v, log := src.Pin()
	return &Catalog{src: src, ledger: ledger, StoreVersion: v, PinAnswers: len(log), log: log}
}

// Relation resolves a base relation by name. Unknown names are an
// error; names whose backing data does not exist yet return
// ErrUnavailable (or ErrNoLedger).
func (c *Catalog) Relation(name string) (Relation, error) {
	switch name {
	case "answers":
		return c.answers(), nil
	case "mv":
		return c.mv()
	case "posterior":
		return c.posterior()
	case "posterior_top":
		return c.posteriorTop()
	case "entropy":
		return c.entropy()
	case "workers":
		return c.workers()
	case "leases":
		return c.leases()
	case "suspects":
		return c.suspects()
	case "budget":
		return c.budget()
	default:
		return Relation{}, fmt.Errorf("query: unknown relation %q (have %v)", name, RelationNames)
	}
}

// answers streams (task, worker, value) straight off the pinned answer
// log, in ingestion order.
func (c *Catalog) answers() Relation {
	log, row := c.log, make(Row, 3)
	return Relation{Cols: []string{"task", "worker", "value"}, Next: func() (Row, bool) {
		if len(log) == 0 {
			return nil, false
		}
		a := log[0]
		log = log[1:]
		c.Scanned++
		row[0], row[1], row[2] = float64(a.Task), float64(a.Worker), a.Value
		return row, true
	}}
}

// mv derives the majority vote per task from the pinned answer log:
// (task, mv_label, mv_share). It counts the log into ℓ counts per task,
// held in blocks allocated as the count reaches their tasks and never
// regrown — never a copy of the answers. Ties break to the lowest label
// (deterministic, and independent of the serving method's hashed
// tie-break — callers comparing against a served MV should avoid tied
// datasets). Requires a categorical store.
func (c *Catalog) mv() (Relation, error) {
	ell := c.src.NumChoices()
	if ell < 2 {
		return Relation{}, fmt.Errorf("query: relation \"mv\" requires a categorical store")
	}
	var (
		counts = rowBlocks{width: ell} // ℓ votes per task
		tasks  int                     // 1 + the largest task counted
		built  bool
		t      int
		row    = make(Row, 3)
	)
	return Relation{Cols: []string{"task", "mv_label", "mv_share"}, Next: func() (Row, bool) {
		if !built {
			built = true
			for _, a := range c.log {
				if a.Task >= tasks {
					tasks = a.Task + 1
					counts.grow(tasks)
				}
				if label := int(a.Value); label >= 0 && label < ell {
					counts.at(a.Task)[label]++
				}
			}
			c.Scanned += len(c.log)
		}
		for t < tasks {
			task, votes := t, counts.at(t)
			t++
			best, total := 0, 0.0
			for k, v := range votes {
				total += v
				if v > votes[best] {
					best = k
				}
			}
			if total == 0 {
				continue // a task with no pinned answers has no vote
			}
			row[0], row[1], row[2] = float64(task), float64(best), votes[best]/total
			return row, true
		}
		return nil, false
	}}, nil
}

// posterior streams (task, label, p): one row per task × choice from
// the serving method's published posterior.
func (c *Catalog) posterior() (Relation, error) {
	post, v, err := c.src.Posteriors(nil, 0, nil)
	if err != nil {
		return Relation{}, ErrUnavailable{err}
	}
	c.ResultVersion = v
	t, k := 0, 0
	row := make(Row, 3)
	return Relation{Cols: []string{"task", "label", "p"}, Next: func() (Row, bool) {
		for t < len(post) {
			if k < len(post[t]) {
				row[0], row[1], row[2] = float64(t), float64(k), post[t][k]
				k++
				return row, true
			}
			t++
			k = 0
		}
		return nil, false
	}}, nil
}

// posteriorTop reduces the posterior to its argmax per task:
// (task, top_label, top_p). Ties break to the lowest label, matching mv.
func (c *Catalog) posteriorTop() (Relation, error) {
	post, v, err := c.src.Posteriors(nil, 0, nil)
	if err != nil {
		return Relation{}, ErrUnavailable{err}
	}
	c.ResultVersion = v
	t := 0
	out := make(Row, 3)
	return Relation{Cols: []string{"task", "top_label", "top_p"}, Next: func() (Row, bool) {
		for t < len(post) {
			row := post[t]
			i := t
			t++
			if len(row) == 0 {
				continue
			}
			best := 0
			for k := 1; k < len(row); k++ {
				if row[k] > row[best] {
					best = k
				}
			}
			out[0], out[1], out[2] = float64(i), float64(best), row[best]
			return out, true
		}
		return nil, false
	}}, nil
}

// entropy streams (task, entropy): the per-task posterior Shannon
// entropy in nats.
func (c *Catalog) entropy() (Relation, error) {
	ent, v, err := c.src.Entropies()
	if err != nil {
		return Relation{}, ErrUnavailable{err}
	}
	c.ResultVersion = v
	t := 0
	row := make(Row, 2)
	return Relation{Cols: []string{"task", "entropy"}, Next: func() (Row, bool) {
		if t >= len(ent) {
			return nil, false
		}
		row[0], row[1] = float64(t), ent[t]
		t++
		return row, true
	}}, nil
}

// workers streams (worker, quality, prev_quality, drop) where drop is
// the decline since the previous published epoch (0 before a second
// epoch exists and for workers first seen this epoch).
func (c *Catalog) workers() (Relation, error) {
	cur, prev, v, err := c.src.WorkerQualities()
	if err != nil {
		return Relation{}, ErrUnavailable{err}
	}
	c.ResultVersion = v
	w := 0
	row := make(Row, 4)
	return Relation{Cols: []string{"worker", "quality", "prev_quality", "drop"}, Next: func() (Row, bool) {
		if w >= len(cur) {
			return nil, false
		}
		q, pq := cur[w], prev[w]
		if math.IsNaN(q) {
			q = -1
		}
		if math.IsNaN(pq) {
			pq = -1
		}
		row[0], row[1], row[2], row[3] = float64(w), q, pq, pq-q
		w++
		return row, true
	}}, nil
}

// leases streams the outstanding assignment leases:
// (lease_id, task, worker, expires_unix_ms).
func (c *Catalog) leases() (Relation, error) {
	if c.ledger == nil {
		return Relation{}, ErrNoLedger
	}
	leases := c.ledger.Leases()
	rows := make([]Row, len(leases))
	for i, l := range leases {
		rows[i] = Row{float64(l.ID), float64(l.Task), float64(l.Worker), float64(l.Expires.UnixMilli())}
	}
	return fromRows([]string{"lease_id", "task", "worker", "expires_unix_ms"}, rows), nil
}

// suspects streams the defense layer's per-worker dossiers:
// (worker, qualified, golden_passed, golden_failed, banned, ban_reason,
// down_weighted, collusion_score, collusion_partners, quality_drop,
// suspect). Booleans are 0/1; ban_reason is a code (0 none, 1 golden,
// 2 quality, 3 collusion); suspect summarizes "any detector has
// something on this worker". Empty when the defense layer is disabled.
func (c *Catalog) suspects() (Relation, error) {
	if c.ledger == nil {
		return Relation{}, ErrNoLedger
	}
	sus := c.ledger.Suspects()
	rows := make([]Row, len(sus))
	for i, s := range sus {
		rows[i] = Row{
			float64(s.Worker),
			b2f(s.Qualified),
			float64(s.GoldenPassed),
			float64(s.GoldenFailed),
			b2f(s.Banned),
			banReasonCode(s.BanReason),
			b2f(s.DownWeighted),
			s.CollusionScore,
			float64(s.CollusionPartners),
			s.QualityDrop,
			b2f(s.Banned || s.DownWeighted || s.GoldenFailed > 0 || s.CollusionPartners > 0 || s.QualityDrop > 0),
		}
	}
	return fromRows([]string{"worker", "qualified", "golden_passed", "golden_failed", "banned",
		"ban_reason", "down_weighted", "collusion_score", "collusion_partners", "quality_drop",
		"suspect"}, rows), nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// banReasonCode maps the ledger's ban reason onto the numeric column
// (relations carry float64 cells only).
func banReasonCode(reason string) float64 {
	switch reason {
	case "golden":
		return 1
	case "quality":
		return 2
	case "collusion":
		return 3
	default:
		return 0
	}
}

// budget is the single-row spend-vs-budget relation:
// (budget, spent, remaining, outstanding, completed, expired).
// budget and remaining are -1 when the ledger is unlimited; spent is
// the committed side of the ledger's accounting (completed + live
// leases, or the store total with charge-existing budgets).
func (c *Catalog) budget() (Relation, error) {
	if c.ledger == nil {
		return Relation{}, ErrNoLedger
	}
	st := c.ledger.Stats()
	budget, remaining, spent := -1.0, -1.0, float64(st.Completed)+float64(st.Outstanding)
	if st.Budget > 0 {
		budget = float64(st.Budget)
		remaining = float64(st.BudgetRemaining)
		spent = budget - remaining
	}
	row := Row{budget, spent, remaining, float64(st.Outstanding), float64(st.Completed), float64(st.Expired)}
	return fromRows([]string{"budget", "spent", "remaining", "outstanding", "completed", "expired"}, []Row{row}), nil
}
