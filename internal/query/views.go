package query

import "fmt"

// Canned view names (the "view" field of a query request). Each is a
// pre-built operator plan over the same catalog the raw AST sees —
// views have no private fast path, they are just saved queries.
const (
	// ViewDisagreement lists tasks where the serving method's posterior
	// argmax disagrees with a majority vote recomputed over the pinned
	// answers: (task, mv_label, mv_share, top_label, top_p). On an
	// MV-serving project the two sides coincide and the view is empty —
	// it is meaningful for iterative methods (D&S, GLAD, ...), where a
	// disagreeing task is one the model overrode the crowd on.
	ViewDisagreement = "disagreement"
	// ViewWorkerQualityDrop lists workers whose quality estimate fell
	// since the previous published epoch, largest drop being the most
	// interesting: (worker, quality, prev_quality, drop), drop > 0.
	ViewWorkerQualityDrop = "worker-quality-drop"
	// ViewSpendVsBudget is the single-row budget accounting of the
	// project's assignment ledger: (budget, spent, remaining,
	// outstanding, completed, expired); -1 budget means unlimited.
	ViewSpendVsBudget = "spend-vs-budget"
	// ViewWorkerSuspect lists workers the defense layer has something
	// on — banned, down-weighted, failed golden answers, flagged
	// collusion partners, or a detected quality drop — with the full
	// dossier columns of the suspects relation. Empty when no defenses
	// are configured or nobody tripped one.
	ViewWorkerSuspect = "worker-suspect"
)

// ViewNames lists the canned views.
var ViewNames = []string{ViewDisagreement, ViewWorkerQualityDrop, ViewSpendVsBudget, ViewWorkerSuspect}

// ErrUnknownView distinguishes "no such view" (HTTP 404) from
// structural plan errors (422).
type ErrUnknownView struct{ Name string }

func (e ErrUnknownView) Error() string {
	return fmt.Sprintf("query: unknown view %q (have %v)", e.Name, ViewNames)
}

// View compiles a canned view against the catalog.
func View(c *Catalog, name string) (Relation, error) {
	switch name {
	case ViewDisagreement:
		mv, err := c.Relation("mv")
		if err != nil {
			return Relation{}, err
		}
		top, err := c.Relation("posterior_top")
		if err != nil {
			return Relation{}, err
		}
		// mv and posterior_top are the same size class; build on the mv
		// side (it only has rows for tasks with answers).
		joined, err := c.HashJoin(mv, top, []string{"task"})
		if err != nil {
			return Relation{}, err
		}
		ml, tl := colIndexMust(joined.Cols, "mv_label"), colIndexMust(joined.Cols, "top_label")
		return Select(joined, func(r Row) bool { return r[ml] != r[tl] }), nil

	case ViewWorkerQualityDrop:
		workers, err := c.Relation("workers")
		if err != nil {
			return Relation{}, err
		}
		drop := colIndexMust(workers.Cols, "drop")
		return Select(workers, func(r Row) bool { return r[drop] > 0 }), nil

	case ViewSpendVsBudget:
		return c.Relation("budget")

	case ViewWorkerSuspect:
		sus, err := c.Relation("suspects")
		if err != nil {
			return Relation{}, err
		}
		flag := colIndexMust(sus.Cols, "suspect")
		return Select(sus, func(r Row) bool { return r[flag] == 1 }), nil

	default:
		return Relation{}, ErrUnknownView{name}
	}
}

// colIndexMust is colIndex for columns this package itself emitted.
func colIndexMust(cols []string, name string) int {
	i := colIndex(cols, name)
	if i < 0 {
		panic(fmt.Sprintf("query: internal: column %q missing from %v", name, cols))
	}
	return i
}
