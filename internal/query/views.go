package query

import (
	"fmt"
	"strings"

	"truthinference/internal/api"
)

// Canned view names (the "view" field of a query request). Each is a
// saved plan (see ViewPlans), compiled by Compile exactly as a posted
// plan is — views have no private fast path, they are just saved
// queries.
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

// ViewPlans holds each canned view's saved plan, as the JSON a client
// would post as "plan". The disagreement join lists mv first: mv and
// posterior_top are the same size class, so Compile's tie rule builds
// the hash table on mv (it only has rows for tasks with answers) and
// probes posterior_top.
var ViewPlans = map[string]string{
	ViewDisagreement: `{"op":"select","where":{"op":"ne","col":"mv_label","col2":"top_label"},
		"input":{"op":"join","inputs":[{"op":"scan","relation":"mv"},{"op":"scan","relation":"posterior_top"}]}}`,
	ViewWorkerQualityDrop: `{"op":"select","where":{"op":"gt","col":"drop","value":0},
		"input":{"op":"scan","relation":"workers"}}`,
	ViewSpendVsBudget: `{"op":"scan","relation":"budget"}`,
	ViewWorkerSuspect: `{"op":"select","where":{"op":"eq","col":"suspect","value":1},
		"input":{"op":"scan","relation":"suspects"}}`,
}

// viewNodes is ViewPlans decoded once; Compile only reads a plan, so
// every query shares these.
var viewNodes = func() map[string]*Node {
	nodes := make(map[string]*Node, len(ViewPlans))
	for name, plan := range ViewPlans {
		n := new(Node)
		if err := api.DecodeStrict(strings.NewReader(plan), n); err != nil {
			panic(fmt.Sprintf("query: saved plan of view %q: %v", name, err))
		}
		nodes[name] = n
	}
	return nodes
}()

// ErrUnknownView distinguishes "no such view" (HTTP 404) from
// structural plan errors (422).
type ErrUnknownView struct{ Name string }

func (e ErrUnknownView) Error() string {
	return fmt.Sprintf("query: unknown view %q (have %v)", e.Name, ViewNames)
}

// View compiles a canned view's saved plan against the catalog.
func View(c *Catalog, name string) (Relation, error) {
	n, ok := viewNodes[name]
	if !ok {
		return Relation{}, ErrUnknownView{name}
	}
	return Compile(c, n)
}
