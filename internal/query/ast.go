package query

import (
	"fmt"
)

// MaxNodes caps the size of a query AST (joins count their inputs):
// deep or wide hostile plans are rejected before anything executes.
const MaxNodes = 64

// Node is one operator of the JSON query AST. Exactly one shape is
// valid per op:
//
//	{"op":"scan","relation":"answers"}
//	{"op":"select","input":N,"where":P}
//	{"op":"project","input":N,"cols":["task","value"]}
//	{"op":"join","inputs":[N,...]}            // natural join on shared columns
//	{"op":"aggregate","input":N,"by":["worker"],"aggs":[{"op":"count","as":"n"}]}
//	{"op":"limit","input":N,"n":100}
//
// Joins take two or more inputs and are ordered greedily by the known
// cardinality class of each input's base relations — no statistics.
type Node struct {
	Op string `json:"op"`

	Relation string   `json:"relation,omitempty"` // scan
	Input    *Node    `json:"input,omitempty"`    // select/project/aggregate/limit
	Inputs   []*Node  `json:"inputs,omitempty"`   // join
	Where    *Pred    `json:"where,omitempty"`    // select
	Cols     []string `json:"cols,omitempty"`     // project
	By       []string `json:"by,omitempty"`       // aggregate
	Aggs     []Agg    `json:"aggs,omitempty"`     // aggregate
	N        *int     `json:"n,omitempty"`        // limit
}

// Pred is one predicate of a select's where clause:
//
//	{"op":"eq","col":"mv_label","value":2}     // column vs literal
//	{"op":"ne","col":"mv_label","col2":"top_label"}  // column vs column
//	{"op":"and","args":[P,...]} / {"op":"or",...} / {"op":"not","args":[P]}
//
// Comparison ops: eq, ne, lt, le, gt, ge.
type Pred struct {
	Op    string   `json:"op"`
	Col   string   `json:"col,omitempty"`
	Col2  string   `json:"col2,omitempty"`
	Value *float64 `json:"value,omitempty"`
	Args  []*Pred  `json:"args,omitempty"`
}

// plan is a compiled subtree: its relation plus the cardinality rank
// the greedy join orderer plans with (the max rank of any base relation
// it reads — a conservative size class for a join result).
type plan struct {
	rel  Relation
	rank int
}

// Compile turns an AST into an executable Relation against the catalog.
// Structural errors (unknown op/relation/column, oversized AST, bad
// predicate) are plain errors — the HTTP layer maps them to 422;
// ErrUnavailable/ErrNoLedger pass through for their own mappings.
func Compile(c *Catalog, root *Node) (Relation, error) {
	if root == nil {
		return Relation{}, fmt.Errorf("query: empty plan")
	}
	n := countNodes(root)
	if n > MaxNodes {
		return Relation{}, fmt.Errorf("query: plan has %d nodes, max %d", n, MaxNodes)
	}
	p, err := compile(c, root)
	if err != nil {
		return Relation{}, err
	}
	return p.rel, nil
}

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	total := 1 + countNodes(n.Input)
	for _, in := range n.Inputs {
		total += countNodes(in)
	}
	return total
}

func compile(c *Catalog, n *Node) (plan, error) {
	switch n.Op {
	case "scan":
		rank, ok := relationRank[n.Relation]
		if !ok {
			return plan{}, fmt.Errorf("query: unknown relation %q (have %v)", n.Relation, RelationNames)
		}
		rel, err := c.Relation(n.Relation)
		if err != nil {
			return plan{}, err
		}
		return plan{rel: rel, rank: rank}, nil

	case "select":
		in, err := compileInput(c, n)
		if err != nil {
			return plan{}, err
		}
		if n.Where == nil {
			return plan{}, fmt.Errorf("query: select without a where predicate")
		}
		pred, err := compilePred(in.rel.Cols, n.Where)
		if err != nil {
			return plan{}, err
		}
		return plan{rel: Select(in.rel, pred), rank: in.rank}, nil

	case "project":
		in, err := compileInput(c, n)
		if err != nil {
			return plan{}, err
		}
		rel, err := Project(in.rel, n.Cols)
		if err != nil {
			return plan{}, err
		}
		return plan{rel: rel, rank: in.rank}, nil

	case "aggregate":
		in, err := compileInput(c, n)
		if err != nil {
			return plan{}, err
		}
		rel, err := GroupAggregate(in.rel, n.By, n.Aggs)
		if err != nil {
			return plan{}, err
		}
		return plan{rel: rel, rank: in.rank}, nil

	case "limit":
		in, err := compileInput(c, n)
		if err != nil {
			return plan{}, err
		}
		if n.N == nil || *n.N < 0 {
			return plan{}, fmt.Errorf("query: limit requires n >= 0")
		}
		return plan{rel: Limit(in.rel, *n.N), rank: in.rank}, nil

	case "join":
		return compileJoin(c, n)

	default:
		return plan{}, fmt.Errorf("query: unknown operator %q", n.Op)
	}
}

func compileInput(c *Catalog, n *Node) (plan, error) {
	if n.Input == nil {
		return plan{}, fmt.Errorf("query: operator %q requires an input", n.Op)
	}
	if len(n.Inputs) > 0 {
		return plan{}, fmt.Errorf("query: operator %q takes a single input, not inputs", n.Op)
	}
	return compile(c, n.Input)
}

// compileJoin compiles an n-way natural join with greedy known-shape
// ordering: start from the smallest-ranked input, then repeatedly fold
// in the joinable input (shares >= 1 column) with the smallest rank.
// Each pairwise HashJoin builds its hash table on the smaller-ranked
// side and streams the larger; the accumulated result's rank is the max
// of its members, so the answer scan is the probe side against any
// smaller input. Two inputs at the answers rank tie, and then the
// accumulated side is built. The rows each join stores and emits count
// against MaxJoinRows.
func compileJoin(c *Catalog, n *Node) (plan, error) {
	if n.Input != nil {
		return plan{}, fmt.Errorf("query: join takes inputs, not a single input")
	}
	if len(n.Inputs) < 2 {
		return plan{}, fmt.Errorf("query: join requires at least 2 inputs")
	}
	plans := make([]plan, len(n.Inputs))
	for i, in := range n.Inputs {
		if in == nil {
			return plan{}, fmt.Errorf("query: join input %d is empty", i)
		}
		p, err := compile(c, in)
		if err != nil {
			return plan{}, err
		}
		plans[i] = p
	}

	// Pick the smallest-ranked input as the seed (ties: first written).
	seed := 0
	for i := 1; i < len(plans); i++ {
		if plans[i].rank < plans[seed].rank {
			seed = i
		}
	}
	acc := plans[seed]
	remaining := append(plans[:seed:seed], plans[seed+1:]...)

	for len(remaining) > 0 {
		// Greedy step: among inputs sharing a column with the
		// accumulated schema, take the smallest-ranked.
		best, bestShared := -1, []string(nil)
		for i, p := range remaining {
			shared := sharedCols(acc.rel.Cols, p.rel.Cols)
			if len(shared) == 0 {
				continue
			}
			if best == -1 || p.rank < remaining[best].rank {
				best, bestShared = i, shared
			}
		}
		if best == -1 {
			return plan{}, fmt.Errorf("query: join inputs share no columns with %v (cross joins are not supported)", acc.rel.Cols)
		}
		next := remaining[best]
		remaining = append(remaining[:best:best], remaining[best+1:]...)

		build, probe := acc, next
		if next.rank < acc.rank {
			build, probe = next, acc
		}
		rel, err := c.HashJoin(build.rel, probe.rel, bestShared)
		if err != nil {
			return plan{}, err
		}
		rank := acc.rank
		if next.rank > rank {
			rank = next.rank
		}
		acc = plan{rel: rel, rank: rank}
	}
	return acc, nil
}

// sharedCols returns the column names present in both schemas, in a's
// order — the natural-join key set.
func sharedCols(a, b []string) []string {
	var out []string
	for _, c := range a {
		if colIndex(b, c) >= 0 {
			out = append(out, c)
		}
	}
	return out
}

// compilePred resolves a predicate tree against a schema.
func compilePred(cols []string, p *Pred) (func(Row) bool, error) {
	if p == nil {
		return nil, fmt.Errorf("query: empty predicate")
	}
	switch p.Op {
	case "and", "or":
		if len(p.Args) == 0 {
			return nil, fmt.Errorf("query: %q requires args", p.Op)
		}
		kids := make([]func(Row) bool, len(p.Args))
		for i, a := range p.Args {
			k, err := compilePred(cols, a)
			if err != nil {
				return nil, err
			}
			kids[i] = k
		}
		if p.Op == "and" {
			return func(r Row) bool {
				for _, k := range kids {
					if !k(r) {
						return false
					}
				}
				return true
			}, nil
		}
		return func(r Row) bool {
			for _, k := range kids {
				if k(r) {
					return true
				}
			}
			return false
		}, nil

	case "not":
		if len(p.Args) != 1 {
			return nil, fmt.Errorf("query: \"not\" requires exactly one arg")
		}
		k, err := compilePred(cols, p.Args[0])
		if err != nil {
			return nil, err
		}
		return func(r Row) bool { return !k(r) }, nil

	case "eq", "ne", "lt", "le", "gt", "ge":
		i := colIndex(cols, p.Col)
		if i < 0 {
			return nil, fmt.Errorf("query: unknown column %q (have %v)", p.Col, cols)
		}
		var rhs func(Row) float64
		switch {
		case p.Col2 != "" && p.Value != nil:
			return nil, fmt.Errorf("query: predicate has both col2 and value")
		case p.Col2 != "":
			j := colIndex(cols, p.Col2)
			if j < 0 {
				return nil, fmt.Errorf("query: unknown column %q (have %v)", p.Col2, cols)
			}
			rhs = func(r Row) float64 { return r[j] }
		case p.Value != nil:
			v := *p.Value
			rhs = func(Row) float64 { return v }
		default:
			return nil, fmt.Errorf("query: predicate %q requires col2 or value", p.Op)
		}
		switch p.Op {
		case "eq":
			return func(r Row) bool { return r[i] == rhs(r) }, nil
		case "ne":
			return func(r Row) bool { return r[i] != rhs(r) }, nil
		case "lt":
			return func(r Row) bool { return r[i] < rhs(r) }, nil
		case "le":
			return func(r Row) bool { return r[i] <= rhs(r) }, nil
		case "gt":
			return func(r Row) bool { return r[i] > rhs(r) }, nil
		default:
			return func(r Row) bool { return r[i] >= rhs(r) }, nil
		}

	default:
		return nil, fmt.Errorf("query: unknown predicate op %q", p.Op)
	}
}
