package query_test

import (
	"bytes"
	"testing"

	"truthinference/internal/api"
	"truthinference/internal/query"
)

// FuzzQueryPlan feeds the plan decoder of POST .../query arbitrary
// bytes. Whatever api.DecodeStrict accepts as a Node is compiled and
// collected against the golden fixture, with a ledger so every relation
// resolves. Compile may reject a plan and a plan's joins may stop at
// MaxJoinRows, but nothing may panic, and every row must be as wide as
// its schema.
func FuzzQueryPlan(f *testing.F) {
	for _, plan := range []string{
		`{"op":"scan","relation":"answers"}`,
		`{"op":"limit","n":2,"input":{"op":"select","where":{"op":"and","args":[{"op":"ge","col":"task","value":1},{"op":"ne","col":"worker","col2":"task"}]},"input":{"op":"scan","relation":"answers"}}}`,
		`{"op":"aggregate","by":["worker"],"aggs":[{"op":"count","as":"n"}],"input":{"op":"scan","relation":"answers"}}`,
		`{"op":"join","inputs":[{"op":"scan","relation":"answers"},{"op":"scan","relation":"workers"}]}`,
	} {
		f.Add([]byte(plan))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var node query.Node
		if err := api.DecodeStrict(bytes.NewReader(data), &node); err != nil {
			return
		}
		rel, err := query.Compile(query.NewCatalog(golden(), &fakeLedger{}), &node)
		if err != nil {
			return
		}
		rows, _ := query.Collect(rel, query.MaxLimit)
		for i, r := range rows {
			if len(r) != len(rel.Cols) {
				t.Fatalf("row %d has %d values for the %d columns %v", i, len(r), len(rel.Cols), rel.Cols)
			}
		}
	})
}
