package closedloop

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"truthinference/internal/methods/ds"
)

var update = flag.Bool("update", false, "rewrite testdata/loops.txt from the current code")

// plainResult is LoopResult without its String method, so %+v prints
// every field: lease accounting, rounds, actioned workers and the full
// defense dossier.
type plainResult LoopResult

// TestClosedLoopFixture pins the closed loop's results, field by field,
// to a checked-in fixture: the policy comparison of loopCfg, the same
// loop with abandoned leases, the D&S loop, and each standard attack run
// with and without its defense. The loop delivers answers only through
// Complete, so any change to which task the ledger leases to whom shows
// up here as a diff. Regenerate after an intended behaviour change with:
//
//	go test ./internal/simulate/closedloop -run TestClosedLoopFixture -update
func TestClosedLoopFixture(t *testing.T) {
	var lines []string
	add := func(name string, r LoopResult) {
		lines = append(lines, fmt.Sprintf("%s\t%s\t%+v", name, r, plainResult(r)))
	}
	results, err := ComparePolicies(loopCfg(), []string{"random", "least-answered", "uncertainty"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		add("compare/"+r.Policy, r)
	}
	reclaim := loopCfg()
	reclaim.AbandonProb = 0.2
	iterative := LoopConfig{
		Tasks: 80, Workers: 20, Choices: 2, Seed: 5, Budget: 320, Redundancy: 8,
		Method: ds.New(), RefreshEvery: 40, GoldenTasks: 8,
	}
	for _, run := range []struct {
		name   string
		cfg    LoopConfig
		policy string
	}{
		{"reclaim/least-answered", reclaim, "least-answered"},
		{"reclaim/uncertainty", reclaim, "uncertainty"},
		{"iterative/uncertainty", iterative, "uncertainty"},
	} {
		r, err := ClosedLoop(run.cfg, run.policy)
		if err != nil {
			t.Fatal(err)
		}
		add(run.name, r)
	}
	for _, tc := range attackCases() {
		undef, err := ClosedLoop(tc.cfg, "uncertainty")
		if err != nil {
			t.Fatal(err)
		}
		add(tc.name+"/undefended", undef)
		defended := tc.cfg
		defended.Defense = tc.defense
		def, err := ClosedLoop(defended, "uncertainty")
		if err != nil {
			t.Fatal(err)
		}
		add(tc.name+"/defended", def)
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "loops.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("fixture missing (run with -update to record): %v", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gotLines), len(wantLines)) {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
