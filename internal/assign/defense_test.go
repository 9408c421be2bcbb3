package assign

import (
	"errors"
	"strings"
	"testing"
)

// defenseSource wraps fakeSource with the optional defense surfaces:
// golden truth and a per-epoch quality history.
type defenseSource struct {
	*fakeSource
	golden map[int]float64
	hist   [][]float64
}

func (d *defenseSource) ForEachGolden(f func(task int, truth float64)) {
	for t, v := range d.golden {
		f(t, v)
	}
}

func (d *defenseSource) QualityHistory() ([][]float64, uint64) {
	out := make([][]float64, len(d.hist))
	for i, row := range d.hist {
		out[i] = append([]float64(nil), row...)
	}
	return out, d.ResultVersion()
}

// uniformPost fills every task's posterior with argmax at label 0.
func uniformPost(tasks int) [][]float64 {
	post := make([][]float64, tasks)
	for i := range post {
		post[i] = []float64{0.8, 0.2}
	}
	return post
}

func newDefenseSource(tasks int) *defenseSource {
	f := newFakeSource(tasks, 2)
	f.workers = 16
	f.post = uniformPost(tasks)
	return &defenseSource{fakeSource: f, golden: map[int]float64{}}
}

func defendedLedger(t *testing.T, src Source, spec *DefenseSpec) (*Ledger, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	l := mustLedger(t, src, Config{
		Policy:  LeastAnswered{},
		Budget:  1000,
		Seed:    1,
		Now:     clk.Now,
		Defense: spec,
	})
	return l, clk
}

func completeLabel(t *testing.T, l *Ledger, id uint64, worker int, label float64) {
	t.Helper()
	if err := l.CompleteValue(id, worker, label, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestDefenseSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec DefenseSpec
		ok   bool
	}{
		{"zero is fine", DefenseSpec{}, true},
		{"full valid", DefenseSpec{GoldenPass: 2, GoldenFails: 3, QualityDrop: 0.2, MinQuality: 0.4, QualityMinAnswers: 10, CollusionThreshold: 0.3, CollusionMinOverlap: 5, CollusionPartners: 2}, true},
		{"negative golden pass", DefenseSpec{GoldenPass: -1}, false},
		{"negative golden fails", DefenseSpec{GoldenFails: -2}, false},
		{"drop above 1", DefenseSpec{QualityDrop: 1.5}, false},
		{"negative floor", DefenseSpec{MinQuality: -0.1}, false},
		{"negative min answers", DefenseSpec{QualityMinAnswers: -1}, false},
		{"collusion threshold above 1", DefenseSpec{CollusionThreshold: 2}, false},
		{"negative overlap", DefenseSpec{CollusionMinOverlap: -1}, false},
		{"negative partners", DefenseSpec{CollusionPartners: -3}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.spec.Validate(); (err == nil) != c.ok {
				t.Fatalf("Validate(%+v) = %v, want ok=%v", c.spec, err, c.ok)
			}
		})
	}
	var nilSpec *DefenseSpec
	if err := nilSpec.Validate(); err != nil {
		t.Fatalf("nil spec must validate: %v", err)
	}
	if nilSpec.Enabled() {
		t.Fatal("nil spec reports enabled")
	}
	if (&DefenseSpec{DownWeightOnly: true}).Enabled() {
		t.Fatal("spec with no detector thresholds reports enabled")
	}
}

func TestDefenseNeedsCategoricalSource(t *testing.T) {
	src := newFakeSource(4, 0) // a numeric store: no label alphabet
	src.workers = 4
	_, err := NewLedger(src, Config{
		Policy:  LeastAnswered{},
		Defense: &DefenseSpec{GoldenPass: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "categorical") {
		t.Fatalf("defended ledger over a numeric source: err = %v, want categorical error", err)
	}
}

func TestGoldenGateQualifiesThenServesRealTasks(t *testing.T) {
	src := newDefenseSource(6)
	src.golden = map[int]float64{0: 1, 1: 0}
	l, _ := defendedLedger(t, src, &DefenseSpec{GoldenPass: 1})

	lease, err := l.Assign(7)
	if err != nil {
		t.Fatal(err)
	}
	if !lease.Golden || lease.Task != 0 {
		t.Fatalf("unqualified worker got lease %+v, want golden task 0", lease)
	}
	completeLabel(t, l, lease.ID, 7, 1) // correct: golden truth is 1

	lease, err = l.Assign(7)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Golden {
		t.Fatalf("qualified worker still routed a golden gate lease: %+v", lease)
	}

	sus := l.Suspects()
	if len(sus) != 1 || sus[0].Worker != 7 || !sus[0].Qualified || sus[0].GoldenPassed != 1 {
		t.Fatalf("suspects = %+v, want worker 7 qualified", sus)
	}
}

func TestGoldenGateBansAfterRepeatedFails(t *testing.T) {
	src := newDefenseSource(6)
	src.golden = map[int]float64{0: 1, 1: 0, 2: 1}
	l, _ := defendedLedger(t, src, &DefenseSpec{GoldenPass: 2, GoldenFails: 2})

	for i := 0; i < 2; i++ {
		lease, err := l.Assign(3)
		if err != nil {
			t.Fatal(err)
		}
		if !lease.Golden {
			t.Fatalf("attempt %d: lease %+v is not golden", i, lease)
		}
		wrong := 1 - src.golden[lease.Task]
		completeLabel(t, l, lease.ID, 3, wrong)
	}
	if _, err := l.Assign(3); !errors.Is(err, ErrWorkerBanned) {
		t.Fatalf("Assign after 2 golden fails: %v, want ErrWorkerBanned", err)
	}
	sus := l.Suspects()
	if len(sus) != 1 || !sus[0].Banned || sus[0].BanReason != "golden" {
		t.Fatalf("suspects = %+v, want golden ban", sus)
	}
	if st := l.Stats(); st.BannedWorkers != 1 || st.GoldenPool != 3 {
		t.Fatalf("stats = %+v, want 1 banned, golden pool 3", st)
	}
}

func TestGoldenGateInertWhilePoolEmpty(t *testing.T) {
	// A gate with no golden truth posted yet must not lock the project:
	// workers get real leases until the operator ingests truth.
	src := newDefenseSource(4)
	l, _ := defendedLedger(t, src, &DefenseSpec{GoldenPass: 1})
	lease, err := l.Assign(0)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Golden {
		t.Fatalf("empty golden pool still issued a gate lease: %+v", lease)
	}

	// Posting golden truth arms the gate for the next worker.
	src.mu.Lock()
	src.storeVer++
	src.mu.Unlock()
	src.golden[2] = 1
	lease, err = l.Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	if !lease.Golden || lease.Task != 2 {
		t.Fatalf("gate did not arm after truth ingest: %+v", lease)
	}
}

func TestAbandonedGoldenLeaseSpendsTheChance(t *testing.T) {
	// An expired golden lease keeps the worker in the task's seen set
	// (a worker never sees a task twice, even abandoned), so a one-task
	// pool is spent for that worker — but reissues to everyone else.
	src := newDefenseSource(4)
	src.golden = map[int]float64{0: 1}
	l, clk := defendedLedger(t, src, &DefenseSpec{GoldenPass: 1})
	lease, err := l.Assign(0)
	if err != nil {
		t.Fatal(err)
	}
	if !lease.Golden {
		t.Fatalf("lease %+v not golden", lease)
	}
	clk.Advance(2 * DefaultLeaseTTL)
	if _, err := l.Assign(0); !errors.Is(err, ErrNoTask) {
		t.Fatalf("abandoning worker reassigned: %v, want ErrNoTask", err)
	}
	other, err := l.Assign(1)
	if err != nil {
		t.Fatal(err)
	}
	if !other.Golden || other.Task != 0 {
		t.Fatalf("reclaimed golden task not reissued to another worker: %+v", other)
	}
}

func TestQualityFloorBansOnlySustainedLows(t *testing.T) {
	src := newDefenseSource(8)
	// Quality 0.55 sits above the binary chance clamp (0.5) but below the
	// 0.7 floor. Worker 0 healthy, worker 1 sustained low, worker 2 a
	// single-epoch dip (noise), worker 3 low but with too few answers.
	src.hist = [][]float64{
		{0.9, 0.55, 0.9, 0.55},
		{0.9, 0.55, 0.55, 0.55},
	}
	for w := 0; w < 3; w++ {
		for task := 0; task < 4; task++ {
			src.addAnswer(task, w, 1)
		}
	}
	src.addAnswer(0, 3, 1)
	l, _ := defendedLedger(t, src, &DefenseSpec{MinQuality: 0.7, QualityMinAnswers: 2})

	banned := map[int]bool{}
	for _, s := range l.Suspects() {
		banned[s.Worker] = s.Banned
	}
	if banned[0] || !banned[1] || banned[2] || banned[3] {
		t.Fatalf("bans = %v, want only worker 1 (sustained low with enough answers)", banned)
	}
	if _, err := l.Assign(1); !errors.Is(err, ErrWorkerBanned) {
		t.Fatalf("banned worker assigned: %v", err)
	}
}

func TestQualityDropDetectsSustainedCollapse(t *testing.T) {
	src := newDefenseSource(8)
	// Worker 1 collapses 0.9 → 0.55 and stays there; worker 2 has one
	// bad epoch then recovers (the estimate was noise, not a sleeper).
	src.hist = [][]float64{
		{0.9, 0.9, 0.9},
		{0.9, 0.9, 0.55},
		{0.9, 0.55, 0.9},
		{0.9, 0.55, 0.9},
	}
	for w := 0; w < 3; w++ {
		for task := 0; task < 4; task++ {
			src.addAnswer(task, w, 1)
		}
	}
	l, _ := defendedLedger(t, src, &DefenseSpec{QualityDrop: 0.3, QualityMinAnswers: 2})

	state := map[int]Suspect{}
	for _, s := range l.Suspects() {
		state[s.Worker] = s
	}
	if state[0].Banned || !state[1].Banned || state[2].Banned {
		t.Fatalf("suspects = %+v, want only worker 1 banned", state)
	}
	if state[1].BanReason != "quality" || state[1].QualityDrop < 0.3 {
		t.Fatalf("worker 1 dossier = %+v, want quality ban with recorded drop", state[1])
	}
}

func TestDownWeightOnlyKeepsWorkersAssignable(t *testing.T) {
	src := newDefenseSource(8)
	src.hist = [][]float64{{0.9, 0.55}, {0.9, 0.55}}
	for task := 0; task < 4; task++ {
		src.addAnswer(task, 1, 1)
	}
	l, _ := defendedLedger(t, src, &DefenseSpec{MinQuality: 0.7, QualityMinAnswers: 2, DownWeightOnly: true})

	sus := l.Suspects()
	if len(sus) == 0 {
		t.Fatal("no suspects")
	}
	var w1 Suspect
	for _, s := range sus {
		if s.Worker == 1 {
			w1 = s
		}
	}
	if w1.Banned || !w1.DownWeighted {
		t.Fatalf("worker 1 = %+v, want down-weighted not banned", w1)
	}
	if _, err := l.Assign(1); err != nil {
		t.Fatalf("down-weighted worker must stay assignable: %v", err)
	}
	if st := l.Stats(); st.DownWeightedWorkers != 1 || st.BannedWorkers != 0 {
		t.Fatalf("stats = %+v, want 1 down-weighted, 0 banned", st)
	}
}

func TestCollusionFlagsWrongAgreementPairs(t *testing.T) {
	src := newDefenseSource(8)
	// Workers 3 and 4 agree on the non-consensus label (1) on four
	// shared tasks; workers 0 and 1 answer the consensus label on the
	// same tasks (agreeing, but correctly).
	for task := 0; task < 4; task++ {
		src.addAnswer(task, 3, 1)
		src.addAnswer(task, 4, 1)
		src.addAnswer(task, 0, 0)
		src.addAnswer(task, 1, 0)
	}
	// Break worker 0/1's perfect agreement so only the ring could trip
	// the identical-stream rule.
	src.addAnswer(4, 0, 0)
	src.addAnswer(4, 1, 1)
	l, _ := defendedLedger(t, src, &DefenseSpec{CollusionThreshold: 0.8, CollusionMinOverlap: 3, CollusionPartners: 1})

	state := map[int]Suspect{}
	for _, s := range l.Suspects() {
		state[s.Worker] = s
	}
	if !state[3].Banned || !state[4].Banned {
		t.Fatalf("wrong-agreeing pair not banned: %+v / %+v", state[3], state[4])
	}
	if state[3].BanReason != "collusion" || state[3].CollusionScore < 0.8 || state[3].CollusionPartners != 1 {
		t.Fatalf("worker 3 dossier = %+v", state[3])
	}
	if state[0].Banned || state[1].Banned {
		t.Fatalf("consensus-agreeing pair banned: %+v / %+v", state[0], state[1])
	}
	if st := l.Stats(); st.CollusionPairs != 1 {
		t.Fatalf("stats = %+v, want 1 collusion pair", st)
	}
}

func TestCollusionFlagsPerfectParrots(t *testing.T) {
	// A copy-paste pair that always matches the consensus never shows
	// wrong-agreement — the identical-stream rule must flag it anyway.
	src := newDefenseSource(8)
	for task := 0; task < 5; task++ {
		src.addAnswer(task, 5, 0)
		src.addAnswer(task, 6, 0)
	}
	l, _ := defendedLedger(t, src, &DefenseSpec{CollusionThreshold: 0.8, CollusionMinOverlap: 5, CollusionPartners: 1})

	state := map[int]Suspect{}
	for _, s := range l.Suspects() {
		state[s.Worker] = s
	}
	if !state[5].Banned || !state[6].Banned || state[5].CollusionScore != 1 {
		t.Fatalf("parrot pair not flagged: %+v / %+v", state[5], state[6])
	}
}

func TestDefenseStateRebuildsFromStore(t *testing.T) {
	// A daemon restart constructs a fresh ledger over the same store;
	// qualification and bans must be replayed from the persisted
	// answers, not reset.
	src := newDefenseSource(8)
	src.golden = map[int]float64{0: 1, 1: 0}
	spec := &DefenseSpec{GoldenPass: 1, GoldenFails: 2}

	l1, _ := defendedLedger(t, src, spec)
	lease, err := l1.Assign(2)
	if err != nil {
		t.Fatal(err)
	}
	completeLabel(t, l1, lease.ID, 2, src.golden[lease.Task]) // qualify worker 2
	for i := 0; i < 2; i++ {
		lease, err = l1.Assign(9)
		if err != nil {
			t.Fatal(err)
		}
		completeLabel(t, l1, lease.ID, 9, 1-src.golden[lease.Task]) // worker 9 fails out
	}
	// Persist what the ledger collected, as the stream store would.
	src.addAnswer(0, 2, src.golden[0])
	src.addAnswer(0, 9, 1-src.golden[0])
	src.addAnswer(1, 9, 1-src.golden[1])

	l2, _ := defendedLedger(t, src, spec)
	state := map[int]Suspect{}
	for _, s := range l2.Suspects() {
		state[s.Worker] = s
	}
	if !state[2].Qualified || state[2].Banned {
		t.Fatalf("restart lost worker 2's qualification: %+v", state[2])
	}
	if !state[9].Banned || state[9].BanReason != "golden" {
		t.Fatalf("restart lost worker 9's ban: %+v", state[9])
	}
	if _, err := l2.Assign(9); !errors.Is(err, ErrWorkerBanned) {
		t.Fatalf("rebuilt ledger assigned a banned worker: %v", err)
	}
}

func TestSuspectsNilWithoutDefense(t *testing.T) {
	src := newFakeSource(4, 2)
	src.workers = 4
	l := mustLedger(t, src, Config{Policy: LeastAnswered{}, Budget: 10, Now: newFakeClock().Now})
	if sus := l.Suspects(); sus != nil {
		t.Fatalf("undefended ledger returned suspects: %+v", sus)
	}
	if st := l.Stats(); st.BannedWorkers != 0 || st.GoldenPool != 0 {
		t.Fatalf("undefended stats carry defense counters: %+v", st)
	}
}
