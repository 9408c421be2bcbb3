// Package golden is the end-to-end regression corpus: three tiny
// checked-in datasets (testdata/*.answers.tsv + *.truth.tsv) and, for
// every method applicable to each, the exact truth vector it inferred
// when the corpus was last blessed (testdata/truths.json) plus a SHA-256
// digest of every bit of its result (testdata/digests.json). The
// table-driven tests diff current output against the goldens, so any
// change to any method's numerical behavior — intended or not — shows up
// as a reviewable diff of this directory.
//
// Regenerate after an intended behavior change with:
//
//	go test ./internal/testutil/golden -update
package golden

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	ti "truthinference"
	"truthinference/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite the golden datasets, expected truths and result digests")

// goldenOptions is the fixed inference configuration of the corpus.
var goldenOptions = ti.Options{Seed: 7, MaxIterations: 50}

// corpus describes the three checked-in datasets. The generator specs
// stay here so -update rebuilds the TSVs and the expected truths from
// the same source of randomness.
var corpus = []struct {
	name     string
	generate func() *ti.Dataset
}{
	{"decision", func() *ti.Dataset {
		return testutil.Categorical(testutil.CrowdSpec{
			NumTasks: 12, NumWorkers: 5, NumChoices: 2, Redundancy: 4, Seed: 2,
		})
	}},
	{"choice4", func() *ti.Dataset {
		return testutil.Categorical(testutil.CrowdSpec{
			NumTasks: 10, NumWorkers: 6, NumChoices: 4, Redundancy: 4, Seed: 3,
		})
	}},
	{"numeric", func() *ti.Dataset {
		return testutil.Numeric(testutil.NumericSpec{
			NumTasks: 8, NumWorkers: 5, Redundancy: 3, Seed: 4,
		})
	}},
}

func truthsPath() string  { return filepath.Join("testdata", "truths.json") }
func digestsPath() string { return filepath.Join("testdata", "digests.json") }

// TestGoldenTruths infers every applicable method over every corpus
// dataset and diffs the truth vector against the blessed golden. Exact
// for categorical labels; numeric estimates tolerate 1e-9 relative
// (cross-platform float scheduling), which is far below any behavioral
// change worth catching.
func TestGoldenTruths(t *testing.T) {
	goldens := map[string]map[string][]float64{}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
	} else {
		data, err := os.ReadFile(truthsPath())
		if err != nil {
			t.Fatalf("golden truths missing (run with -update to bless): %v", err)
		}
		if err := json.Unmarshal(data, &goldens); err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range corpus {
		c := c
		t.Run(c.name, func(t *testing.T) {
			base := filepath.Join("testdata", c.name)
			if *update {
				if err := ti.SaveDataset(base, c.generate()); err != nil {
					t.Fatal(err)
				}
			}
			d, err := ti.LoadDataset(base)
			if err != nil {
				t.Fatalf("load corpus dataset (run with -update to bless): %v", err)
			}
			if *update {
				goldens[c.name] = map[string][]float64{}
			}
			for _, m := range ti.MethodsForType(d.Type) {
				res, err := m.Infer(d, goldenOptions)
				if err != nil {
					t.Errorf("%s: %v", m.Name(), err)
					continue
				}
				if *update {
					goldens[c.name][m.Name()] = res.Truth
					continue
				}
				want, ok := goldens[c.name][m.Name()]
				if !ok {
					t.Errorf("%s: no golden truth recorded (run with -update to bless)", m.Name())
					continue
				}
				diffTruths(t, m.Name(), d.Type == ti.Numeric, res.Truth, want)
			}
		})
	}

	if *update {
		data, err := json.MarshalIndent(goldens, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(truthsPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden corpus rewritten; review and commit the testdata diff")
	}
}

func diffTruths(t *testing.T, method string, numeric bool, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d truths, golden has %d", method, len(got), len(want))
		return
	}
	for i := range got {
		if numeric {
			if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
				t.Errorf("%s: task %d = %v, golden %v", method, i, got[i], want[i])
			}
		} else if got[i] != want[i] {
			t.Errorf("%s: task %d = %v, golden %v", method, i, got[i], want[i])
		}
	}
}

// TestGoldenDigests pins every corpus result bit for bit: for each
// applicable method on each corpus dataset, testdata/digests.json holds a
// SHA-256 over the float64 bits of every Result field. TestGoldenTruths
// catches a changed label; this catches any changed bit, which is the
// contract of kernel rewrites that must not move outputs (columnar sweeps,
// transcendentals hoisted out of inner loops). testdata/options.json
// holds the same digests for each of optionRows. Run it after
// TestGoldenTruths, which regenerates the datasets under -update.
//
// The digests are pinned on amd64 only. Elsewhere the compiler fuses
// multiply-adds and math.Exp is pure Go, so last bits legitimately
// differ. On amd64, math.Exp takes its FMA path when the CPU has AVX and
// FMA, as every current x86-64 server does.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("result digests are pinned on amd64; on %s fused multiply-adds and the pure-Go math.Exp change last bits", runtime.GOARCH)
	}
	digests := map[string]map[string]string{}            // dataset → method → digest
	options := map[string]map[string]map[string]string{} // row → dataset → method → digest
	if !*update {
		readJSON(t, digestsPath(), &digests)
		readJSON(t, optionsPath(), &options)
	}
	for _, c := range corpus {
		t.Run(c.name, func(t *testing.T) {
			d, err := ti.LoadDataset(filepath.Join("testdata", c.name))
			if err != nil {
				t.Fatalf("load corpus dataset (run with -update to bless): %v", err)
			}
			if *update {
				digests[c.name] = map[string]string{}
				for _, row := range optionRows {
					if options[row.name] == nil {
						options[row.name] = map[string]map[string]string{}
					}
					options[row.name][c.name] = map[string]string{}
				}
			}
			for _, m := range ti.MethodsForType(d.Type) {
				res, err := m.Infer(d, goldenOptions)
				if err != nil {
					t.Errorf("%s: %v", m.Name(), err)
					continue
				}
				checkDigest(t, digests[c.name], m.Name(), m.Name(), res)
				for _, row := range optionRows {
					opts, ok := row.options(m, d, res)
					if !ok {
						continue
					}
					label := m.Name() + " at " + row.name
					res, err := m.Infer(d, opts)
					if err != nil {
						t.Errorf("%s: %v", label, err)
						continue
					}
					checkDigest(t, options[row.name][c.name], m.Name(), label, res)
				}
			}
		})
	}
	if *update {
		writeJSON(t, digestsPath(), digests)
		writeJSON(t, optionsPath(), options)
	}
}

// optionRows are the option paths goldenOptions leaves out, each pinned
// for every method whose capabilities accept its option. At cap 3 the EM
// loops stop unconverged, and PM on choice4 converges on exactly its
// last allowed step. At tolerance 2 most loops stop after one step,
// while categorical CATD and PM, whose stop rule ignores the tolerance,
// still take two or three.
var optionRows = []struct {
	name string
	// options returns the row's options for m on d, given m's result at
	// goldenOptions, or false when m's capabilities refuse the option.
	options func(m ti.Method, d *ti.Dataset, def *ti.Result) (ti.Options, bool)
}{
	{"cap 1", withOptions(func(o *ti.Options) { o.MaxIterations = 1 })},
	{"cap 3", withOptions(func(o *ti.Options) { o.MaxIterations = 3 })},
	{"tolerance 0.5", withOptions(func(o *ti.Options) { o.Tolerance = 0.5 })},
	{"tolerance 2", withOptions(func(o *ti.Options) { o.Tolerance = 2 })},
	{"parallelism 2", withOptions(func(o *ti.Options) { o.Parallelism = 2 })},
	{"golden tasks", func(m ti.Method, d *ti.Dataset, _ *ti.Result) (ti.Options, bool) {
		// Every third task with a known truth.
		o := goldenOptions
		o.Golden = map[int]float64{}
		for i := 0; i < d.NumTasks; i += 3 {
			if v, ok := d.Truth[i]; ok {
				o.Golden[i] = v
			}
		}
		return o, m.Capabilities().Golden
	}},
	{"qualification", func(m ti.Method, d *ti.Dataset, _ *ti.Result) (ti.Options, bool) {
		// Accuracies on categorical data, squared errors on numeric
		// data, and NaN (the cold default) for every third worker.
		o := goldenOptions
		q := make([]float64, d.NumWorkers)
		for w := range q {
			switch {
			case w%3 == 0:
				q[w] = math.NaN()
			case d.Type == ti.Numeric:
				q[w] = 25 * float64(1+w%4)
			default:
				q[w] = 0.55 + 0.1*float64(w%4)
			}
		}
		if d.Type == ti.Numeric {
			o.QualificationError = q
		} else {
			o.QualificationAccuracy = q
		}
		return o, m.Capabilities().Qualification
	}},
	{"warm start", func(_ ti.Method, _ *ti.Dataset, def *ti.Result) (ti.Options, bool) {
		o := goldenOptions
		o.WarmStart = def.Warm()
		return o, true
	}},
}

// withOptions returns an optionRows entry that every method accepts:
// goldenOptions changed by set.
func withOptions(set func(*ti.Options)) func(ti.Method, *ti.Dataset, *ti.Result) (ti.Options, bool) {
	return func(ti.Method, *ti.Dataset, *ti.Result) (ti.Options, bool) {
		o := goldenOptions
		set(&o)
		return o, true
	}
}

// checkDigest compares res's digest with table[method], or records it
// there under -update. label names the run in failures.
func checkDigest(t *testing.T, table map[string]string, method, label string, res *ti.Result) {
	t.Helper()
	got := resultDigest(res)
	if *update {
		table[method] = got
		return
	}
	want, ok := table[method]
	switch {
	case !ok:
		t.Errorf("%s: no golden digest recorded (run with -update to bless)", label)
	case got != want:
		t.Errorf("%s: result digest %s, golden %s: some output bit changed", label, got, want)
	}
}

func optionsPath() string { return filepath.Join("testdata", "options.json") }

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden digests missing (run with -update to bless): %v", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// resultDigest hashes every field of r: float64s by their IEEE bits,
// each slice behind its length so that no two different results share a
// byte stream.
func resultDigest(r *ti.Result) string {
	h := sha256.New()
	var buf []byte
	word := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	vec := func(xs []float64) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(math.Float64bits(x))
		}
	}
	vec(r.Truth)
	word(uint64(len(r.Posterior)))
	for _, row := range r.Posterior {
		vec(row)
	}
	vec(r.WorkerQuality)
	vec(r.WorkerVariance)
	word(uint64(len(r.Confusion)))
	for _, m := range r.Confusion {
		word(uint64(len(m)))
		for _, row := range m {
			vec(row)
		}
	}
	word(uint64(len(r.Community)))
	for _, c := range r.Community {
		word(uint64(c))
	}
	word(uint64(r.Iterations))
	converged := uint64(0)
	if r.Converged {
		converged = 1
	}
	word(converged)
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
