package randx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCategoricalRespectsWeights(t *testing.T) {
	rng := New(1)
	counts := [3]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		counts[Categorical(rng, []float64{1, 2, 1})]++
	}
	want := [3]float64{0.25, 0.5, 0.25}
	for i, c := range counts {
		got := float64(c) / n
		if math.Abs(got-want[i]) > 0.02 {
			t.Errorf("atom %d frequency %.3f, want %.3f", i, got, want[i])
		}
	}
}

func TestCategoricalZeroWeightsUniform(t *testing.T) {
	rng := New(2)
	counts := [4]int{}
	for i := 0; i < 40000; i++ {
		counts[Categorical(rng, []float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if got := float64(c) / 40000; math.Abs(got-0.25) > 0.02 {
			t.Errorf("atom %d frequency %.3f under zero weights", i, got)
		}
	}
}

func TestCategoricalNeverPicksZeroAtom(t *testing.T) {
	rng := New(3)
	for i := 0; i < 10000; i++ {
		if got := Categorical(rng, []float64{0, 1, 0}); got != 1 {
			t.Fatalf("picked zero-weight atom %d", got)
		}
	}
}

func TestCategoricalPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty weights")
		}
	}()
	Categorical(New(1), nil)
}

func TestGammaMoments(t *testing.T) {
	rng := New(4)
	for _, shape := range []float64{0.5, 1, 3, 10} {
		var sum, sum2 float64
		const n = 40000
		for i := 0; i < n; i++ {
			g := Gamma(rng, shape)
			sum += g
			sum2 += g * g
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		if math.Abs(mean-shape) > 0.08*shape+0.02 {
			t.Errorf("Gamma(%v) sample mean %.3f, want %.3f", shape, mean, shape)
		}
		if math.Abs(variance-shape) > 0.15*shape+0.05 {
			t.Errorf("Gamma(%v) sample variance %.3f, want %.3f", shape, variance, shape)
		}
	}
	if !math.IsNaN(Gamma(New(1), -1)) {
		t.Error("Gamma with non-positive shape should be NaN")
	}
}

func TestBetaMomentsAndRange(t *testing.T) {
	rng := New(5)
	const a, b, n = 2.0, 5.0, 40000
	var sum float64
	for i := 0; i < n; i++ {
		x := Beta(rng, a, b)
		if x < 0 || x > 1 {
			t.Fatalf("Beta draw %v outside [0,1]", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-a/(a+b)) > 0.01 {
		t.Errorf("Beta(%v,%v) sample mean %.4f, want %.4f", a, b, mean, a/(a+b))
	}
}

func TestDirichletIsDistribution(t *testing.T) {
	rng := New(6)
	f := func(seed uint8) bool {
		alpha := []float64{0.5 + float64(seed%7), 1.5, 3}
		x := Dirichlet(rng, alpha)
		var sum float64
		for _, v := range x {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTruncNormalStaysInRange(t *testing.T) {
	rng := New(7)
	for i := 0; i < 10000; i++ {
		x := TruncNormal(rng, 0, 10, -5, 5)
		if x < -5 || x > 5 {
			t.Fatalf("TruncNormal draw %v outside [-5,5]", x)
		}
	}
	// Degenerate far-tail interval falls back to clamping.
	if x := TruncNormal(rng, 0, 0.001, 100, 101); x != 100 {
		t.Errorf("far-tail TruncNormal = %v, want clamp to 100", x)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := New(8)
	idx := SampleWithoutReplacement(rng, 100, 30)
	if len(idx) != 30 {
		t.Fatalf("got %d indices, want 30", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	// k >= n returns all indices.
	all := SampleWithoutReplacement(rng, 5, 10)
	if len(all) != 5 {
		t.Errorf("k>n returned %d indices, want 5", len(all))
	}
}

func TestBootstrapRangeAndSize(t *testing.T) {
	rng := New(9)
	idx := Bootstrap(rng, 7, 20)
	if len(idx) != 20 {
		t.Fatalf("got %d indices, want 20", len(idx))
	}
	for _, i := range idx {
		if i < 0 || i >= 7 {
			t.Fatalf("bootstrap index %d out of [0,7)", i)
		}
	}
}

func TestZipfLongTail(t *testing.T) {
	rng := New(10)
	z := NewZipf(50, 1.0)
	counts := make([]int, 50)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw(rng)]++
	}
	// Frequency must broadly decrease with rank and the head must
	// dominate (long-tail shape of Figure 2).
	if counts[0] < counts[10] || counts[10] < counts[49] {
		t.Errorf("Zipf counts not decreasing: head %d, mid %d, tail %d", counts[0], counts[10], counts[49])
	}
	if float64(counts[0])/n < 0.1 {
		t.Errorf("Zipf head share %.3f too small", float64(counts[0])/n)
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if Gamma(a, 2.5) != Gamma(b, 2.5) {
			t.Fatal("Gamma not deterministic under equal seeds")
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	rng := New(11)
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	cp := append([]int(nil), xs...)
	Shuffle(rng, cp)
	if len(cp) != len(xs) {
		t.Fatal("length changed")
	}
	seen := map[int]int{}
	for _, v := range cp {
		seen[v]++
	}
	for _, v := range xs {
		if seen[v] != 1 {
			t.Fatalf("element %d count %d after shuffle", v, seen[v])
		}
	}
}

// TestHashPick3MatchesHashPick pins the fixed-arity hot-path variant to
// the variadic original for a spread of keys and moduli, and checks it
// never allocates (the property the CSR kernels rely on).
func TestHashPick3MatchesHashPick(t *testing.T) {
	keys := []int64{0, 1, -1, 7, 1 << 40, -9999999}
	for _, n := range []int{1, 2, 3, 5, 17} {
		for _, a := range keys {
			for _, b := range keys {
				for _, c := range keys {
					if got, want := HashPick3(n, a, b, c), HashPick(n, a, b, c); got != want {
						t.Fatalf("HashPick3(%d,%d,%d,%d) = %d, HashPick = %d", n, a, b, c, got, want)
					}
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() { HashPick3(5, 1, 2, 3) })
	if allocs != 0 {
		t.Fatalf("HashPick3 allocated %.1f times per call, want 0", allocs)
	}
}

// TestStreamReseedRestarts pins the property the Gibbs sweeps rely on: a
// reseeded Stream yields exactly the draws of a fresh splitmix source at
// Mix(parts...), whatever it drew before.
func TestStreamReseedRestarts(t *testing.T) {
	s := NewStream()
	for _, parts := range [][]int64{{7, 0, 0x2A93, 4}, {7, 3, 0x3B17}, {7, 0, 0x2A93, 4}} {
		fresh := rand.New(&splitmixSource{state: Mix(parts...)})
		rng := s.Reseed(parts...)
		for i := 0; i < 20; i++ {
			if got, want := rng.NormFloat64(), fresh.NormFloat64(); got != want {
				t.Fatalf("parts %v draw %d: %v, fresh source %v", parts, i, got, want)
			}
			if got, want := rng.Intn(5), fresh.Intn(5); got != want {
				t.Fatalf("parts %v draw %d: Intn %d, fresh source %d", parts, i, got, want)
			}
		}
	}
}
