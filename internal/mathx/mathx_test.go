package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eulerGamma = 0.5772156649015329

func almost(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

func TestLogisticKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{math.Inf(1), 1},
		{math.Inf(-1), 0},
		{2, 1 / (1 + math.Exp(-2))},
		{-2, 1 / (1 + math.Exp(2))},
	}
	for _, c := range cases {
		if got := Logistic(c.x); !almost(got, c.want, 1e-12) {
			t.Errorf("Logistic(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	// No overflow in the far tails.
	if got := Logistic(1000); got != 1 {
		t.Errorf("Logistic(1000) = %v, want 1", got)
	}
	if got := Logistic(-1000); got != 0 {
		t.Errorf("Logistic(-1000) = %v, want 0", got)
	}
}

func TestLogitLogisticRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 0.98) + 0.01 // p in [0.01, 0.99]
		return almost(Logistic(Logit(p)), p, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogSumExp(t *testing.T) {
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(nil) = %v, want -Inf", got)
	}
	if got := LogSumExp([]float64{0, 0}); !almost(got, math.Ln2, 1e-12) {
		t.Errorf("LogSumExp(0,0) = %v, want ln 2", got)
	}
	// Stability: huge inputs must not overflow.
	if got := LogSumExp([]float64{1000, 1000}); !almost(got, 1000+math.Ln2, 1e-12) {
		t.Errorf("LogSumExp(1000,1000) = %v", got)
	}
	// Property: shifting all inputs by c shifts the result by c.
	f := func(a, b, c float64) bool {
		a, b, c = math.Mod(a, 50), math.Mod(b, 50), math.Mod(c, 50)
		x := LogSumExp([]float64{a, b})
		y := LogSumExp([]float64{a + c, b + c})
		return almost(y, x+c, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Non-finite entries: -Inf adds nothing, and a +Inf or NaN maximum,
	// or a NaN beside a finite one, yields NaN. NaN never compares above
	// -Inf, so an all -Inf-or-NaN slice led by -Inf stays -Inf.
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{-inf, 0}, 0},
		{[]float64{1, 1, -inf}, 1 + math.Log(2)},
		{[]float64{-inf, -inf}, -inf},
		{[]float64{-inf, nan}, -inf},
		{[]float64{inf, 0}, nan},
		{[]float64{0, inf}, nan},
		{[]float64{inf, inf}, nan},
		{[]float64{inf, -inf}, nan},
		{[]float64{nan, 0}, nan},
		{[]float64{0, nan}, nan},
		{[]float64{nan, -inf}, nan},
		{[]float64{inf, nan}, nan},
	} {
		if got := LogSumExp(c.xs); !same(got, c.want) {
			t.Errorf("LogSumExp(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// same reports whether a and b are equal or both NaN.
func same(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

func TestNormalizeLogProducesDistribution(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		logw := make([]float64, len(xs))
		for i, x := range xs {
			logw[i] = math.Mod(x, 100) // keep finite
		}
		NormalizeLog(logw)
		var sum float64
		for _, p := range logw {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return almost(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// All -Inf → uniform.
	logw := []float64{math.Inf(-1), math.Inf(-1)}
	NormalizeLog(logw)
	if logw[0] != 0.5 || logw[1] != 0.5 {
		t.Errorf("NormalizeLog(-Inf,-Inf) = %v, want uniform", logw)
	}
	// Non-finite entries, following LogSumExp's rows above.
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct{ in, want []float64 }{
		{[]float64{-inf, 0}, []float64{0, 1}},
		{[]float64{-inf, nan}, []float64{0.5, 0.5}},
		{[]float64{inf, 0}, []float64{nan, nan}},
		{[]float64{inf, inf}, []float64{nan, nan}},
		{[]float64{nan, 0}, []float64{nan, nan}},
		{[]float64{0, nan}, []float64{nan, nan}},
	} {
		got := append([]float64(nil), c.in...)
		NormalizeLog(got)
		for k := range got {
			if !same(got[k], c.want[k]) {
				t.Errorf("NormalizeLog(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestNormalize(t *testing.T) {
	w := []float64{1, 3}
	Normalize(w)
	if w[0] != 0.25 || w[1] != 0.75 {
		t.Errorf("Normalize = %v", w)
	}
	// Zero vector → uniform.
	z := []float64{0, 0, 0, 0}
	Normalize(z)
	for _, p := range z {
		if p != 0.25 {
			t.Errorf("Normalize(zeros) = %v, want uniform", z)
		}
	}
}

func TestDigammaKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, -eulerGamma},
		{2, 1 - eulerGamma},
		{0.5, -eulerGamma - 2*math.Ln2},
		{10, 2.251752589066721},
	}
	for _, c := range cases {
		if got := Digamma(c.x); !almost(got, c.want, 1e-10) {
			t.Errorf("Digamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if !math.IsNaN(Digamma(0)) || !math.IsNaN(Digamma(-3)) {
		t.Error("Digamma at non-positive integers should be NaN")
	}
}

func TestDigammaRecurrence(t *testing.T) {
	// ψ(x+1) = ψ(x) + 1/x for all x > 0.
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 50) + 0.01
		return almost(Digamma(x+1), Digamma(x)+1/x, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrigammaRecurrenceAndKnown(t *testing.T) {
	if got := Trigamma(1); !almost(got, math.Pi*math.Pi/6, 1e-10) {
		t.Errorf("Trigamma(1) = %v, want π²/6", got)
	}
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 50) + 0.01
		return almost(Trigamma(x+1), Trigamma(x)-1/(x*x), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGammaIncRegKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^{-x} (exponential CDF).
	for _, x := range []float64{0.1, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := GammaIncReg(1, x); !almost(got, want, 1e-10) {
			t.Errorf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(a,0)=0, P(a,∞)=1, complementarity.
	if GammaIncReg(3, 0) != 0 {
		t.Error("P(3,0) != 0")
	}
	if GammaIncReg(3, math.Inf(1)) != 1 {
		t.Error("P(3,Inf) != 1")
	}
	f := func(ra, rx float64) bool {
		a := math.Mod(math.Abs(ra), 30) + 0.1
		x := math.Mod(math.Abs(rx), 60)
		p := GammaIncReg(a, x)
		q := GammaIncRegComp(a, x)
		return p >= 0 && p <= 1 && almost(p+q, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChiSquareCDFAgainstKnownQuantiles(t *testing.T) {
	// Classic table values: χ²(0.95, 1) = 3.841, χ²(0.975, 10) = 20.483.
	cases := []struct{ p, k, want float64 }{
		{0.95, 1, 3.841458820694124},
		{0.975, 10, 20.48317735029304},
		{0.975, 1, 5.023886187314888},
		{0.5, 4, 3.356694},
	}
	for _, c := range cases {
		if got := ChiSquareQuantile(c.p, c.k); !almost(got, c.want, 1e-5) {
			t.Errorf("ChiSquareQuantile(%v,%v) = %v, want %v", c.p, c.k, got, c.want)
		}
	}
}

func TestChiSquareQuantileRoundTrip(t *testing.T) {
	f := func(rp, rk float64) bool {
		p := math.Mod(math.Abs(rp), 0.9) + 0.05
		k := math.Mod(math.Abs(rk), 200) + 0.5
		x := ChiSquareQuantile(p, k)
		return almost(ChiSquareCDF(x, k), p, 1e-7)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestChiSquareQuantileMonotoneInDF(t *testing.T) {
	// The CATD coefficient χ²(0.975, n) must increase with n — the paper's
	// §4.2.4 justification that more answers scale quality up.
	prev := 0.0
	for n := 1; n <= 100; n++ {
		q := ChiSquareQuantile(0.975, float64(n))
		if q <= prev {
			t.Fatalf("χ²(0.975,%d) = %v not greater than χ²(0.975,%d) = %v", n, q, n-1, prev)
		}
		prev = q
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.84134474606854293, 1},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); !almost(got, c.want, 1e-8) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Symmetry property: Q(p) = -Q(1-p).
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 0.98) + 0.01
		return almost(NormalQuantile(p), -NormalQuantile(1-p), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanVarianceMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); !almost(got, 1.25, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if got := Median(xs); got != 2.5 {
		t.Errorf("Median = %v", got)
	}
	if got := Median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("odd Median = %v", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) || !math.IsNaN(Variance(nil)) {
		t.Error("empty-slice statistics should be NaN")
	}
	// Median must not mutate its input.
	orig := []float64{3, 1, 2}
	Median(orig)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Errorf("Median mutated input: %v", orig)
	}
}

func TestMedianMatchesSortDefinition(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, math.Mod(x, 1e6))
			}
		}
		if len(clean) == 0 {
			return true
		}
		med := Median(clean)
		// At least half the points are ≤ med and at least half are ≥ med.
		le, ge := 0, 0
		for _, x := range clean {
			if x <= med {
				le++
			}
			if x >= med {
				ge++
			}
		}
		return 2*le >= len(clean) && 2*ge >= len(clean)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}
