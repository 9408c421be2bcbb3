// Package mathx provides the special-function and numeric-stability
// substrate used by the truth-inference algorithms: digamma/trigamma,
// the regularized incomplete gamma function and its inverse (which gives
// the chi-square quantile needed by CATD), the logistic function, and
// numerically stable log-space reductions.
//
// Everything here is implemented from scratch on top of the standard
// library's math package; no external numeric dependencies are used.
package mathx

import (
	"math"
)

// Logistic returns the standard logistic sigmoid 1/(1+exp(-x)), computed in
// a way that does not overflow for large |x|.
func Logistic(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Logit is the inverse of Logistic: log(p/(1-p)). It returns ±Inf at the
// boundary values 0 and 1.
func Logit(p float64) float64 {
	return math.Log(p / (1 - p))
}

// LogSumExp returns log(sum_i exp(xs[i])) computed stably. It returns -Inf
// for an empty slice, matching the convention log(0) = -Inf.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	// An entry equal to a finite maximum adds exp(0), which is exactly 1.
	// A +Inf or NaN maximum keeps the exp (exp(+Inf − +Inf) is NaN), so
	// such inputs still yield NaN.
	finite := !math.IsInf(m, 1) && !math.IsNaN(m)
	var s float64
	for _, x := range xs {
		if x == m && finite {
			s++
		} else {
			s += math.Exp(x - m)
		}
	}
	return m + math.Log(s)
}

// NormalizeLog exponentiates and normalizes a vector of log-weights in
// place so that the result is a probability distribution. It is stable for
// widely ranged inputs. If all inputs are -Inf the result is uniform.
func NormalizeLog(logw []float64) {
	if len(logw) == 0 {
		return
	}
	lse := LogSumExp(logw)
	if math.IsInf(lse, -1) {
		u := 1 / float64(len(logw))
		for i := range logw {
			logw[i] = u
		}
		return
	}
	for i, x := range logw {
		logw[i] = math.Exp(x - lse)
	}
}

// Normalize scales a non-negative vector in place to sum to one. If the sum
// is zero or not finite it assigns the uniform distribution.
func Normalize(w []float64) {
	if len(w) == 0 {
		return
	}
	var s float64
	for _, x := range w {
		s += x
	}
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		u := 1 / float64(len(w))
		for i := range w {
			w[i] = u
		}
		return
	}
	for i := range w {
		w[i] /= s
	}
}

// Digamma returns the digamma function ψ(x), the derivative of log Γ(x).
// It uses the recurrence ψ(x) = ψ(x+1) - 1/x to shift the argument above 6
// and then the asymptotic expansion. Accuracy is roughly 1e-12 for x > 0.
func Digamma(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	var result float64
	// Reflection for negative arguments: ψ(1-x) - ψ(x) = π·cot(πx).
	if x <= 0 {
		if x == math.Trunc(x) {
			return math.NaN() // poles at non-positive integers
		}
		return Digamma(1-x) - math.Pi/math.Tan(math.Pi*x)
	}
	for x < 6 {
		result -= 1 / x
		x++
	}
	// Asymptotic series: ψ(x) ≈ ln x - 1/(2x) - Σ B_{2n}/(2n x^{2n}).
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - 0.5*inv
	result -= inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2*1.0/132))))
	return result
}

// Trigamma returns ψ'(x), the derivative of the digamma function.
func Trigamma(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	if x <= 0 {
		if x == math.Trunc(x) {
			return math.NaN()
		}
		// ψ'(1-x) + ψ'(x) = π²/sin²(πx)
		s := math.Sin(math.Pi * x)
		return math.Pi*math.Pi/(s*s) - Trigamma(1-x)
	}
	var result float64
	for x < 6 {
		result += 1 / (x * x)
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// ψ'(x) ≈ 1/x + 1/(2x²) + Σ B_{2n}/x^{2n+1}
	result += inv * (1 + 0.5*inv + inv2*(1.0/6-inv2*(1.0/30-inv2*(1.0/42-inv2*1.0/30))))
	return result
}

// GammaIncReg returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x)/Γ(a) for a > 0, x ≥ 0. It uses the power series for
// x < a+1 and the continued fraction for the upper tail otherwise.
func GammaIncReg(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x < 0:
		return math.NaN()
	case x == 0:
		return 0
	case math.IsInf(x, 1):
		return 1
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQContinuedFraction(a, x)
}

// GammaIncRegComp returns the complementary regularized incomplete gamma
// Q(a, x) = 1 - P(a, x).
func GammaIncRegComp(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x < 0:
		return math.NaN()
	case x == 0:
		return 1
	case math.IsInf(x, 1):
		return 0
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinuedFraction(a, x)
}

const (
	gammaEps     = 1e-15
	gammaMaxIter = 500
)

func gammaPSeries(a, x float64) float64 {
	// P(a,x) = x^a e^{-x} / Γ(a) * Σ_{n≥0} x^n / (a(a+1)...(a+n))
	lg, _ := math.Lgamma(a)
	logPrefix := a*math.Log(x) - x - lg
	term := 1 / a
	sum := term
	ap := a
	for n := 0; n < gammaMaxIter; n++ {
		ap++
		term *= x / ap
		sum += term
		if math.Abs(term) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return math.Exp(logPrefix) * sum
}

func gammaQContinuedFraction(a, x float64) float64 {
	// Lentz's algorithm for the continued fraction of Q(a,x).
	lg, _ := math.Lgamma(a)
	logPrefix := a*math.Log(x) - x - lg
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(logPrefix) * h
}

// ChiSquareCDF returns Pr(X ≤ x) for X ~ χ²(k).
func ChiSquareCDF(x, k float64) float64 {
	if x <= 0 {
		return 0
	}
	return GammaIncReg(k/2, x/2)
}

// ChiSquareQuantile returns the p-quantile of the chi-square distribution
// with k degrees of freedom, i.e. the x with Pr(X ≤ x) = p. It starts from
// the Wilson–Hilferty approximation and polishes with bisection-guarded
// Newton iterations on the CDF. Panics are never raised; invalid inputs
// return NaN.
func ChiSquareQuantile(p, k float64) float64 {
	if k <= 0 || p < 0 || p > 1 || math.IsNaN(p) || math.IsNaN(k) {
		return math.NaN()
	}
	if p == 0 {
		return 0
	}
	if p == 1 {
		return math.Inf(1)
	}
	// Wilson–Hilferty: X ≈ k(1 - 2/(9k) + z sqrt(2/(9k)))³
	z := NormalQuantile(p)
	t := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	x := k * t * t * t
	if x <= 0 || math.IsNaN(x) {
		x = k // fall back to the mean
	}
	lo, hi := 0.0, math.Max(4*k+100, 4*x+100)
	// Expand hi until it brackets.
	for ChiSquareCDF(hi, k) < p {
		hi *= 2
		if math.IsInf(hi, 1) {
			return math.NaN()
		}
	}
	for i := 0; i < 200; i++ {
		f := ChiSquareCDF(x, k) - p
		if math.Abs(f) < 1e-13 {
			return x
		}
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		// Newton step using the chi-square pdf.
		pdf := chiSquarePDF(x, k)
		var next float64
		if pdf > 0 {
			next = x - f/pdf
		}
		if pdf <= 0 || next <= lo || next >= hi || math.IsNaN(next) {
			next = (lo + hi) / 2
		}
		if math.Abs(next-x) < 1e-13*(1+x) {
			return next
		}
		x = next
	}
	return x
}

func chiSquarePDF(x, k float64) float64 {
	if x <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(k / 2)
	logp := (k/2-1)*math.Log(x) - x/2 - (k/2)*math.Ln2 - lg
	return math.Exp(logp)
}

// NormalQuantile returns the p-quantile of the standard normal
// distribution using the Acklam rational approximation refined with one
// Halley step against math.Erfc, giving ~1e-15 relative accuracy.
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	if p == 0 {
		return math.Inf(-1)
	}
	if p == 1 {
		return math.Inf(1)
	}
	// Acklam's approximation coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step: e = CDF(x) - p.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// Clamp restricts v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (division by n), or NaN
// for an empty slice.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Median returns the median of xs without modifying the input, or NaN for
// an empty slice. For even lengths it averages the two central values.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	cp := make([]float64, n)
	copy(cp, xs)
	// Insertion-free selection via sort of the copy: n is small in every
	// call site (answers per task), so an O(n log n) sort is fine.
	sortFloats(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

func sortFloats(xs []float64) {
	// Shell sort: avoids importing sort for a tiny utility and is
	// deterministic for NaN-free inputs.
	n := len(xs)
	for gap := n / 2; gap > 0; gap /= 2 {
		for i := gap; i < n; i++ {
			x := xs[i]
			j := i
			for j >= gap && xs[j-gap] > x {
				xs[j] = xs[j-gap]
				j -= gap
			}
			xs[j] = x
		}
	}
}
