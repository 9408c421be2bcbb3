// Package randx provides the deterministic random-sampling substrate used
// by the stochastic inference methods (Gibbs sampling in BCC/CBCC, random
// initialization, tie-breaking) and by the dataset simulators: categorical,
// Beta, Dirichlet and truncated-Gaussian sampling, shuffles, and the
// bootstrap resampling used by the qualification-test experiment (§6.3.2
// of the paper).
//
// All functions take an explicit *rand.Rand so that every experiment in
// the repository is reproducible from a seed.
package randx

import (
	"math"
	"math/rand"
)

// New returns a seeded *rand.Rand with the splittable source from
// math/rand. Use distinct seeds for independent experiment repetitions.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Categorical draws an index from the (not necessarily normalized)
// non-negative weight vector w. If all weights are zero it draws uniformly.
// It panics on an empty weight vector, which is always a programming error
// at the call sites in this repository.
func Categorical(rng *rand.Rand, w []float64) int {
	if len(w) == 0 {
		panic("randx: Categorical on empty weights")
	}
	var total float64
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	if total <= 0 {
		return rng.Intn(len(w))
	}
	u := rng.Float64() * total
	var c float64
	for i, x := range w {
		if x > 0 {
			c += x
		}
		if u < c {
			return i
		}
	}
	return len(w) - 1
}

// Gamma draws from the Gamma(shape, 1) distribution using the
// Marsaglia–Tsang method, with the standard shape<1 boost.
func Gamma(rng *rand.Rand, shape float64) float64 {
	if shape <= 0 {
		return math.NaN()
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^{1/a}
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return Gamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta draws from the Beta(a, b) distribution.
func Beta(rng *rand.Rand, a, b float64) float64 {
	x := Gamma(rng, a)
	y := Gamma(rng, b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Dirichlet draws a probability vector from Dirichlet(alpha). The result
// has the same length as alpha.
func Dirichlet(rng *rand.Rand, alpha []float64) []float64 {
	return DirichletInto(rng, alpha, make([]float64, len(alpha)))
}

// DirichletInto is Dirichlet drawing into out, which must have alpha's
// length and must not alias it; it returns out. Both consume the same
// draws from rng, so they produce the same vector.
func DirichletInto(rng *rand.Rand, alpha, out []float64) []float64 {
	var sum float64
	for i, a := range alpha {
		g := Gamma(rng, a)
		out[i] = g
		sum += g
	}
	if sum <= 0 {
		u := 1 / float64(len(alpha))
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// TruncNormal draws from N(mu, sigma²) truncated to [lo, hi] by rejection
// with a safe fallback to clamping after too many rejections (which can
// only happen for pathological intervals far in the tail).
func TruncNormal(rng *rand.Rand, mu, sigma, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := 0; i < 1000; i++ {
		x := mu + sigma*rng.NormFloat64()
		if x >= lo && x <= hi {
			return x
		}
	}
	return math.Min(math.Max(mu, lo), hi)
}

// Shuffle permutes xs in place.
func Shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). If k >= n it returns the full identity permutation (shuffled).
func SampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	Shuffle(rng, idx)
	if k >= n {
		return idx
	}
	return idx[:k]
}

// Bootstrap returns k indices drawn uniformly with replacement from [0, n).
// This is the bootstrap resampling used to simulate a worker's answers to
// a qualification test (paper §6.3.2).
func Bootstrap(rng *rand.Rand, n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 (Steele, Lea, Flood; OOPSLA 2014) passes BigCrush and is
// cheap enough to seed per task or per worker inside a Gibbs sweep —
// unlike math/rand's lagged-Fibonacci source, whose Seed runs a ~20µs
// warm-up loop that would dominate per-entity derivation.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix hashes the parts into one 64-bit value by chaining them through
// SplitMix64. Equal part sequences always produce equal outputs.
func Mix(parts ...int64) uint64 {
	var state uint64 = 0x6A09E667F3BCC909 // golden-ratio-free arbitrary start
	var out uint64
	for _, p := range parts {
		state ^= uint64(p)
		out = splitmix64(&state)
	}
	return out
}

// HashPick deterministically picks an index in [0, n) from the hashed
// parts. The parallel truth steps of PM and CATD use it to break vote
// ties: unlike a shared *rand.Rand, the pick depends only on (seed,
// iteration, task), so it is identical at every parallelism level.
func HashPick(n int, parts ...int64) int {
	if n <= 1 {
		return 0
	}
	return int(Mix(parts...) % uint64(n))
}

// HashPick3 is HashPick with exactly three parts — the (seed, iteration,
// entity) triple every tie-breaking call site uses — without the variadic
// slice, so the zero-allocation inference kernels can call it on their hot
// path. HashPick3(n, a, b, c) == HashPick(n, a, b, c) always.
func HashPick3(n int, a, b, c int64) int {
	if n <= 1 {
		return 0
	}
	var state uint64 = 0x6A09E667F3BCC909
	state ^= uint64(a)
	splitmix64(&state)
	state ^= uint64(b)
	splitmix64(&state)
	state ^= uint64(c)
	return int(splitmix64(&state) % uint64(n))
}

// splitmixSource adapts SplitMix64 to rand.Source64.
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Uint64() uint64  { return splitmix64(&s.state) }
func (s *splitmixSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

// Stream is the per-entity RNG of the parallel Gibbs sweeps: Reseed
// starts an independent deterministic stream keyed by its parts (seed,
// sweep, salt, entity), so entities can be sampled concurrently without
// any draw-order dependence. One Stream serves every entity a goroutine
// samples, so reseeding allocates nothing. A Stream is not safe for
// concurrent use.
type Stream struct {
	src splitmixSource
	rng *rand.Rand
}

// NewStream returns a Stream; Reseed it before drawing.
func NewStream() *Stream {
	s := &Stream{}
	s.rng = rand.New(&s.src)
	return s
}

// Reseed restarts the stream at Mix(parts...) and returns it. Two
// Reseeds with equal parts yield the same draws, whatever was drawn
// before.
func (s *Stream) Reseed(parts ...int64) *rand.Rand {
	s.src.state = Mix(parts...)
	return s.rng
}

// Zipf draws from a bounded Zipf-like distribution over {0,...,n-1} with
// exponent s, i.e. Pr(i) ∝ 1/(i+1)^s. It is used by the dataset
// simulators to produce the long-tail worker redundancy of Figure 2.
type Zipf struct {
	cum []float64
}

// NewZipf precomputes the cumulative weights for a bounded Zipf
// distribution with n atoms and exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return &Zipf{cum: cum}
}

// Draw samples an atom index in [0, n).
func (z *Zipf) Draw(rng *rand.Rand) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
