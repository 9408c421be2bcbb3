package assign

import (
	"fmt"
	"math"
	"sort"

	"truthinference/internal/randx"
)

// Policy scores candidate tasks for one assignment request. The ledger
// takes a score for every eligible task (under the redundancy cap, not
// yet seen by the worker) and issues a lease on the highest-scoring one,
// ties going to the lowest task id. Implementations must be pure
// functions of the request context — the ledger relies on that for its
// deterministic replayability, and for its score cache.
type Policy interface {
	// Name is the registry key (the `policy` value of a Spec).
	Name() string
	// Score returns the desirability of routing task to the requesting
	// worker. Only the ordering within one request matters.
	Score(c *Request, task int) float64
	// Cacheable reports whether Score(c, task) reads only c.Quality,
	// c.Choices, c.Load[task] and task's posterior row. The ledger then
	// keeps each task's score across requests and calls Score again only
	// when one of those changes: the task's load or row, or the
	// requester's probability-correct. Otherwise it calls Score for every
	// eligible task on every request.
	Cacheable() bool
}

// Request is the scoring context of one assignment request: the
// requesting worker, its estimated probability of answering correctly,
// and the ledger's cached view of the serving state. Posterior rows
// reflect the result version the ledger last synced at (an epoch
// boundary; on an incremental method, the last ingest); Load is live
// redundancy accounting (collected answers plus outstanding leases per
// task). A Cacheable policy's score for a task may have been taken under
// an earlier request with the same Quality, Load[task] and row.
type Request struct {
	// Worker is the requesting worker id.
	Worker int
	// Quality is the worker's probability of answering a task correctly,
	// mapped from the serving method's quality estimate and clamped to
	// [1/ℓ, 1); workers the method has no estimate for get the ledger's
	// prior.
	Quality float64
	// Seq is the ledger's assignment sequence number (the random policy
	// hashes it so consecutive requests spread instead of repeating).
	Seq uint64
	// Seed is the ledger seed; all policy randomness must derive from it.
	Seed int64
	// Choices is ℓ for categorical stores (0 for numeric).
	Choices int
	// Load[t] is task t's collected answers plus outstanding leases.
	Load []int
	// Posterior[t·ℓ : (t+1)·ℓ] is task t's posterior over the ℓ labels at
	// the last epoch boundary; nil when the serving method publishes none
	// (numeric methods, or an iterative method before its first epoch).
	Posterior []float64

	// uniform is the 1/ℓ row served for tasks beyond the last epoch's
	// posterior range; the ledger builds it once per request.
	uniform []float64
	// scratch is a ℓ-sized buffer policies may overwrite per Score call
	// (the ledger scores tasks one at a time under its lock).
	scratch []float64
}

// posteriorRow returns task's posterior row, or the uniform row for
// tasks beyond the last epoch's range (new tasks are maximally
// uncertain). It returns nil when no posterior is available at all.
func (c *Request) posteriorRow(task int) []float64 {
	if c.Posterior == nil {
		return nil
	}
	if hi := (task + 1) * c.Choices; hi <= len(c.Posterior) {
		return c.Posterior[hi-c.Choices : hi : hi]
	}
	return c.uniform
}

// ---------------------------------------------------------------------------
// The three built-in policies.

// Random assigns uniformly at random among eligible tasks — the baseline
// every smarter policy must beat. The "randomness" is a deterministic
// hash of (seed, sequence, task), so a ledger replayed from the same
// seed issues the same leases.
type Random struct{}

func (Random) Name() string { return "random" }

func (Random) Score(c *Request, task int) float64 {
	return float64(randx.Mix(c.Seed, int64(c.Seq), int64(task)))
}

// Cacheable is false: Score hashes the request's sequence number.
func (Random) Cacheable() bool { return false }

// LeastAnswered balances redundancy: it routes the worker to the task
// with the fewest collected-plus-outstanding answers, the classic
// round-robin task board.
type LeastAnswered struct{}

func (LeastAnswered) Name() string { return "least-answered" }

func (LeastAnswered) Score(c *Request, task int) float64 {
	return -float64(c.Load[task])
}

// Cacheable is true: Score reads only the task's load.
func (LeastAnswered) Cacheable() bool { return true }

// Uncertainty is the QASCA-style expected-accuracy policy: it routes the
// worker to the task whose posterior the worker's answer is expected to
// sharpen the most. For posterior p over ℓ labels and a worker who is
// correct with probability q (errors uniform over the other labels), the
// score is the expected gain in the task's top posterior mass after one
// more answer:
//
//	gain(p, q) = Σ_a max_z p(z)·Pr(a|z) − max_z p(z),
//	Pr(a|z)    = q if a == z else (1−q)/(ℓ−1)
//
// which is 0 for an uninformative worker (q = 1/ℓ) and grows with both
// the posterior's entropy and the worker's quality — confident tasks and
// useless workers both score near zero.
//
// The served posterior is Laplace-smoothed by the task's current load n
// (collected answers + in-flight leases) before scoring:
//
//	p̃(z) = (n·p(z) + 1) / (n + ℓ)
//
// A raw posterior is overconfident at low redundancy — MV's vote share
// calls a task settled after a single answer, and one EM epoch can push
// a one-answer task to 0.99 — which would starve second opinions
// entirely. Smoothing restores the pseudo-count view: a task with no
// answers is exactly uniform, a 1–1 tie stays maximally uncertain, and
// the smoothing vanishes as real redundancy accumulates. Counting
// in-flight leases in n also tempers pile-ons: a task with three
// outstanding assignments already has three answers coming.
//
// When the serving method exposes no posterior at all (numeric stores,
// or an iterative method before its first epoch) the policy degrades to
// least-answered so cold starts still spread redundancy sensibly.
type Uncertainty struct{}

func (Uncertainty) Name() string { return "uncertainty" }

func (Uncertainty) Score(c *Request, task int) float64 {
	row := c.posteriorRow(task)
	if c.Choices < 2 || row == nil {
		return -float64(c.Load[task])
	}
	n := float64(c.Load[task])
	ell := len(row)
	if cap(c.scratch) < ell {
		c.scratch = make([]float64, ell)
	}
	smoothed := c.scratch[:ell]
	denom := n + float64(ell)
	for k, p := range row {
		smoothed[k] = (n*p + 1) / denom
	}
	return ExpectedAccuracyGain(smoothed, c.Quality)
}

// Cacheable is true: Score reads only the request's quality and choice
// count and the task's load and posterior row.
func (Uncertainty) Cacheable() bool { return true }

// ExpectedAccuracyGain returns the expected increase of max_z p(z) after
// observing one answer from a worker with probability-correct q (errors
// uniform over the other ℓ−1 labels), for a distribution p. It is ≥ 0
// for q ≥ 1/ℓ and exactly 0 at q = 1/ℓ (an uninformative answer cannot
// sharpen the posterior).
func ExpectedAccuracyGain(p []float64, q float64) float64 {
	ell := len(p)
	if ell < 2 {
		return 0
	}
	off := (1 - q) / float64(ell-1)
	// top = max_z p(z), at its first index, and second the largest mass
	// at any other index.
	top, second, at := 0.0, 0.0, -1
	for z, x := range p {
		if x > top {
			top, second, at = x, top, z
		} else if x > second {
			second = x
		}
	}
	var exp float64
	for a, x := range p {
		// max_z p(z)·Pr(a|z): the top joint mass if the worker answers a.
		// Rounding is monotone, so max_{z≠a} p(z)·off is the largest
		// other mass times off, the same product the max picks.
		other := top
		if a == at {
			other = second
		}
		var best float64
		if j := x * q; j > best {
			best = j
		}
		if j := other * off; j > best {
			best = j
		}
		exp += best
	}
	gain := exp - top
	if gain < 0 {
		// Guard against float rounding; the true gain is never negative.
		return 0
	}
	return gain
}

// QualityToProb maps a method-specific worker-quality estimate onto a
// probability of answering correctly, clamped to [1/ℓ, 1−1e-9]. Scales
// above 1 (PM/CATD weights) clamp to the top; NaN or sub-chance values
// clamp to chance, so an adversarial estimate never inverts the score.
func QualityToProb(quality float64, ell int) float64 {
	lo := 0.0
	if ell >= 2 {
		lo = 1 / float64(ell)
	}
	if math.IsNaN(quality) || quality < lo {
		return lo
	}
	if hi := 1 - 1e-9; quality > hi {
		return hi
	}
	return quality
}

// policies is the registry behind ParsePolicy and Spec.Policy.
var policies = map[string]func() Policy{
	"random":         func() Policy { return Random{} },
	"least-answered": func() Policy { return LeastAnswered{} },
	"uncertainty":    func() Policy { return Uncertainty{} },
}

// PolicyNames lists the registered policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policies))
	for n := range policies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParsePolicy resolves a policy name; an unknown name errors with the
// full registry so a typo is immediately actionable.
func ParsePolicy(name string) (Policy, error) {
	if mk, ok := policies[name]; ok {
		return mk(), nil
	}
	return nil, fmt.Errorf("assign: unknown policy %q (valid: %v)", name, PolicyNames())
}
