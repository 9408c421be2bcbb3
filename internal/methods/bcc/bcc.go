// Package bcc implements BCC (Kim & Ghahramani, "Bayesian classifier
// combination", AISTATS 2012) as surveyed in §5.3(2) of the paper.
//
// BCC is a fully Bayesian confusion-matrix model: it maximizes the
// posterior joint probability
//
//	Π_i Pr(v*_i | β) Π_w Pr(q^w | α) Π_i Π_{w∈W_i} Pr(v^w_i | q^w, v*_i)
//
// with Dirichlet priors α on each confusion row and β on the class prior,
// and infers the parameters by Gibbs sampling: alternately sampling every
// task's label from its conditional, every worker's confusion rows from
// their Dirichlet posteriors, and the class prior. After burn-in the
// label samples are accumulated and the posterior mode is reported — this
// is why BCC needs noticeably more iterations than the EM methods
// (paper §6.3.1(2)).
package bcc

import (
	"math"
	"math/rand"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/engine"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
)

// Default Gibbs schedule: total sweeps when Options.MaxIterations is zero,
// with the first BurnInFraction discarded.
const (
	DefaultSweeps  = 120
	BurnInFraction = 0.33
)

// Dirichlet hyperparameters: each confusion row gets a diagonally boosted
// prior (workers are a priori better than random), the class prior a
// symmetric one.
const (
	rowPriorOff  = 1.0
	rowPriorDiag = 4.0
	classPrior   = 1.0
)

// Salt constants separating the per-entity RNG streams of one sweep: the
// chain draws every worker's confusion rows, every task's label, the
// class prior and (for CBCC) every worker's membership from independent
// streams keyed by (seed, sweep, salt, entity). Deriving streams instead
// of sharing one *rand.Rand is what lets the sweeps fan out over workers
// and tasks while staying bit-identical at every parallelism level.
const (
	saltConfusion  = 0x1EC5
	saltLabel      = 0x2A93
	saltClass      = 0x3B17
	saltMembership = 0x4D09
)

// BCC is the Gibbs-sampled Bayesian confusion-matrix method.
type BCC struct{}

// New returns a BCC instance.
func New() *BCC { return &BCC{} }

// Name implements core.Method.
func (*BCC) Name() string { return "BCC" }

// Capabilities implements core.Method (Table 4 row: decision-making and
// single-choice, confusion matrix, PGM; no qualification/golden support
// per §6.3.2–6.3.3).
func (*BCC) Capabilities() core.Capabilities {
	return core.Capabilities{
		TaskTypes:   []dataset.TaskType{dataset.Decision, dataset.SingleChoice},
		TaskModel:   "none",
		WorkerModel: "confusion matrix",
		Technique:   core.PGM,
	}
}

// Infer implements core.Method.
func (m *BCC) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	sweeps := DefaultSweeps
	if opts.MaxIterations > 0 {
		sweeps = opts.MaxIterations
	}
	burn := int(BurnInFraction * float64(sweeps))
	rng := randx.New(opts.Seed)

	g := newGibbsState(d, rng, opts.Seed, opts.EnginePool())
	tally := make([]float64, d.NumTasks*d.NumChoices)
	diagSum := make([]float64, d.NumWorkers)
	samples := 0

	for sweep := 0; sweep < sweeps; sweep++ {
		g.step(int64(sweep))
		if sweep >= burn {
			samples++
			for i, z := range g.labels {
				tally[i*d.NumChoices+z]++
			}
			for w := 0; w < d.NumWorkers; w++ {
				var s float64
				for j := 0; j < d.NumChoices; j++ {
					s += g.conf.row(w, j)[j]
				}
				diagSum[w] += s / float64(d.NumChoices)
			}
		}
	}
	if samples == 0 {
		samples = 1
	}

	post := make([][]float64, d.NumTasks)
	truth := make([]float64, d.NumTasks)
	for i := range post {
		row := tally[i*d.NumChoices : (i+1)*d.NumChoices]
		mathx.Normalize(row)
		post[i] = row
		truth[i] = float64(core.ArgmaxTieBreak(row, rng.Intn))
	}
	quality := make([]float64, d.NumWorkers)
	for w := range quality {
		quality[w] = diagSum[w] / float64(samples)
	}
	return &core.Result{
		Truth:         truth,
		Posterior:     post,
		WorkerQuality: quality,
		Iterations:    sweeps,
		Converged:     true,
	}, nil
}

// gibbsState holds the chain's variables; it is shared with the CBCC
// implementation in cbcc.go, which reuses the same chassis. The sweeps
// read the dataset's CSR arrays, whose rows keep ascending answer order,
// and allocate nothing: the per-goroutine streams and scratch and the
// step functions handed to the pool are all built once per Infer.
type gibbsState struct {
	c     *dataset.CSR
	ell   int
	seed  int64        // base seed for per-(sweep, entity) RNG streams
	pool  *engine.Pool // fans sweep inner loops out over workers/tasks
	sweep int64        // the sweep being sampled, read by the step functions

	labels     []int      // current z_i
	conf       *confusion // current per-worker confusion matrices
	classProbs []float64  // current class prior ρ
	// counts[w][j][k]: worker w's answers k on tasks currently labeled j.
	counts *confusion
	// logConf and logPrior hold the logs of conf and classProbs, taken
	// once per sweep right after each draw, so the label step takes no
	// log per answer.
	logConf  *confusion
	logPrior []float64

	// comm, when non-nil (CBCC), replaces the flat diagonal prior of each
	// worker's confusion rows with its community's representative rows.
	comm *communities

	classAlpha []float64   // class-prior Dirichlet parameters
	slots      []gibbsSlot // one per pool goroutine slot

	// The loop bodies handed to pool.ForSlot, as method values bound
	// once: evaluating g.countRows at every call would allocate.
	countStep, confStep, labelStep func(slot, lo, hi int)
}

// gibbsSlot is one pool goroutine's RNG stream and scratch.
type gibbsSlot struct {
	rng   *randx.Stream
	alpha []float64 // Dirichlet parameters of one confusion row
	logw  []float64 // log weights of one task's label
}

func newGibbsState(d *dataset.Dataset, rng *rand.Rand, seed int64, pool *engine.Pool) *gibbsState {
	ell := d.NumChoices
	g := &gibbsState{
		c:          d.CSR(),
		ell:        ell,
		seed:       seed,
		pool:       pool,
		labels:     make([]int, d.NumTasks),
		conf:       newConfusion(d.NumWorkers, ell),
		classProbs: make([]float64, ell),
		counts:     newConfusion(d.NumWorkers, ell),
		logConf:    newConfusion(d.NumWorkers, ell),
		logPrior:   make([]float64, ell),
		classAlpha: make([]float64, ell),
		slots:      make([]gibbsSlot, pool.Workers()),
	}
	for s := range g.slots {
		g.slots[s] = gibbsSlot{rng: randx.NewStream(), alpha: make([]float64, ell), logw: make([]float64, ell)}
	}
	g.countStep, g.confStep, g.labelStep = g.countRows, g.drawConfusions, g.drawLabels

	// Initialize labels by majority vote with random tie-breaks: a good
	// chain start that matches the EM methods' initialization.
	c := g.c
	votes := make([]float64, ell)
	for i := 0; i < d.NumTasks; i++ {
		for k := range votes {
			votes[k] = 0
		}
		if c.TaskDegree(i) == 0 {
			g.labels[i] = rng.Intn(ell)
			continue
		}
		for p := c.TaskOff[i]; p < c.TaskOff[i+1]; p++ {
			votes[c.TaskLabel[p]]++
		}
		g.labels[i] = core.ArgmaxTieBreak(votes, rng.Intn)
	}
	for k := range g.classProbs {
		g.classProbs[k] = 1 / float64(ell)
	}
	return g
}

// step runs one Gibbs sweep: every worker's confusion rows, the class
// prior, then every task's label.
func (g *gibbsState) step(sweep int64) {
	g.sweep = sweep
	g.refreshCounts()
	g.pool.ForSlot(g.c.NumWorkers, g.confStep)
	g.sampleClassPrior()
	g.pool.ForSlot(g.c.NumTasks, g.labelStep)
}

// refreshCounts rebuilds the (label, answer) count tensor from the current
// labels, fanned out over workers (each goroutine owns disjoint count
// rows).
func (g *gibbsState) refreshCounts() { g.pool.ForSlot(g.c.NumWorkers, g.countStep) }

func (g *gibbsState) countRows(_, wlo, whi int) {
	c, ell := g.c, g.ell
	for w := wlo; w < whi; w++ {
		rows := g.counts.block(w)
		for x := range rows {
			rows[x] = 0
		}
		for q := c.WorkerOff[w]; q < c.WorkerOff[w+1]; q++ {
			rows[g.labels[c.WorkerTask[q]]*ell+int(c.WorkerLabel[q])]++
		}
	}
}

// drawConfusions draws each worker's confusion rows from their Dirichlet
// posteriors, then logs the worker's block — worker w's rows come from
// the (seed, sweep, saltConfusion, w) stream, so the draw is independent
// of every other worker's. Under CBCC the prior pseudo-counts of worker
// w's row j are CommunityStrength times its community's row j instead of
// the flat diagonal prior.
func (g *gibbsState) drawConfusions(slot, wlo, whi int) {
	ell, sc := g.ell, &g.slots[slot]
	alpha := sc.alpha
	for w := wlo; w < whi; w++ {
		rng := sc.rng.Reseed(g.seed, g.sweep, saltConfusion, int64(w))
		for j := 0; j < ell; j++ {
			cnt := g.counts.row(w, j)
			if g.comm != nil {
				base := g.comm.rep.row(g.comm.membership[w], j)
				for k := 0; k < ell; k++ {
					alpha[k] = CommunityStrength*base[k] + cnt[k]
					if alpha[k] <= 0 {
						alpha[k] = 1e-3
					}
				}
			} else {
				for k := 0; k < ell; k++ {
					p := rowPriorOff
					if j == k {
						p = rowPriorDiag
					}
					alpha[k] = p + cnt[k]
				}
			}
			randx.DirichletInto(rng, alpha, g.conf.row(w, j))
		}
		logBlock(g.logConf.block(w), g.conf.block(w))
	}
}

// sampleClassPrior draws ρ from its Dirichlet posterior and logs it.
func (g *gibbsState) sampleClassPrior() {
	for k := range g.classAlpha {
		g.classAlpha[k] = classPrior
	}
	for _, z := range g.labels {
		g.classAlpha[z]++
	}
	randx.DirichletInto(g.slots[0].rng.Reseed(g.seed, g.sweep, saltClass), g.classAlpha, g.classProbs)
	logBlock(g.logPrior, g.classProbs)
}

// drawLabels draws each task's label from its full conditional, fanned
// out over tasks — task i's draw comes from the (seed, sweep, saltLabel,
// i) stream.
func (g *gibbsState) drawLabels(slot, ilo, ihi int) {
	c, ell, sc := g.c, g.ell, &g.slots[slot]
	logw := sc.logw
	for i := ilo; i < ihi; i++ {
		copy(logw, g.logPrior)
		for p := c.TaskOff[i]; p < c.TaskOff[i+1]; p++ {
			lrows := g.logConf.block(int(c.TaskWorker[p]))
			lab := int(c.TaskLabel[p])
			for j := 0; j < ell; j++ {
				logw[j] += lrows[j*ell+lab]
			}
		}
		mathx.NormalizeLog(logw)
		g.labels[i] = randx.Categorical(sc.rng.Reseed(g.seed, g.sweep, saltLabel, int64(i)), logw)
	}
}

// logBlock sets dst[x] = logOf(src[x]).
func logBlock(dst, src []float64) {
	for x, v := range src {
		dst[x] = logOf(v)
	}
}

func logOf(x float64) float64 {
	if x < 1e-12 {
		x = 1e-12
	}
	return math.Log(x)
}

// confusion is a dense workers × ℓ × ℓ tensor backed by one slice.
type confusion struct {
	flat []float64
	ell  int
}

func newConfusion(workers, ell int) *confusion {
	return &confusion{flat: make([]float64, workers*ell*ell), ell: ell}
}

func (c *confusion) row(worker, j int) []float64 {
	base := (worker*c.ell + j) * c.ell
	return c.flat[base : base+c.ell]
}

// block returns all ℓ rows of one worker's (or community's) matrix,
// row j at [j·ℓ, (j+1)·ℓ).
func (c *confusion) block(worker int) []float64 {
	n := c.ell * c.ell
	return c.flat[worker*n : (worker+1)*n]
}
