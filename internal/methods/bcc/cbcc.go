package bcc

// This file implements CBCC (Venanzi et al., "Community-based Bayesian
// aggregation models for crowdsourcing", WWW 2014), which extends BCC
// with worker communities: each worker belongs to one of M communities,
// each community has a representative confusion matrix, and workers in
// the same community share very similar confusion matrices (paper
// §5.3(2)). It lives in this package because it reuses BCC's Gibbs
// chassis.

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
)

// DefaultCommunities is the number of worker communities M when the field
// is zero; the original paper finds a handful of communities (good
// workers, spammers, biased workers) suffices.
const DefaultCommunities = 3

// CommunityStrength is the concentration of a worker's confusion prior
// around the community's representative matrix: the community row scaled
// by this factor acts as pseudo-counts for the worker's Dirichlet.
const CommunityStrength = 10.0

// CBCC is the community-based Bayesian confusion-matrix method.
type CBCC struct {
	// Communities overrides DefaultCommunities when positive.
	Communities int
}

// NewCBCC returns a CBCC instance with the default community count.
func NewCBCC() *CBCC { return &CBCC{} }

// Name implements core.Method.
func (*CBCC) Name() string { return "CBCC" }

// Capabilities implements core.Method.
func (*CBCC) Capabilities() core.Capabilities {
	return core.Capabilities{
		TaskTypes:   []dataset.TaskType{dataset.Decision, dataset.SingleChoice},
		TaskModel:   "none",
		WorkerModel: "confusion matrix (community)",
		Technique:   core.PGM,
	}
}

// Infer implements core.Method.
func (m *CBCC) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	M := m.Communities
	if M <= 0 {
		M = DefaultCommunities
	}
	sweeps := DefaultSweeps
	if opts.MaxIterations > 0 {
		sweeps = opts.MaxIterations
	}
	burn := int(BurnInFraction * float64(sweeps))
	rng := randx.New(opts.Seed)

	g := newGibbsState(d, rng, opts.Seed, opts.EnginePool())
	ell := d.NumChoices
	cm := newCommunities(g, M)
	membership := cm.membership
	for w := range membership {
		membership[w] = rng.Intn(M)
	}

	tally := make([]float64, d.NumTasks*ell)
	diagSum := make([]float64, d.NumWorkers)
	memTally := make([]int, d.NumWorkers*M)
	samples := 0

	for sweep := 0; sweep < sweeps; sweep++ {
		g.step(int64(sweep))
		cm.sampleMemberships()
		cm.update()
		if sweep >= burn {
			samples++
			for i, z := range g.labels {
				tally[i*ell+z]++
			}
			for w := 0; w < d.NumWorkers; w++ {
				var s float64
				for j := 0; j < ell; j++ {
					s += g.conf.row(w, j)[j]
				}
				diagSum[w] += s / float64(ell)
				memTally[w*M+membership[w]]++
			}
		}
	}
	if samples == 0 {
		samples = 1
	}

	// Modal community assignment over the post-burn-in samples (ties to
	// the lowest community id).
	community := make([]int, d.NumWorkers)
	for w := 0; w < d.NumWorkers; w++ {
		best := 0
		for c := 1; c < M; c++ {
			if memTally[w*M+c] > memTally[w*M+best] {
				best = c
			}
		}
		community[w] = best
	}

	post := make([][]float64, d.NumTasks)
	truth := make([]float64, d.NumTasks)
	for i := range post {
		row := tally[i*ell : (i+1)*ell]
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
		Community:     community,
		Iterations:    sweeps,
		Converged:     true,
	}, nil
}

// communities is CBCC's state on top of the Gibbs chassis: each
// community's representative confusion matrix, its logs (taken once per
// sweep), every worker's current community, and reused scratch.
type communities struct {
	g          *gibbsState
	m          int
	rep        *confusion // representative matrices
	logRep     *confusion // logOf(rep), refreshed by sampleMemberships
	agg        *confusion // update's member-count aggregate
	membership []int
	logw       [][]float64            // per-slot log weights over communities
	memberStep func(slot, lo, hi int) // drawMemberships, bound once
}

// newCommunities attaches m communities to g, with staggered initial
// diagonals so they start distinct (e.g. experts / average / spammers).
// Memberships start at community 0; the caller draws them.
func newCommunities(g *gibbsState, m int) *communities {
	ell := g.ell
	cm := &communities{
		g:          g,
		m:          m,
		rep:        newConfusion(m, ell),
		logRep:     newConfusion(m, ell),
		agg:        newConfusion(m, ell),
		membership: make([]int, g.c.NumWorkers),
		logw:       make([][]float64, len(g.slots)),
	}
	for s := range cm.logw {
		cm.logw[s] = make([]float64, m)
	}
	cm.memberStep = cm.drawMemberships
	for c := 0; c < m; c++ {
		diag := 0.9 - 0.3*float64(c)/math.Max(1, float64(m-1))
		off := (1 - diag) / float64(ell-1)
		for j := 0; j < ell; j++ {
			row := cm.rep.row(c, j)
			for k := range row {
				if j == k {
					row[k] = diag
				} else {
					row[k] = off
				}
			}
		}
	}
	g.comm = cm
	return cm
}

// sampleMemberships re-draws every worker's community from the categorical
// likelihood of their current (label, answer) counts under each
// community's representative matrix, whose logs it takes once up front.
func (cm *communities) sampleMemberships() {
	cm.g.refreshCounts()
	logBlock(cm.logRep.flat, cm.rep.flat)
	cm.g.pool.ForSlot(cm.g.c.NumWorkers, cm.memberStep)
}

// drawMemberships is sampleMemberships fanned out over workers — worker
// w draws from the (seed, sweep, saltMembership, w) stream.
func (cm *communities) drawMemberships(slot, wlo, whi int) {
	g, logw := cm.g, cm.logw[slot]
	for w := wlo; w < whi; w++ {
		cnt := g.counts.block(w)
		for c := 0; c < cm.m; c++ {
			lrep := cm.logRep.block(c)
			var ll float64
			for x, n := range cnt {
				if n > 0 {
					ll += n * lrep[x]
				}
			}
			logw[c] = ll
		}
		mathx.NormalizeLog(logw)
		cm.membership[w] = randx.Categorical(g.slots[slot].rng.Reseed(g.seed, g.sweep, saltMembership, int64(w)), logw)
	}
}

// update recomputes each community's representative matrix as the
// smoothed aggregate of its members' counts.
func (cm *communities) update() {
	g, ell, agg := cm.g, cm.g.ell, cm.agg
	for i := range agg.flat {
		agg.flat[i] = 0
	}
	for w, c := range cm.membership {
		row := agg.block(c)
		for x, n := range g.counts.block(w) {
			row[x] += n
		}
	}
	for c := 0; c < cm.m; c++ {
		for j := 0; j < ell; j++ {
			row := agg.row(c, j)
			for k := range row {
				p := rowPriorOff
				if j == k {
					p = rowPriorDiag
				}
				row[k] += p
			}
			mathx.Normalize(row)
			copy(cm.rep.row(c, j), row)
		}
	}
}
