package assign

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// This file is the ledger's adversarial-crowd defense layer, the control
// half of ROADMAP item 4's threat model (the attack half lives in
// internal/simulate/closedloop). Three independent detectors run behind
// one serializable DefenseSpec:
//
//   - a golden-task qualification gate: a worker must pass GoldenPass
//     tasks with operator-recorded ground truth before earning real
//     leases, and is banned after GoldenFails wrong golden answers —
//     qualification answers land on truth-anchored tasks, so an
//     adversary's probe spends budget without poisoning inference;
//   - online quality change-detection over the serving method's
//     per-epoch worker-quality history (stream.Service retains it),
//     catching sleepers whose estimated quality collapses mid-stream
//     after a trustworthy start; and
//   - a pairwise answer-correlation collusion score: pairs that answer
//     the same tasks with the same non-consensus label far more often
//     than independent errors explain are flagged, and workers flagged
//     with CollusionPartners or more distinct partners are banned —
//     catching colluding cliques and copy-paste rings while the
//     min-overlap and multi-partner requirements protect honest workers
//     who merely share a mistake.
//
// All defense state rebuilds from the store at construction (golden
// truth, answers, and worker ids are all persisted), so qualification
// and correlation decisions survive a daemon restart exactly like the
// ledger's self-exclusion lists do.

// Defaults for DefenseSpec zero values (applied when the gate they
// parameterize is enabled).
const (
	DefaultGoldenFails       = 2
	DefaultQualityMinAnswers = 8
	DefaultCollusionOverlap  = 8
	DefaultCollusionPartners = 2
)

// ErrWorkerBanned is returned by Assign for workers the defense layer
// has banned; it maps to HTTP 403.
var ErrWorkerBanned = errors.New("assign: worker is banned by the defense layer")

// DefenseSpec is the serializable configuration of the ledger's defense
// layer. The zero value (and a nil pointer) disables every defense; each
// detector activates independently when its threshold is set.
type DefenseSpec struct {
	// GoldenPass is the number of golden tasks (tasks with recorded
	// ground truth) a worker must answer correctly before it is issued
	// real leases (0 = gate off). While unqualified, a worker is routed
	// only golden tasks. The gate is inert until golden truth is
	// ingested (Batch.Truth) — an empty pool gates nobody.
	GoldenPass int `json:"golden_pass,omitempty"`
	// GoldenFails bans a worker after this many wrong golden answers
	// (0 = DefaultGoldenFails when the gate is on). Failures count even
	// after qualification, so golden tasks double as honeypots.
	GoldenFails int `json:"golden_fails,omitempty"`
	// QualityDrop triggers the action when a worker's probability-correct
	// stays this far below its peak over the retained epoch history for
	// two consecutive epochs (one epoch's estimate can be noise; a
	// sleeper's collapse is sustained). 0 = off. Only meaningful under
	// iterative serving methods — the incremental ones model workers
	// uniformly and publish no history.
	QualityDrop float64 `json:"quality_drop,omitempty"`
	// MinQuality triggers the action when a worker's probability-correct
	// stays below this floor for two consecutive epochs (0 = off).
	MinQuality float64 `json:"min_quality,omitempty"`
	// QualityMinAnswers is the minimum delivered answers a worker needs
	// before the quality detectors will judge it
	// (0 = DefaultQualityMinAnswers). A method's estimate over a handful
	// of answers is noise, not evidence.
	QualityMinAnswers int `json:"quality_min_answers,omitempty"`
	// CollusionThreshold flags a pair of workers when the fraction of
	// their co-answered tasks on which they agreed on a non-consensus
	// label reaches it (0 = off). Consensus is the serving posterior's
	// argmax at the epoch boundary. A pair whose answers are identical on
	// every co-answered task is flagged regardless of the score: a
	// copy-paste ring big enough to capture the consensus hides from the
	// wrong-agreement rate, but cannot hide identical answer streams.
	CollusionThreshold float64 `json:"collusion_threshold,omitempty"`
	// CollusionMinOverlap is the minimum co-answered tasks before a pair
	// can be flagged (0 = DefaultCollusionOverlap).
	CollusionMinOverlap int `json:"collusion_min_overlap,omitempty"`
	// CollusionPartners is the number of distinct flagged partners that
	// triggers the action on a worker (0 = DefaultCollusionPartners).
	// Requiring several protects an honest worker whose answers one
	// copycat happens to replay.
	CollusionPartners int `json:"collusion_partners,omitempty"`
	// DownWeightOnly makes the quality and collusion detectors
	// down-weight a worker (score it at chance for routing) instead of
	// banning it. Golden-gate failures always ban: the gate is an entry
	// check, not a posterior judgement.
	DownWeightOnly bool `json:"down_weight_only,omitempty"`
}

// Enabled reports whether any detector is active.
func (d *DefenseSpec) Enabled() bool {
	return d != nil && (d.GoldenPass > 0 || d.QualityDrop > 0 || d.MinQuality > 0 || d.CollusionThreshold > 0)
}

// Validate rejects out-of-range thresholds without building anything.
func (d *DefenseSpec) Validate() error {
	if d == nil {
		return nil
	}
	if d.GoldenPass < 0 || d.GoldenFails < 0 {
		return fmt.Errorf("assign: negative golden gate (pass %d, fails %d)", d.GoldenPass, d.GoldenFails)
	}
	if d.QualityDrop < 0 || d.QualityDrop > 1 {
		return fmt.Errorf("assign: quality drop %v outside [0,1]", d.QualityDrop)
	}
	if d.MinQuality < 0 || d.MinQuality > 1 {
		return fmt.Errorf("assign: min quality %v outside [0,1]", d.MinQuality)
	}
	if d.QualityMinAnswers < 0 {
		return fmt.Errorf("assign: negative quality min answers %d", d.QualityMinAnswers)
	}
	if d.CollusionThreshold < 0 || d.CollusionThreshold > 1 {
		return fmt.Errorf("assign: collusion threshold %v outside [0,1]", d.CollusionThreshold)
	}
	if d.CollusionMinOverlap < 0 || d.CollusionPartners < 0 {
		return fmt.Errorf("assign: negative collusion gate (overlap %d, partners %d)",
			d.CollusionMinOverlap, d.CollusionPartners)
	}
	return nil
}

// GoldenSource is the optional source surface the golden gate reads:
// tasks with operator-recorded ground truth. *stream.Service implements
// it; sources that don't leave the gate inert.
type GoldenSource interface {
	ForEachGolden(f func(task int, truth float64))
}

// QualityHistorian is the optional source surface quality
// change-detection reads: the last epochs' worker-quality vectors,
// oldest first. *stream.Service implements it.
type QualityHistorian interface {
	QualityHistory() (hist [][]float64, version uint64)
}

// taskAnswer is one recorded categorical answer the collusion detector
// correlates over.
type taskAnswer struct {
	worker, label int
}

// workerDefense is one worker's defense dossier.
type workerDefense struct {
	answers      int // delivered answers recorded with a value
	goldenPassed int
	goldenFailed int
	banned       bool
	banReason    string // "golden" | "quality" | "collusion"
	downWeighted bool
	// collusionScore is the worst flagged pair's wrong-agreement rate;
	// partners holds the distinct flagged counterparties.
	collusionScore float64
	partners       map[int]struct{}
	// qualityDrop is the detected peak-to-current probability drop.
	qualityDrop float64
}

// defense is the ledger's defense state, guarded by the ledger mutex.
type defense struct {
	spec DefenseSpec

	golden    map[int]int // golden task → label
	goldenIDs []int       // sorted golden task ids (deterministic routing)
	goldenVer uint64      // store version the pool reflects

	workers map[int]*workerDefense
	byTask  map[int][]taskAnswer // task → recorded answers (collusion only)
	pairs   int                  // total flagged pairs

	sweepVer uint64 // result version of the last detection sweep
	sweepOK  bool
}

// newDefense validates and normalizes the spec. The source must be
// categorical: golden grading and answer correlation compare labels.
func newDefense(spec DefenseSpec, ell int) (*defense, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ell < 2 {
		return nil, errors.New("assign: defenses need a categorical store (golden grading and collusion compare labels)")
	}
	if spec.GoldenPass > 0 && spec.GoldenFails == 0 {
		spec.GoldenFails = DefaultGoldenFails
	}
	if (spec.QualityDrop > 0 || spec.MinQuality > 0) && spec.QualityMinAnswers == 0 {
		spec.QualityMinAnswers = DefaultQualityMinAnswers
	}
	if spec.CollusionThreshold > 0 {
		if spec.CollusionMinOverlap == 0 {
			spec.CollusionMinOverlap = DefaultCollusionOverlap
		}
		if spec.CollusionPartners == 0 {
			spec.CollusionPartners = DefaultCollusionPartners
		}
	}
	return &defense{spec: spec, workers: map[int]*workerDefense{}}, nil
}

// state returns (creating on demand) the worker's dossier.
func (d *defense) state(worker int) *workerDefense {
	st, ok := d.workers[worker]
	if !ok {
		st = &workerDefense{}
		d.workers[worker] = st
	}
	return st
}

// refreshGoldenLocked rebuilds the golden pool from the source when the
// store version moved (golden truth can be posted at any time).
func (l *Ledger) refreshGoldenLocked() {
	d := l.def
	if d == nil || d.spec.GoldenPass == 0 {
		return
	}
	gs, ok := l.src.(GoldenSource)
	if !ok {
		return
	}
	if sv := l.src.StoreVersion(); d.golden != nil && sv == d.goldenVer {
		return
	}
	d.goldenVer = l.src.StoreVersion()
	d.golden = map[int]int{}
	gs.ForEachGolden(func(task int, truth float64) {
		d.golden[task] = int(truth)
	})
	d.goldenIDs = d.goldenIDs[:0]
	for t := range d.golden {
		d.goldenIDs = append(d.goldenIDs, t)
	}
	sort.Ints(d.goldenIDs)
}

// gateActiveLocked reports whether the qualification gate can gate
// anybody: it needs a non-empty golden pool, or every worker would be
// locked out before the operator posts any truth.
func (d *defense) gateActiveLocked() bool {
	return d != nil && d.spec.GoldenPass > 0 && len(d.goldenIDs) > 0
}

// qualifiedLocked reports whether the worker has passed the gate.
func (d *defense) qualifiedLocked(worker int) bool {
	return d.state(worker).goldenPassed >= d.spec.GoldenPass
}

// goldenTaskLocked picks the lowest-id golden task the worker has not
// seen (deterministic), or -1 when its golden chances are spent.
func (l *Ledger) goldenTaskLocked(worker int) int {
	l.excludeLocked(worker)
	for _, t := range l.def.goldenIDs {
		if t >= 0 && t < len(l.mark) && l.mark[t] != l.stamp {
			return t
		}
	}
	return -1
}

// recordLocked feeds one delivered answer into the defense state: the
// collusion detector's per-task record, and — when the task is golden —
// the worker's pass/fail tally. NaN values (the value-less Complete
// path) record nothing.
func (l *Ledger) recordLocked(task, worker int, value float64) {
	d := l.def
	if d == nil || math.IsNaN(value) {
		return
	}
	label := int(value)
	d.state(worker).answers++
	if d.spec.CollusionThreshold > 0 {
		if d.byTask == nil {
			d.byTask = map[int][]taskAnswer{}
		}
		d.byTask[task] = append(d.byTask[task], taskAnswer{worker: worker, label: label})
	}
	if d.spec.GoldenPass == 0 {
		return
	}
	truth, golden := d.golden[task]
	if !golden {
		return
	}
	st := d.state(worker)
	if st.banned {
		return
	}
	if label == truth {
		st.goldenPassed++
		l.cfg.Metrics.observeGolden(true)
		return
	}
	st.goldenFailed++
	l.cfg.Metrics.observeGolden(false)
	if st.goldenFailed >= d.spec.GoldenFails {
		// Golden failures always ban — the gate is an entry check.
		st.banned = true
		st.banReason = "golden"
		l.cfg.Metrics.observeBan("golden")
	}
}

// actionLocked applies the configured detection action (ban, or
// down-weight with DownWeightOnly) to a worker.
func (l *Ledger) actionLocked(st *workerDefense, reason string) {
	if st.banned {
		return
	}
	if l.def.spec.DownWeightOnly {
		if !st.downWeighted {
			st.downWeighted = true
			l.cfg.Metrics.observeDownWeighted()
		}
		return
	}
	st.banned = true
	st.banReason = reason
	l.cfg.Metrics.observeBan(reason)
}

// defenseSweepLocked runs the epoch-boundary detectors: quality
// change-detection over the source's per-epoch history, then the
// pairwise collusion scan against the freshly cached posterior. It runs
// at most once per result version — syncLocked calls it after updating
// the posterior cache.
func (l *Ledger) defenseSweepLocked() {
	d := l.def
	if d == nil {
		return
	}
	if d.sweepOK && l.postVer == d.sweepVer {
		return
	}
	d.sweepVer, d.sweepOK = l.postVer, true
	l.qualitySweepLocked()
	l.collusionSweepLocked()
}

// qualitySweepLocked applies the MinQuality floor and QualityDrop
// change-detector over the source's retained per-epoch quality history.
func (l *Ledger) qualitySweepLocked() {
	d := l.def
	if d.spec.QualityDrop == 0 && d.spec.MinQuality == 0 {
		return
	}
	qh, ok := l.src.(QualityHistorian)
	if !ok {
		return
	}
	hist, _ := qh.QualityHistory()
	if len(hist) == 0 {
		return
	}
	ell := l.src.NumChoices()
	cur := hist[len(hist)-1]
	for w, q := range cur {
		// Only judge workers with enough delivered answers for the
		// method's estimate to mean anything.
		if st, ok := d.workers[w]; !ok || st.answers < d.spec.QualityMinAnswers {
			continue
		}
		p := QualityToProb(q, ell)
		// The drop is measured from the peak of the epochs *before* the
		// last two, and must hold in both of the last two — a single
		// epoch's estimate over sparse new answers is noise, a sleeper's
		// collapse persists.
		prev := p
		if n := len(hist) - 1; n >= 1 && w < len(hist[n-1]) {
			prev = QualityToProb(hist[n-1][w], ell)
		}
		peak := math.Max(p, prev)
		for _, row := range hist[:max(len(hist)-2, 0)] {
			if w < len(row) {
				if pp := QualityToProb(row[w], ell); pp > peak {
					peak = pp
				}
			}
		}
		drop := peak - math.Max(p, prev)
		low := d.spec.MinQuality > 0 && math.Max(p, prev) < d.spec.MinQuality
		fell := d.spec.QualityDrop > 0 && drop >= d.spec.QualityDrop
		if !low && !fell {
			continue
		}
		st := d.state(w)
		if drop > st.qualityDrop {
			st.qualityDrop = drop
		}
		l.actionLocked(st, "quality")
	}
}

// collusionSweepLocked scores every co-answering pair by its
// wrong-agreement rate against the current posterior consensus, flags
// pairs past the threshold, and actions workers with enough distinct
// flagged partners.
func (l *Ledger) collusionSweepLocked() {
	d := l.def
	if d.spec.CollusionThreshold == 0 || len(d.byTask) == 0 || len(l.post) == 0 {
		return
	}
	type pairStat struct{ overlap, agree, wrong int }
	pairs := map[[2]int]*pairStat{}
	for t, answers := range d.byTask {
		if t < 0 || t >= len(l.post) || len(answers) < 2 {
			continue
		}
		row := l.post[t]
		if len(row) == 0 {
			continue
		}
		consensus := 0
		for k, p := range row {
			if p > row[consensus] {
				consensus = k
			}
		}
		for i := 0; i < len(answers); i++ {
			for j := i + 1; j < len(answers); j++ {
				a, b := answers[i], answers[j]
				if a.worker == b.worker {
					continue
				}
				key := [2]int{a.worker, b.worker}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				ps, ok := pairs[key]
				if !ok {
					ps = &pairStat{}
					pairs[key] = ps
				}
				ps.overlap++
				if a.label == b.label {
					ps.agree++
					if a.label != consensus {
						ps.wrong++
					}
				}
			}
		}
	}
	for key, ps := range pairs {
		if ps.overlap < d.spec.CollusionMinOverlap {
			continue
		}
		score := float64(ps.wrong) / float64(ps.overlap)
		if ps.agree == ps.overlap {
			// Perfect parroting over the whole overlap window is never
			// honest — flag even when the ring has captured the consensus.
			score = 1
		}
		if score < d.spec.CollusionThreshold {
			continue
		}
		for _, w := range []int{key[0], key[1]} {
			other := key[0] + key[1] - w
			st := d.state(w)
			if st.partners == nil {
				st.partners = map[int]struct{}{}
			}
			if _, seen := st.partners[other]; !seen {
				st.partners[other] = struct{}{}
				d.pairs++
				l.cfg.Metrics.observeCollusionFlag()
			}
			if score > st.collusionScore {
				st.collusionScore = score
			}
		}
	}
	for _, st := range d.workers {
		if len(st.partners) >= d.spec.CollusionPartners && d.spec.CollusionPartners > 0 {
			l.actionLocked(st, "collusion")
		}
	}
}

// Suspect is one worker's defense dossier as the query plane reads it
// (the rows behind the `suspects` relation and the worker-suspect view).
type Suspect struct {
	Worker       int    `json:"worker"`
	Qualified    bool   `json:"qualified"`
	GoldenPassed int    `json:"golden_passed"`
	GoldenFailed int    `json:"golden_failed"`
	Banned       bool   `json:"banned"`
	BanReason    string `json:"ban_reason,omitempty"`
	DownWeighted bool   `json:"down_weighted"`
	// CollusionScore is the worst flagged pair's wrong-agreement rate;
	// CollusionPartners counts distinct flagged counterparties.
	CollusionScore    float64 `json:"collusion_score,omitempty"`
	CollusionPartners int     `json:"collusion_partners,omitempty"`
	// QualityDrop is the detected peak-to-current probability drop.
	QualityDrop float64 `json:"quality_drop,omitempty"`
}

// Suspects reclaims, re-syncs (running any due detection sweep), and
// returns every worker's defense dossier, ordered by worker id. It
// returns nil when the defense layer is disabled.
func (l *Ledger) Suspects() []Suspect {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.def == nil {
		return nil
	}
	l.reclaimLocked(l.now())
	l.syncLocked()
	gate := l.def.spec.GoldenPass
	out := make([]Suspect, 0, len(l.def.workers))
	for w, st := range l.def.workers {
		out = append(out, Suspect{
			Worker:            w,
			Qualified:         gate == 0 || st.goldenPassed >= gate,
			GoldenPassed:      st.goldenPassed,
			GoldenFailed:      st.goldenFailed,
			Banned:            st.banned,
			BanReason:         st.banReason,
			DownWeighted:      st.downWeighted,
			CollusionScore:    st.collusionScore,
			CollusionPartners: len(st.partners),
			QualityDrop:       st.qualityDrop,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}
