package dataset

import (
	"math"
)

// Stats holds the per-dataset statistics reported in Table 5 and
// Section 6.2 of the paper.
type Stats struct {
	Name        string
	Type        TaskType
	NumTasks    int     // n
	NumTruth    int     // #truth
	NumAnswers  int     // |V|
	Redundancy  float64 // |V|/n
	NumWorkers  int     // |W|
	Consistency float64 // C from §6.2.1 (entropy for categorical, deviation for numeric)
}

// ComputeStats returns the Table-5 row plus the consistency value for d.
func ComputeStats(d *Dataset) Stats {
	return Stats{
		Name:        d.Name,
		Type:        d.Type,
		NumTasks:    d.NumTasks,
		NumTruth:    len(d.Truth),
		NumAnswers:  len(d.Answers),
		Redundancy:  d.Redundancy(),
		NumWorkers:  d.NumWorkers,
		Consistency: Consistency(d),
	}
}

// Consistency computes the data-consistency measure C of §6.2.1.
//
// For categorical datasets it is the average per-task entropy of the
// answer distribution with logarithms taken base ℓ, so C ∈ [0,1] and lower
// means more consistent. Tasks with no answers contribute zero entropy.
//
// For numeric datasets it is the average root-mean-square deviation of a
// task's answers around their median; C ∈ [0,∞) and lower is more
// consistent.
func Consistency(d *Dataset) float64 {
	if d.NumTasks == 0 {
		return 0
	}
	if d.Categorical() {
		logBase := math.Log(float64(d.NumChoices))
		var total float64
		counts := make([]float64, d.NumChoices)
		for task := 0; task < d.NumTasks; task++ {
			idxs := d.TaskAnswers(task)
			if len(idxs) == 0 {
				continue
			}
			for i := range counts {
				counts[i] = 0
			}
			for _, ai := range idxs {
				counts[d.Answers[ai].Label()]++
			}
			n := float64(len(idxs))
			var h float64
			for _, c := range counts {
				if c > 0 {
					p := c / n
					h -= p * math.Log(p) / logBase
				}
			}
			total += h
		}
		return total / float64(d.NumTasks)
	}
	var total float64
	vals := make([]float64, 0, 64)
	for task := 0; task < d.NumTasks; task++ {
		idxs := d.TaskAnswers(task)
		if len(idxs) == 0 {
			continue
		}
		vals = vals[:0]
		for _, ai := range idxs {
			vals = append(vals, d.Answers[ai].Value)
		}
		med := medianOf(vals)
		var ss float64
		for _, v := range vals {
			dv := v - med
			ss += dv * dv
		}
		total += math.Sqrt(ss / float64(len(vals)))
	}
	return total / float64(d.NumTasks)
}

// WorkerRedundancy returns, for each worker, the number of tasks they
// answered — the raw data behind the Figure 2 histograms.
func WorkerRedundancy(d *Dataset) []int {
	out := make([]int, d.NumWorkers)
	for w := range out {
		out[w] = d.csr.WorkerDegree(w)
	}
	return out
}

// RedundancyHistogram buckets WorkerRedundancy into nbins equal-width bins
// over [0, max], returning bin upper edges and counts (the shape plotted
// in Figure 2).
func RedundancyHistogram(d *Dataset, nbins int) (edges []float64, counts []int) {
	red := WorkerRedundancy(d)
	maxR := 0
	for _, r := range red {
		if r > maxR {
			maxR = r
		}
	}
	if nbins <= 0 {
		nbins = 10
	}
	edges = make([]float64, nbins)
	counts = make([]int, nbins)
	width := float64(maxR) / float64(nbins)
	if width == 0 {
		width = 1
	}
	for i := range edges {
		edges[i] = width * float64(i+1)
	}
	for _, r := range red {
		bin := int(float64(r) / width)
		if bin >= nbins {
			bin = nbins - 1
		}
		counts[bin]++
	}
	return edges, counts
}

// WorkerAccuracy returns each worker's accuracy against the known truth
// (Figure 3 for categorical datasets). Workers who answered no
// truth-bearing task get NaN.
func WorkerAccuracy(d *Dataset) []float64 {
	out := make([]float64, d.NumWorkers)
	for w := 0; w < d.NumWorkers; w++ {
		correct, total := 0, 0
		for _, ai := range d.WorkerAnswers(w) {
			a := d.Answers[ai]
			tv, ok := d.Truth[a.Task]
			if !ok {
				continue
			}
			total++
			if a.Label() == int(tv) {
				correct++
			}
		}
		if total == 0 {
			out[w] = math.NaN()
		} else {
			out[w] = float64(correct) / float64(total)
		}
	}
	return out
}

// WorkerRMSE returns each worker's RMSE against the known truth (Figure 3
// for numeric datasets). Workers who answered no truth-bearing task get
// NaN.
func WorkerRMSE(d *Dataset) []float64 {
	out := make([]float64, d.NumWorkers)
	for w := 0; w < d.NumWorkers; w++ {
		var ss float64
		total := 0
		for _, ai := range d.WorkerAnswers(w) {
			a := d.Answers[ai]
			tv, ok := d.Truth[a.Task]
			if !ok {
				continue
			}
			total++
			dv := a.Value - tv
			ss += dv * dv
		}
		if total == 0 {
			out[w] = math.NaN()
		} else {
			out[w] = math.Sqrt(ss / float64(total))
		}
	}
	return out
}

// QualityHistogram buckets a per-worker quality vector (accuracy or RMSE)
// into nbins equal-width bins over [lo, hi], ignoring NaNs — the shape
// plotted in Figure 3.
func QualityHistogram(quality []float64, lo, hi float64, nbins int) (edges []float64, counts []int) {
	if nbins <= 0 {
		nbins = 10
	}
	edges = make([]float64, nbins)
	counts = make([]int, nbins)
	width := (hi - lo) / float64(nbins)
	if width <= 0 {
		width = 1
	}
	for i := range edges {
		edges[i] = lo + width*float64(i+1)
	}
	for _, q := range quality {
		if math.IsNaN(q) {
			continue
		}
		bin := int((q - lo) / width)
		if bin < 0 {
			bin = 0
		}
		if bin >= nbins {
			bin = nbins - 1
		}
		counts[bin]++
	}
	return edges, counts
}

// MeanWorkerQuality returns the mean of a per-worker quality vector,
// skipping NaN entries (the summary numbers quoted in §6.2.3).
func MeanWorkerQuality(quality []float64) float64 {
	var s float64
	n := 0
	for _, q := range quality {
		if math.IsNaN(q) {
			continue
		}
		s += q
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

func medianOf(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	// insertion sort; per-task answer lists are short
	for i := 1; i < len(cp); i++ {
		x := cp[i]
		j := i
		for j > 0 && cp[j-1] > x {
			cp[j] = cp[j-1]
			j--
		}
		cp[j] = x
	}
	n := len(cp)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}
