package main

import (
	ti "truthinference"
	"truthinference/internal/query"
)

// stage is one timed layer boundary. Each reports <name>_<unit> (the p50
// of its self time), <name>.n (its sample count) and <name>.busy_s (the
// sum of its self times).
type stage struct{ name, unit string }

var stages = func() []stage {
	s := []stage{
		{"http.serve", "us"}, {"http.decode", "us"}, {"store.append", "us"},
		{"wal.append", "us"}, {"wal.sync_to", "us"},
		{"epoch.total", "ms"}, {"epoch.snapshot", "ms"}, {"epoch.index", "ms"}, {"epoch.csr", "ms"},
		{"epoch.sweep", "ms"}, {"epoch.flush", "us"}, {"epoch.publish", "ms"},
		{"read.truth", "us"}, {"query.catalog", "us"},
	}
	for _, v := range query.ViewNames {
		s = append(s, stage{"query." + v, "ms"})
	}
	return append(s, stage{"assign.score", "us"}, stage{"assign.complete", "us"},
		stage{"setup.preload", "s"}, stage{"setup.first_epoch", "s"})
}()

// layerMetric is one per-layer entry of the result line.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric, in BENCHMARK.json order.
var layerMetrics = func() []layerMetric {
	var out []layerMetric
	for _, s := range stages {
		out = append(out, layerMetric{s.name + "_" + s.unit, s.unit},
			layerMetric{s.name + ".n", "count"}, layerMetric{s.name + ".busy_s", "s"})
	}
	out = append(out,
		layerMetric{"wal.fsyncs_per_ack", "ratio"}, layerMetric{"wal.bytes_per_answer", "bytes"},
		layerMetric{"epoch.count", "count"}, layerMetric{"epoch.batches_per_epoch", "ratio"},
		layerMetric{"epoch.iterations_mean", "count"})
	for _, v := range query.ViewNames {
		out = append(out, layerMetric{"query." + v + ".rows", "count"})
	}
	out = append(out, layerMetric{"assign.no_task", "count"})
	for _, m := range ti.MethodNames() {
		out = append(out, layerMetric{"infer." + sanitize(m) + "_s", "s"})
	}
	out = append(out, layerMetric{"infer.csr_s", "s"}, layerMetric{"infer.iterations", "count"},
		layerMetric{"infer.passes", "count"}, layerMetric{"client.lateness_ms", "ms"})
	for _, m := range e2eNames {
		out = append(out, layerMetric{"overhead." + m.name, m.unit})
	}
	return out
}()

var unitScale = map[string]float64{"us": 1e6, "ms": 1e3, "s": 1}

// perLayer reduces the traced pass's spans, noted samples and the
// workload's own layer values to every per-layer metric. Layers the
// workload does not exercise read 0.
func perLayer(spans []Span, notes map[string][]float64, r *run) map[string]float64 {
	samples := stageSamples(spans, map[string]bool{"epoch.total": true})
	// epoch.publish is what no other span of an epoch covers: epoch.total's
	// self time.
	samples["epoch.publish"] = stageSamples(spans, nil)["epoch.total"]
	samples["epoch.sweep"] = notes["epoch.sweep"]
	for name, xs := range r.layerSamples {
		samples[name] = xs
	}
	out := map[string]float64{}
	for _, l := range layerMetrics {
		out[l.name] = 0
	}
	for _, s := range stages {
		sum := summarize(samples[s.name], 0)
		if sum.N > 0 {
			out[s.name+"_"+s.unit] = sum.Median * unitScale[s.unit]
		}
		out[s.name+".n"] = float64(sum.N)
		out[s.name+".busy_s"] = sum.Sum
	}
	out["epoch.count"] = float64(len(samples["epoch.total"]))
	out["epoch.iterations_mean"] = mean(notes["epoch.iterations"])
	for _, v := range query.ViewNames {
		out["query."+v+".rows"] = mean(notes["query."+v+".rows"])
	}
	out["assign.no_task"] = float64(len(notes["assign.no_task"]))
	if passes := r.layerVals["infer.passes"]; passes > 0 {
		for _, m := range ti.MethodNames() {
			out["infer."+sanitize(m)+"_s"] = summarize(samples["infer."+sanitize(m)], 0).Sum / passes
		}
		out["infer.csr_s"] = summarize(samples["infer.csr"], 0).Sum / passes
	}
	for name, v := range r.layerVals {
		out[name] = v
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
