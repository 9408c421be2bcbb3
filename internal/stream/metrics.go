package stream

import (
	"time"

	"truthinference/internal/telemetry"
)

// Metrics is the service's operational instrument bundle, bound to one
// tenant (and serving method) at construction so the hot paths record
// without label lookups. A nil *Metrics is fully inert — every observer
// method no-ops — so uninstrumented services (tests, benchmarks, WAL
// replay) pay one predictable branch.
type Metrics struct {
	admitted      *telemetry.Counter
	shedRate      *telemetry.Counter
	shedQuota     *telemetry.Counter
	quotaInFlight *telemetry.Gauge
	epochSeconds  *telemetry.Histogram
	snapshotStage *telemetry.Histogram
	sweepStage    *telemetry.Histogram
	epochs        *telemetry.Counter
	epochFailures *telemetry.Counter
	iterations    *telemetry.Histogram
	nonConverged  *telemetry.Counter
	warmStarts    *telemetry.Counter
	folded        *telemetry.Counter
}

// iterationBuckets spans one iteration to ten times the default cap of
// the Algorithm-1 loop, in powers of two.
var iterationBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// NewMetrics registers the stream service's instruments on reg with
// per-tenant labels (the epoch series also carry the serving method, and
// the stage histogram the stage, named as BENCHMARK.json's per_layer
// metrics name it). Returns nil — an inert bundle — for a nil registry.
func NewMetrics(reg *telemetry.Registry, tenant, method string) *Metrics {
	if reg == nil {
		return nil
	}
	shed := reg.Counter("truthserve_ingest_answers_shed_total",
		"Answers rejected by ingest admission, by tenant and reason (rate|quota).",
		"tenant", "reason")
	stage := reg.Histogram("truthserve_stage_seconds",
		"Time in each timed stage of the serving path in seconds, by tenant and stage: epoch.snapshot (the store snapshot, index included) and epoch.sweep (Method.Infer).",
		telemetry.LatencyBuckets, "tenant", "stage")
	return &Metrics{
		admitted: reg.Counter("truthserve_ingest_answers_admitted_total",
			"Answers that passed ingest admission, by tenant.",
			"tenant").With(tenant),
		shedRate:  shed.With(tenant, "rate"),
		shedQuota: shed.With(tenant, "quota"),
		quotaInFlight: reg.Gauge("truthserve_ingest_quota_reserved",
			"Answers reserved against the quota by admitted-but-uncommitted requests.",
			"tenant").With(tenant),
		epochSeconds: reg.Histogram("truthserve_epoch_seconds",
			"Method.Infer time of each completed epoch in seconds (its epoch.sweep stage; the snapshot before it is not included), by tenant and method.",
			telemetry.LatencyBuckets, "tenant", "method").With(tenant, method),
		snapshotStage: stage.With(tenant, "epoch.snapshot"),
		sweepStage:    stage.With(tenant, "epoch.sweep"),
		epochs: reg.Counter("truthserve_epochs_total",
			"Completed inference epochs, by tenant and method.",
			"tenant", "method").With(tenant, method),
		epochFailures: reg.Counter("truthserve_epoch_failures_total",
			"Failed inference epochs (the error is in /stats last_error), by tenant and method.",
			"tenant", "method").With(tenant, method),
		iterations: reg.Histogram("truthserve_epoch_iterations",
			"Algorithm-1 iterations each completed epoch ran, by tenant and method.",
			iterationBuckets, "tenant", "method").With(tenant, method),
		nonConverged: reg.Counter("truthserve_epoch_nonconverged_total",
			"Completed epochs that hit the iteration cap before converging, by tenant and method.",
			"tenant", "method").With(tenant, method),
		warmStarts: reg.Counter("truthserve_warm_start_hits_total",
			"Epochs that resumed from the previous posterior instead of cold init.",
			"tenant").With(tenant),
		folded: reg.Counter("truthserve_incremental_answers_folded_total",
			"Answers folded into incremental (MV/Mean/Median) statistics.",
			"tenant").With(tenant),
	}
}

func (m *Metrics) observeAdmitted(n int) {
	if m == nil {
		return
	}
	m.admitted.Add(uint64(n))
}

func (m *Metrics) observeShed(n int, quota bool) {
	if m == nil {
		return
	}
	if quota {
		m.shedQuota.Add(uint64(n))
	} else {
		m.shedRate.Add(uint64(n))
	}
}

func (m *Metrics) quotaReserve(n int64) {
	if m == nil {
		return
	}
	m.quotaInFlight.Add(float64(n))
}

// observeStages records one epoch's time in its two stages, failed
// sweeps included.
func (m *Metrics) observeStages(snapshot, sweep time.Duration) {
	if m == nil {
		return
	}
	m.snapshotStage.Observe(snapshot.Seconds())
	m.sweepStage.Observe(sweep.Seconds())
}

func (m *Metrics) observeEpoch(d time.Duration, warm bool, iterations int, converged bool) {
	if m == nil {
		return
	}
	m.epochSeconds.Observe(d.Seconds())
	m.epochs.Inc()
	m.iterations.Observe(float64(iterations))
	if !converged {
		m.nonConverged.Inc()
	}
	if warm {
		m.warmStarts.Inc()
	}
}

func (m *Metrics) observeEpochFailure() {
	if m == nil {
		return
	}
	m.epochFailures.Inc()
}

func (m *Metrics) observeFolded(n int) {
	if m == nil {
		return
	}
	m.folded.Add(uint64(n))
}
