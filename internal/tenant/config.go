package tenant

import (
	"bytes"
	"encoding/json"
	"fmt"

	ti "truthinference"
	"truthinference/internal/assign"
	"truthinference/internal/dataset"
	"truthinference/internal/stream"
	"truthinference/internal/stream/wal"
)

// Config is one project's serving configuration and the only way to
// configure one — the JSON shape stored in the registry manifest,
// accepted by the admin API and by the daemon's -projects boot file.
type Config struct {
	// Method is the truth-inference method to serve (see truthinfer
	// -list). Required.
	Method string `json:"method"`
	// TaskType is the live store's task family: "decision" (default),
	// "single-choice" or "numeric".
	TaskType string `json:"task_type,omitempty"`
	// Choices is ℓ for single-choice stores (decision forces 2, numeric
	// 0).
	Choices int `json:"choices,omitempty"`
	// Seed fixes the project's inference and assignment randomness.
	Seed int64 `json:"seed,omitempty"`
	// MaxIter caps iterations per epoch (0 = method default).
	MaxIter int `json:"max_iter,omitempty"`
	// Parallelism is the per-epoch worker goroutine count (0 = all CPUs,
	// 1 = sequential).
	Parallelism int `json:"parallelism,omitempty"`
	// Shards is the project store's shard count (0 = stream default).
	// Contention tuning only; state is shard-count independent.
	Shards int `json:"shards,omitempty"`
	// ColdStart disables warm starts (every epoch from cold init).
	ColdStart bool `json:"cold_start,omitempty"`
	// NoAutoRefresh disables background re-inference after each batch
	// (by default it is on).
	NoAutoRefresh bool `json:"no_auto_refresh,omitempty"`
	// Data optionally preloads a <base>.answers.tsv dataset from the
	// daemon's filesystem. Recovery replays the WAL on top of it, so the
	// file must stay in place (and unchanged) across restarts.
	Data string `json:"data,omitempty"`
	// SnapshotEvery is the WAL compaction cadence when the registry is
	// durable: batches between compacted snapshots. 0 means the
	// DefaultSnapshotEvery; negative disables automatic compaction
	// (snapshots happen only on clean shutdown).
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// Assign, when non-nil, enables the task-assignment control plane
	// with this policy/budget/redundancy/lease configuration.
	Assign *assign.Spec `json:"assign,omitempty"`
	// Limits, when non-nil, is the project's ingest admission policy:
	// sustained answers/sec, burst capacity, and lifetime answer quota.
	// Violations shed load with 429 + Retry-After instead of queueing.
	Limits *stream.Limits `json:"limits,omitempty"`
}

// DefaultSnapshotEvery is the WAL compaction cadence used when a project
// config leaves SnapshotEvery at 0.
const DefaultSnapshotEvery = 256

// Validate fails fast on everything that would otherwise surface
// mid-boot or mid-request: unknown method, unknown task type, a
// method/type mismatch, and a bad assignment spec.
func (c Config) Validate() error {
	m, err := ti.GetMethod(c.Method)
	if err != nil {
		return err
	}
	typ, err := ParseTaskType(c.taskTypeOrDefault())
	if err != nil {
		return err
	}
	if c.Data == "" && !m.Capabilities().SupportsType(typ) {
		// With Data set the preloaded file decides the type; checked at
		// open time instead.
		return fmt.Errorf("tenant: %s does not support %s stores", m.Name(), typ)
	}
	if c.Choices < 0 {
		return fmt.Errorf("tenant: negative choices %d", c.Choices)
	}
	if c.Shards < 0 {
		return fmt.Errorf("tenant: negative shards %d", c.Shards)
	}
	if c.Assign != nil {
		if err := c.Assign.Validate(); err != nil {
			return err
		}
	}
	if c.Limits != nil {
		if c.Limits.RatePerSec < 0 {
			return fmt.Errorf("tenant: negative rate_per_sec %v", c.Limits.RatePerSec)
		}
		if c.Limits.Burst < 0 {
			return fmt.Errorf("tenant: negative burst %d", c.Limits.Burst)
		}
		if c.Limits.MaxAnswers < 0 {
			return fmt.Errorf("tenant: negative max_answers %d", c.Limits.MaxAnswers)
		}
		if c.Limits.Burst > 0 && c.Limits.RatePerSec == 0 {
			// stream.NewLimiter builds no limiter for rate 0, so a burst
			// on its own would be silently inert — reject it instead of
			// letting the operator believe a limit is in force.
			return fmt.Errorf("tenant: burst %d without rate_per_sec does nothing — set rate_per_sec or drop burst", c.Limits.Burst)
		}
	}
	return nil
}

func (c Config) taskTypeOrDefault() string {
	if c.TaskType == "" {
		return "decision"
	}
	return c.TaskType
}

func (c Config) choicesOrDefault() int {
	if c.Choices == 0 {
		return 2
	}
	return c.Choices
}

// snapshotEvery resolves the tri-state SnapshotEvery field for the
// persister: default cadence, explicit cadence, or disabled.
func (c Config) snapshotEvery() int {
	switch {
	case c.SnapshotEvery == 0:
		return DefaultSnapshotEvery
	case c.SnapshotEvery < 0:
		return 0 // persister: only on shutdown
	default:
		return c.SnapshotEvery
	}
}

// ParseTaskType maps the config's task-type names onto the dataset task
// families.
func ParseTaskType(s string) (dataset.TaskType, error) {
	switch s {
	case "decision":
		return dataset.Decision, nil
	case "single-choice":
		return dataset.SingleChoice, nil
	case "numeric":
		return dataset.Numeric, nil
	default:
		return 0, fmt.Errorf("tenant: unknown task type %q (valid: decision, single-choice, numeric)", s)
	}
}

// ValidateID checks a project id: the same single-safe-path-component
// rule the WAL namespacing enforces, because the id becomes the
// project's durable directory name.
func ValidateID(id string) error {
	if err := wal.ValidNamespace(id); err != nil {
		return fmt.Errorf("tenant: bad project id: %w", err)
	}
	return nil
}

// DecodeConfig parses one project config from JSON, rejecting unknown
// fields (a typoed knob must not silently become a default) and
// validating the result.
func DecodeConfig(data []byte) (Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("tenant: decode project config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// DecodeProjects parses a project set — the -projects boot file or the
// registry manifest: a JSON object mapping project id → config, with
// every id and config validated.
func DecodeProjects(data []byte) (map[string]Config, error) {
	var raw map[string]json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("tenant: decode projects file: %w", err)
	}
	out := make(map[string]Config, len(raw))
	for id, msg := range raw {
		if err := ValidateID(id); err != nil {
			return nil, err
		}
		c, err := DecodeConfig(msg)
		if err != nil {
			return nil, fmt.Errorf("tenant: project %q: %w", id, err)
		}
		out[id] = c
	}
	return out, nil
}
