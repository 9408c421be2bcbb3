package assign

import (
	"encoding/json"
	"fmt"
	"time"
)

// Spec is the serializable face of Config: the JSON shape a multi-tenant
// daemon stores per project (and accepts over its admin API) to describe
// that project's assignment control plane. Validate rejects a bad spec
// without touching any serving state, so config errors fail fast at
// project creation; Ledger builds the live ledger from it.
type Spec struct {
	// Policy is the scoring policy name (see ParsePolicy): "random",
	// "least-answered" or "uncertainty". Required.
	Policy string `json:"policy"`
	// Redundancy caps each task's collected answers + outstanding leases
	// (0 = DefaultRedundancy).
	Redundancy int `json:"redundancy,omitempty"`
	// Budget caps the store's total answers (live answer count plus
	// outstanding leases — Config.ChargeExisting), so a durable project
	// that restarts under the same config resumes with the remaining
	// budget rather than a fresh cap. 0 = unlimited.
	Budget int `json:"budget,omitempty"`
	// LeaseTTL is how long a worker holds an assignment, as a Go
	// duration string like "45s" (empty = DefaultLeaseTTL).
	LeaseTTL Duration `json:"lease_ttl,omitempty"`
	// PriorQuality is the probability-correct assumed for workers the
	// serving method has no estimate for (0 = DefaultPriorQuality).
	PriorQuality float64 `json:"prior_quality,omitempty"`
	// Defense configures the adversarial-crowd defense layer: golden
	// qualification gates, quality change-detection, and collusion
	// scoring (see DefenseSpec). Omitted or all-zero = no defenses.
	Defense *DefenseSpec `json:"defense,omitempty"`
}

// Validate checks the spec without building anything: the policy name
// must parse and the numeric rails must be non-negative.
func (sp Spec) Validate() error {
	if sp.Policy == "" {
		return fmt.Errorf("assign: spec has no policy (valid: %v)", PolicyNames())
	}
	if _, err := ParsePolicy(sp.Policy); err != nil {
		return err
	}
	if sp.Redundancy < 0 {
		return fmt.Errorf("assign: negative redundancy %d", sp.Redundancy)
	}
	if sp.Budget < 0 {
		return fmt.Errorf("assign: negative budget %d", sp.Budget)
	}
	if sp.LeaseTTL < 0 {
		return fmt.Errorf("assign: negative lease TTL %v", time.Duration(sp.LeaseTTL))
	}
	if sp.PriorQuality < 0 || sp.PriorQuality >= 1 {
		return fmt.Errorf("assign: prior quality %v outside [0,1)", sp.PriorQuality)
	}
	if err := sp.Defense.Validate(); err != nil {
		return err
	}
	return nil
}

// Ledger builds the live ledger the spec describes over src, seeded with
// the project's seed (so a project's whole behavior — inference and
// assignment — replays from one number). m, when non-nil, is the
// per-tenant instrument bundle the ledger records lease lifecycle and
// budget observations into.
func (sp Spec) Ledger(src Source, seed int64, m *Metrics) (*Ledger, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	policy, err := ParsePolicy(sp.Policy)
	if err != nil {
		return nil, err
	}
	return NewLedger(src, Config{
		Policy:         policy,
		Redundancy:     sp.Redundancy,
		Budget:         sp.Budget,
		ChargeExisting: true,
		LeaseTTL:       time.Duration(sp.LeaseTTL),
		Seed:           seed,
		PriorQuality:   sp.PriorQuality,
		Metrics:        m,
		Defense:        sp.Defense,
	})
}

// Duration is a time.Duration that marshals as a Go duration string
// ("45s", "2m30s") and unmarshals from either a string or a JSON number
// of nanoseconds, so configs stay human-readable.
type Duration time.Duration

// MarshalJSON renders the duration as its canonical string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "1m30s" strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("assign: bad duration %q: %w", s, perr)
		}
		*d = Duration(parsed)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("assign: duration must be a string like \"45s\" or nanoseconds, got %s", data)
	}
	*d = Duration(n)
	return nil
}
