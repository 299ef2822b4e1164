package store

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// The engine's server-side overload defenses. The paper's planner guarantees
// predicted load never exceeds effective capacity (Eq. 7), but predictions
// are sometimes wrong — and when they are, an undefended engine saturates:
// queues fill, every submitter blocks, and the migration control traffic
// that could add capacity queues FIFO behind the very backlog it exists to
// relieve. Three mechanisms, all armed by OverloadConfig, keep the engine
// responsive while the provisioning layer catches up:
//
//   - Admission control: each partition executor maintains an EWMA of
//     request sojourn time (enqueue to execution start). A submission whose
//     destination's estimated queueing delay already exceeds the configured
//     deadline is rejected immediately with ErrOverload instead of joining a
//     queue it cannot clear in time.
//   - Deadline enforcement: a request that outlives its deadline while
//     queued is failed with ErrDeadlineExceeded by the executor without
//     being executed — expired work is pure waste under overload.
//   - CoDel shedding: when sojourn time stays above CoDelTarget for a full
//     CoDelInterval, the executor starts shedding requests with ErrOverload
//     at a rate that quickens with the square root of the drop count, the
//     CoDel control law, until sojourn falls back below the target.
//
// Control-plane requests (migration move-out/install, crash fencing,
// checkpoints, restores) are never shed: they travel on a separate priority
// lane (see partition.run) precisely so the escape hatch from overload —
// emergency scale-out — cannot be starved by it.

// ErrOverload is returned for transactions refused by admission control or
// shed by the CoDel controller: the request was never executed and can be
// retried against a later, larger cluster.
var ErrOverload = errors.New("store: overloaded")

// ErrDeadlineExceeded is returned for transactions that spent longer than
// their deadline waiting in a partition queue; the executor fails them
// without executing, since a reply past the deadline is worthless to the
// submitter but still costs service time.
var ErrDeadlineExceeded = errors.New("store: deadline exceeded in queue")

// OverloadConfig arms the engine's server-side overload defenses. The zero
// value disables all of them: no deadline, no admission control, no
// shedding, and no per-request sojourn tracking on the hot path.
type OverloadConfig struct {
	// Deadline is the per-request deadline, measured from submission.
	// When positive it arms both admission control (reject at enqueue when
	// the destination's estimated queueing delay exceeds it) and deadline
	// enforcement (fail expired requests at the executor). Zero disables
	// both.
	Deadline time.Duration
	// CoDelTarget is the sojourn-time target of the CoDel shedder: queueing
	// delay persistently above it means standing queue, and the executor
	// starts shedding. Zero disables shedding.
	CoDelTarget time.Duration
	// CoDelInterval is how long sojourn must stay above CoDelTarget before
	// the first shed, and the base period of the shedding control law.
	// Zero defaults to 100ms when CoDelTarget is set.
	CoDelInterval time.Duration
}

// Enabled reports whether any part of the overload plane is armed.
func (c OverloadConfig) Enabled() bool {
	return c.Deadline > 0 || c.CoDelTarget > 0
}

// Validate reports configuration errors.
func (c OverloadConfig) Validate() error {
	if c.Deadline < 0 {
		return fmt.Errorf("store: overload Deadline %v must be non-negative", c.Deadline)
	}
	if c.CoDelTarget < 0 {
		return fmt.Errorf("store: overload CoDelTarget %v must be non-negative", c.CoDelTarget)
	}
	if c.CoDelInterval < 0 {
		return fmt.Errorf("store: overload CoDelInterval %v must be non-negative", c.CoDelInterval)
	}
	return nil
}

// ParseOverload builds an OverloadConfig from a comma-separated spec string,
// the format of the pstore `--overload` flag:
//
//	deadline=50ms,target=5ms,interval=100ms
//
// An empty spec is a disabled (zero) config.
func ParseOverload(spec string) (OverloadConfig, error) {
	var cfg OverloadConfig
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return cfg, fmt.Errorf("store: overload field %q is not key=value", field)
		}
		var err error
		switch k {
		case "deadline":
			cfg.Deadline, err = time.ParseDuration(v)
		case "target":
			cfg.CoDelTarget, err = time.ParseDuration(v)
		case "interval":
			cfg.CoDelInterval, err = time.ParseDuration(v)
		default:
			return cfg, fmt.Errorf("store: unknown overload key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("store: parsing overload %q: %w", field, err)
		}
	}
	return cfg, cfg.Validate()
}

// String renders the config back into ParseOverload's spec format. A
// disabled config renders as the empty string.
func (c OverloadConfig) String() string {
	var parts []string
	if c.Deadline > 0 {
		parts = append(parts, fmt.Sprintf("deadline=%v", c.Deadline))
	}
	if c.CoDelTarget > 0 {
		parts = append(parts, fmt.Sprintf("target=%v", c.CoDelTarget))
	}
	if c.CoDelInterval > 0 {
		parts = append(parts, fmt.Sprintf("interval=%v", c.CoDelInterval))
	}
	return strings.Join(parts, ",")
}

// overloadRuntime is the engine's baked overload policy: defaults resolved
// once at construction so the hot path reads plain fields.
type overloadRuntime struct {
	enabled  bool
	deadline time.Duration
	target   time.Duration
	interval time.Duration
}

func newOverloadRuntime(c OverloadConfig) overloadRuntime {
	rt := overloadRuntime{
		enabled:  c.Enabled(),
		deadline: c.Deadline,
		target:   c.CoDelTarget,
		interval: c.CoDelInterval,
	}
	if rt.target > 0 && rt.interval == 0 {
		rt.interval = 100 * time.Millisecond
	}
	return rt
}
