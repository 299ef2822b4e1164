// Package elastic implements the provisioning controllers the paper
// evaluates against each other (Sections 6 and 8): P-Store's Predictive
// Controller (predictor → planner → scheduler with receding-horizon
// control), an E-Store-like reactive controller, static allocation, and the
// "Simple" time-of-day strategy of Figure 13.
//
// Controllers are pure decision components: once per monitoring interval
// they ingest the observed aggregate load and decide whether to start a
// reconfiguration now. The same controllers drive both the live storage
// engine (internal/squall executes their moves) and the long-horizon
// analytic simulator (internal/sim), exactly as the paper uses one strategy
// implementation for both benchmark and simulation studies.
package elastic

import (
	"fmt"
	"time"
)

// Decision asks the executing world to start a reconfiguration now.
type Decision struct {
	// Target is the machine count to move to.
	Target int
	// RateFactor accelerates the migration (the paper's "rate R x 8"
	// emergency mode); 1 is the normal non-disruptive rate R.
	RateFactor float64
	// Emergency marks a move issued because no feasible plan exists —
	// load is rising faster than the planner can provision for.
	Emergency bool
}

// Controller decides, once per monitoring interval, whether to reconfigure.
type Controller interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Tick ingests the load observed during the last interval given the
	// current cluster size and whether a migration is still running. A
	// non-nil Decision starts a move now; Tick is never expected to
	// return a Decision while reconfiguring.
	Tick(machines int, reconfiguring bool, load float64) (*Decision, error)
}

// MoveObserver is optionally implemented by controllers that want to learn
// the fate of the moves their decisions started. The executing world calls
// MoveResult on the same goroutine that calls Tick, never concurrently with
// it: a nil err means the move landed, a non-nil err means it aborted (and
// the cluster rolled back to the pre-move plan, so `machines` on the next
// Tick is unchanged).
type MoveObserver interface {
	MoveResult(target int, err error)
}

// FailureObserver is optionally implemented by controllers that want to
// learn about machine-level failures. The executing world calls both methods
// on the same goroutine that calls Tick, never concurrently with it. While a
// machine is down the controller's Tick sees the *effective* cluster size
// (live machines only), so these notifications carry the why, not the what:
// a controller that keeps horizon state can discard plans built on the
// pre-crash capacity.
type FailureObserver interface {
	// MachineFailed reports that a machine crashed and its capacity is gone
	// until recovery completes.
	MachineFailed(machine int)
	// MachineRecovered reports that a crashed machine finished recovery and
	// serves again.
	MachineRecovered(machine int)
}

// OverloadSignal summarizes one monitoring interval's server-side overload
// activity: work the engine refused (admission-control rejections and
// queue-deadline expiries) and the worst per-partition estimated queueing
// delay. An interval that refused nothing saw no overload.
type OverloadSignal struct {
	// Rejected and DeadlineExceeded are the interval's refused-work counts,
	// by mechanism.
	Rejected         int64
	DeadlineExceeded int64
	// QueueDelay is the worst partition's estimated queueing delay (the
	// executor-maintained sojourn EWMA) at the end of the interval.
	QueueDelay time.Duration
}

// Refused is the total work the engine refused during the interval.
func (s OverloadSignal) Refused() int64 {
	return s.Rejected + s.DeadlineExceeded
}

// OverloadObserver is optionally implemented by controllers that want the
// engine's backpressure signal. The executing world calls Overloaded once
// per monitoring interval — zero signal included — on the same goroutine
// that calls Tick, never concurrently with it, and before that interval's
// Tick. The signal matters because the load measurement alone cannot reveal
// overload promptly: throughput plateaus at capacity while queues grow, and
// the recorder's latency window confirms the damage only after the fact.
// Refused work is the leading indicator.
type OverloadObserver interface {
	Overloaded(sig OverloadSignal)
}

// Static never reconfigures: the paper's peak-provisioned (10 machines) and
// under-provisioned (4 machines) baselines of Figure 9a/9b.
type Static struct{}

// Name implements Controller.
func (Static) Name() string { return "Static" }

// Tick implements Controller.
func (Static) Tick(int, bool, float64) (*Decision, error) { return nil, nil }

// Simple is the time-of-day heuristic of Figure 13: scale up every morning,
// down every night, regardless of what the load actually does. It works
// until the first day that deviates from the pattern.
type Simple struct {
	// SlotsPerDay is the number of monitoring intervals per day.
	SlotsPerDay int
	// MorningSlot and NightSlot are the slot-of-day boundaries for the
	// daytime configuration.
	MorningSlot, NightSlot int
	// DayMachines and NightMachines are the two cluster sizes.
	DayMachines, NightMachines int

	tick int
}

// Name implements Controller.
func (s *Simple) Name() string { return "Simple" }

// Tick implements Controller.
func (s *Simple) Tick(machines int, reconfiguring bool, _ float64) (*Decision, error) {
	if s.SlotsPerDay < 1 || s.MorningSlot < 0 || s.NightSlot <= s.MorningSlot ||
		s.NightSlot > s.SlotsPerDay || s.DayMachines < 1 || s.NightMachines < 1 {
		return nil, fmt.Errorf("elastic: invalid Simple config %+v", *s)
	}
	slot := s.tick % s.SlotsPerDay
	s.tick++
	if reconfiguring {
		return nil, nil
	}
	want := s.NightMachines
	if slot >= s.MorningSlot && slot < s.NightSlot {
		want = s.DayMachines
	}
	if want != machines {
		return &Decision{Target: want, RateFactor: 1}, nil
	}
	return nil, nil
}
