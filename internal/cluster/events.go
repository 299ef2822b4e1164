package cluster

import (
	"fmt"
	"time"
)

// Event is a typed notification from the cluster runtime. Observers
// subscribe with Cluster.Subscribe instead of polling engine counters or
// executor state; the runtime is the single owner of move execution, so the
// event stream is the authoritative record of what happened and when.
type Event interface {
	// When returns the time the event was emitted.
	When() time.Time
	event()
}

// LoadObserved is emitted once per monitoring cycle with the aggregate load
// measured over the cycle, before the controller is consulted.
type LoadObserved struct {
	Time time.Time
	// Cycle is the monitoring cycle index, starting at 0.
	Cycle int
	// Machines is the active cluster size at observation time.
	Machines int
	// Load is the observed load in controller units (requests per trace
	// minute at paper scale).
	Load float64
	// Down is how many of those machines were crashed at observation time;
	// the controller is shown the effective size (Machines - Down).
	Down int
	// Reconfiguring reports whether a move was in flight during the cycle.
	Reconfiguring bool
}

// MoveStarted is emitted when a reconfiguration begins executing.
type MoveStarted struct {
	Time time.Time
	// Seq numbers moves within this cluster's lifetime, starting at 1.
	Seq int
	// From and To are the source and target machine counts.
	From, To int
	// RateFactor is the migration rate multiplier the decision asked for.
	RateFactor float64
	// Emergency marks a move issued because no feasible plan existed.
	Emergency bool
}

// MoveFinished is emitted when a reconfiguration completes successfully.
// Failed moves emit MoveFailed instead.
type MoveFinished struct {
	Time time.Time
	// Seq matches the MoveStarted event of the same move.
	Seq      int
	From, To int
	// Duration is the wall time the move took.
	Duration time.Duration
}

// MoveFailed is emitted when a reconfiguration aborts. The runtime stays
// usable: a failed move rolls back to the pre-move bucket plan, so the next
// decision (or a manual Reconfigure) can start a fresh move immediately.
type MoveFailed struct {
	Time time.Time
	// Seq matches the MoveStarted event of the same move.
	Seq      int
	From, To int
	// Duration is the wall time until the abort completed.
	Duration time.Duration
	// Err is the typed failure (a *squall.MoveError for aborted moves).
	Err error
	// RolledBack reports whether the pre-move bucket plan was restored.
	RolledBack bool
}

// DecisionFailed is emitted when the controller's Tick returns an error.
type DecisionFailed struct {
	Time  time.Time
	Cycle int
	Err   error
}

// EmergencyTriggered is emitted when the controller falls back to emergency
// scaling (an unpredicted spike, Section 4.3.1); the corresponding
// MoveStarted follows immediately.
type EmergencyTriggered struct {
	Time  time.Time
	Cycle int
	// Target is the emergency machine count.
	Target int
	// RateFactor is the rate the controller asked for; the move runs at it.
	RateFactor float64
}

// OverloadObserved is emitted once per monitoring cycle in which the engine
// refused work: admission-control rejections or queue-deadline expiries. The same signal is delivered to an OverloadObserver controller
// before its Tick.
type OverloadObserved struct {
	Time  time.Time
	Cycle int
	// Rejected and DeadlineExceeded are the cycle's refused-work counts, by
	// mechanism.
	Rejected         int64
	DeadlineExceeded int64
	// QueueDelay is the worst partition's estimated queueing delay at the
	// end of the cycle.
	QueueDelay time.Duration
}

// MachineFailed is emitted when the crash schedule takes a machine down. Its
// partitions refuse transactions (and migrations) until recovery; in-flight
// moves touching the machine abort and roll back.
type MachineFailed struct {
	Time  time.Time
	Cycle int
	// Machine is the crashed machine index.
	Machine int
	// RecoverAtCycle is the monitoring cycle at which recovery will begin.
	RecoverAtCycle int
}

// MachineRecovered is emitted when a crashed machine finishes recovery: its
// partitions were rebuilt from the last checkpoint plus command-log replay
// and serve again.
type MachineRecovered struct {
	Time  time.Time
	Cycle int
	// Machine is the recovered machine index.
	Machine int
	// Downtime is the wall time the machine was down.
	Downtime time.Duration
	// Replayed is the number of logged commands replayed during the rebuild.
	Replayed int
}

func (e LoadObserved) When() time.Time       { return e.Time }
func (e MoveStarted) When() time.Time        { return e.Time }
func (e MoveFinished) When() time.Time       { return e.Time }
func (e MoveFailed) When() time.Time         { return e.Time }
func (e DecisionFailed) When() time.Time     { return e.Time }
func (e EmergencyTriggered) When() time.Time { return e.Time }
func (e OverloadObserved) When() time.Time   { return e.Time }
func (e MachineFailed) When() time.Time      { return e.Time }
func (e MachineRecovered) When() time.Time   { return e.Time }

func (LoadObserved) event()       {}
func (MoveStarted) event()        {}
func (MoveFinished) event()       {}
func (MoveFailed) event()         {}
func (DecisionFailed) event()     {}
func (EmergencyTriggered) event() {}
func (OverloadObserved) event()   {}
func (MachineFailed) event()      {}
func (MachineRecovered) event()   {}

func (e LoadObserved) String() string {
	if e.Down > 0 {
		return fmt.Sprintf("cycle %d: load %.1f on %d machines (%d down, reconfiguring=%v)",
			e.Cycle, e.Load, e.Machines, e.Down, e.Reconfiguring)
	}
	return fmt.Sprintf("cycle %d: load %.1f on %d machines (reconfiguring=%v)",
		e.Cycle, e.Load, e.Machines, e.Reconfiguring)
}

func (e MoveStarted) String() string {
	kind := "move"
	if e.Emergency {
		kind = "emergency move"
	}
	return fmt.Sprintf("%s #%d started: %d -> %d machines (rate %gx)", kind, e.Seq, e.From, e.To, e.RateFactor)
}

func (e MoveFinished) String() string {
	return fmt.Sprintf("move #%d finished: %d -> %d machines in %v",
		e.Seq, e.From, e.To, e.Duration.Round(time.Millisecond))
}

func (e MoveFailed) String() string {
	state := "rolled back"
	if !e.RolledBack {
		state = "NOT rolled back"
	}
	return fmt.Sprintf("move #%d failed after %v (%s): %v",
		e.Seq, e.Duration.Round(time.Millisecond), state, e.Err)
}

func (e DecisionFailed) String() string {
	return fmt.Sprintf("cycle %d: controller error: %v", e.Cycle, e.Err)
}

func (e EmergencyTriggered) String() string {
	return fmt.Sprintf("cycle %d: emergency scaling to %d machines (controller rate %gx)",
		e.Cycle, e.Target, e.RateFactor)
}

func (e OverloadObserved) String() string {
	return fmt.Sprintf("cycle %d: overload: %d rejected, %d deadline-exceeded (queue delay %v)",
		e.Cycle, e.Rejected, e.DeadlineExceeded, e.QueueDelay.Round(time.Millisecond))
}

func (e MachineFailed) String() string {
	return fmt.Sprintf("cycle %d: machine %d crashed (recovery at cycle %d)",
		e.Cycle, e.Machine, e.RecoverAtCycle)
}

func (e MachineRecovered) String() string {
	return fmt.Sprintf("cycle %d: machine %d recovered after %v (%d commands replayed)",
		e.Cycle, e.Machine, e.Downtime.Round(time.Millisecond), e.Replayed)
}
