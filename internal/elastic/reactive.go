package elastic

import (
	"fmt"

	"pstore/internal/migration"
)

const (
	// lowFraction is the fraction of Q per machine below which scale-in is
	// considered.
	lowFraction = 0.5
	// maxStep caps how many machines one scale-out decision may add:
	// E-Store relocates modest sets of hot tuples per reconfiguration rather
	// than re-provisioning the whole cluster, so a steep ramp takes several
	// reactions to catch up with.
	maxStep = 2
)

// Reactive is an E-Store-like reactive provisioner (Section 2, Figure 9c):
// it continuously monitors the per-machine load and reconfigures only after
// a threshold is breached — which means scale-outs begin exactly when the
// system is already near peak capacity.
type Reactive struct {
	// Model supplies per-machine capacity figures.
	Model migration.Model
	// HighFraction of QMax at which a scale-out triggers (default 1.3,
	// slightly above the saturation throughput: an E-Store-like reactive
	// system triggers on pinned CPU utilization, which only happens once
	// the machine is genuinely overloaded and latency is already past the
	// SLO).
	HighFraction float64
	// ScaleOutConfirm is how many consecutive overloaded intervals must
	// pass before a scale-out starts (default 2): E-Store first detects a
	// sustained imbalance, then runs detailed monitoring and planning
	// before migration begins, so reaction lags the overload.
	ScaleOutConfirm int
	// ScaleInConfirm is how many consecutive low-load intervals must pass
	// before scaling in (hysteresis; default 5).
	ScaleInConfirm int
	// Headroom multiplies the observed load when sizing the new cluster,
	// creating the capacity "buffer" the paper varies in Figure 12
	// (default 1.1: a reactive system sizes for the load it sees, not the
	// load to come, so it re-triggers repeatedly on a rising ramp).
	Headroom float64
	// MaxMachines caps the cluster size (0 = unlimited).
	MaxMachines int

	lowStreak  int
	highStreak int
	// overloadPending is set by Overloaded and consumed by the next Tick:
	// refused work is direct evidence the cluster is past capacity, so the
	// controller scales out immediately instead of waiting for the
	// per-machine load threshold and its confirmation streak.
	overloadPending bool
}

// Name implements Controller.
func (r *Reactive) Name() string { return "Reactive" }

// Overloaded implements OverloadObserver: any refused work arms an immediate
// emergency scale-out on the next Tick. A reactive provisioner normally
// learns of overload from its load measurement — but throughput saturates at
// capacity, so the measurement stops rising exactly when the overload
// starts; the engine's backpressure signal has no such ceiling.
func (r *Reactive) Overloaded(sig OverloadSignal) {
	if sig.Refused() > 0 {
		r.overloadPending = true
	}
}

func (r *Reactive) defaults() {
	if r.HighFraction == 0 {
		r.HighFraction = 1.3
	}
	if r.ScaleOutConfirm == 0 {
		r.ScaleOutConfirm = 3
	}
	if r.ScaleInConfirm == 0 {
		r.ScaleInConfirm = 5
	}
	if r.Headroom == 0 {
		r.Headroom = 1.1
	}
}

// Tick implements Controller.
func (r *Reactive) Tick(machines int, reconfiguring bool, load float64) (*Decision, error) {
	if err := r.Model.Validate(); err != nil {
		return nil, fmt.Errorf("elastic: reactive: %w", err)
	}
	r.defaults()
	if reconfiguring {
		r.lowStreak = 0
		r.highStreak = 0
		r.overloadPending = false
		return nil, nil
	}
	// Backpressure overrides threshold detection: the engine refusing work
	// is proof of overload, so skip the confirmation streak and scale out at
	// the emergency rate.
	if r.overloadPending {
		r.overloadPending = false
		r.lowStreak = 0
		r.highStreak = 0
		target := min(max(r.Model.MachinesFor(load*r.Headroom), machines+1), machines+maxStep)
		if r.MaxMachines > 0 && target > r.MaxMachines {
			target = r.MaxMachines
		}
		if target > machines {
			return &Decision{Target: target, RateFactor: 8, Emergency: true}, nil
		}
		return nil, nil
	}
	perMachine := load / float64(machines)

	// Overload: react once the overload has persisted — too late to avoid
	// migrating at peak, but that is the nature of the strategy.
	if perMachine > r.HighFraction*r.Model.QMax {
		r.lowStreak = 0
		r.highStreak++
		if r.highStreak < r.ScaleOutConfirm {
			return nil, nil
		}
		target := min(r.Model.MachinesFor(load*r.Headroom), machines+maxStep)
		if r.MaxMachines > 0 && target > r.MaxMachines {
			target = r.MaxMachines
		}
		if target > machines {
			r.highStreak = 0
			return &Decision{Target: target, RateFactor: 1}, nil
		}
		return nil, nil
	}
	r.highStreak = 0

	// Underload: require a sustained streak before shrinking.
	if perMachine < lowFraction*r.Model.Q && machines > 1 {
		r.lowStreak++
		if r.lowStreak >= r.ScaleInConfirm {
			r.lowStreak = 0
			target := max(r.Model.MachinesFor(load*r.Headroom), 1)
			if target < machines {
				return &Decision{Target: target, RateFactor: 1}, nil
			}
		}
		return nil, nil
	}
	r.lowStreak = 0
	return nil, nil
}
