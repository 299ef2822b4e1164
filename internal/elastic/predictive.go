package elastic

import (
	"errors"
	"fmt"

	"pstore/internal/migration"
	"pstore/internal/planner"
	"pstore/internal/predictor"
	"pstore/internal/workload"
)

// SpikePolicy selects how P-Store reacts when the planner finds no feasible
// plan — an unpredicted flash crowd (Section 4.3.1).
type SpikePolicy int

const (
	// SpikeRegularRate keeps migrating at the non-disruptive rate R and
	// accepts a capacity shortfall for longer (the paper's default).
	SpikeRegularRate SpikePolicy = iota
	// SpikeFastRate migrates at rate R x 8, accepting migration-induced
	// latency to reach the needed capacity sooner.
	SpikeFastRate
)

// Predictive is P-Store's Predictive Controller (Section 6): it feeds load
// measurements to the online predictor, asks the planner for the optimal
// series of moves over the forecast horizon, executes only the first move
// (receding horizon control), confirms scale-ins over several cycles, and
// falls back to reactive emergency scaling when no feasible plan exists.
type Predictive struct {
	// Model supplies capacity and migration figures; Model.D must be in
	// monitoring intervals.
	Model migration.Model
	// Predictor is the online load forecaster (SPAR by default, or an
	// Oracle for upper-bound studies).
	Predictor *predictor.Online
	// Horizon is how many intervals ahead to plan; it must cover at least
	// two reconfigurations (the paper uses tau >= 2D/P).
	Horizon int
	// Inflation is the fractional safety margin added to predictions (the
	// paper inflates by 15%).
	Inflation float64
	// ScaleInConfirm is how many consecutive planning cycles must call
	// for a scale-in before it executes (the paper uses 3).
	ScaleInConfirm int
	// MaxMachines caps the cluster (0 = no cap).
	MaxMachines int
	// OnSpike selects the emergency policy when planning is infeasible.
	OnSpike SpikePolicy
	// SmoothWindow is how many recent load observations are averaged into
	// the planner's current-interval load (default 3). On a compressed
	// substrate each monitoring cycle sees few arrivals, so the raw
	// per-cycle measurement is noisy; the paper's five-minute production
	// windows average millions of requests and need no smoothing.
	SmoothWindow int
	// FallbackCycles is how many monitoring cycles the controller hands
	// decisions to the reactive fallback after one of its moves fails
	// (default 8). A dead move means the plan the predictor optimized for
	// did not happen — the same epistemic state as a misprediction — so
	// the controller stops trusting the horizon and scales on what it can
	// see, at the paper's rate-R x 8 escape hatch, until the window ends.
	FallbackCycles int

	scaleInStreak  int
	lastPlan       *planner.Plan
	recentLoads    []float64
	fallbackLeft   int
	failedMoves    int
	fallback       *Reactive
	overloadStreak int
}

// NewPStore builds P-Store's controller as the paper runs it over model: SPAR
// with a one-day period, 7 periodic and 6 recent terms, kept online over the
// last 9 days and trained on history, a per-minute trace resampled to
// cycle-minute intervals; a 36-interval horizon on predictions inflated by
// 15 %, and a scale-in confirmed over 6 cycles. maxMachines and onSpike are
// the deployment's.
func NewPStore(model migration.Model, history workload.Series, cycle, maxMachines int, onSpike SpikePolicy) (*Predictive, error) {
	train, err := history.Resample(cycle)
	if err != nil {
		return nil, err
	}
	period := workload.MinutesPerDay / cycle
	online := predictor.NewOnline(predictor.NewSPAR(period, 7, 6), 0, 9*period)
	if err := online.ObserveAll(train.Values); err != nil {
		return nil, err
	}
	return &Predictive{
		Model: model, Predictor: online,
		Horizon: 36, Inflation: 0.15, ScaleInConfirm: 6,
		MaxMachines: maxMachines, OnSpike: onSpike,
	}, nil
}

// Name implements Controller.
func (p *Predictive) Name() string { return "P-Store" }

// LastPlan exposes the most recent plan for instrumentation.
func (p *Predictive) LastPlan() *planner.Plan { return p.lastPlan }

// FailedMoves reports how many of this controller's moves have aborted.
func (p *Predictive) FailedMoves() int { return p.failedMoves }

// InFallback reports whether the controller is currently delegating to the
// reactive fallback because a move failed.
func (p *Predictive) InFallback() bool { return p.fallbackLeft > 0 }

// MoveResult implements MoveObserver: a failed move is treated as a
// misprediction. The plan is discarded and the next FallbackCycles ticks
// re-plan reactively from observed load, with decisions flagged Emergency at
// the rate-R x 8 escape hatch so the executing world prioritizes capacity
// over migration smoothness.
func (p *Predictive) MoveResult(_ int, err error) {
	if err == nil {
		return
	}
	p.failedMoves++
	p.enterFallback()
}

// Overloaded implements OverloadObserver: sustained refused work is a
// misprediction made manifest — the planner guaranteed predicted load would
// fit effective capacity (Eq. 7), and the engine shedding load proves it did
// not. Two consecutive overloaded intervals (one could be a transient the
// CoDel controller absorbs) discard the horizon plan and enter the reactive
// fallback at the rate-R x 8 escape hatch, exactly as for a failed move.
func (p *Predictive) Overloaded(sig OverloadSignal) {
	if sig.Refused() == 0 {
		p.overloadStreak = 0
		return
	}
	if p.fallbackLeft > 0 {
		// Already scaling on observation; pass the backpressure through so
		// the fallback reacts even while its load measurement sits pinned at
		// the throughput ceiling.
		p.fallback.Overloaded(sig)
		return
	}
	p.overloadStreak++
	if p.overloadStreak < 2 {
		return
	}
	p.overloadStreak = 0
	p.enterFallback()
}

// MachineFailed implements FailureObserver: losing a machine is the same
// epistemic event as a failed move — the capacity trajectory the horizon
// plan assumed no longer exists — so the controller stops trusting the plan
// and scales on observation for a while.
func (p *Predictive) MachineFailed(int) { p.enterFallback() }

// MachineRecovered implements FailureObserver. Returning capacity needs no
// special action: the executing world reports effective capacity, so the
// next Tick simply plans from a larger cluster.
func (p *Predictive) MachineRecovered(int) {}

// enterFallback discards the horizon plan and hands the next FallbackCycles
// decisions to the reactive fallback at the rate-R x 8 escape hatch.
func (p *Predictive) enterFallback() {
	p.lastPlan = nil
	p.scaleInStreak = 0
	if p.FallbackCycles < 1 {
		p.FallbackCycles = 8
	}
	p.fallbackLeft = p.FallbackCycles
	if p.fallback == nil {
		// React on the first confirming tick: the failure already proved
		// the capacity need, so the usual detection lag would only deepen
		// the shortfall.
		p.fallback = &Reactive{
			Model:           p.Model,
			MaxMachines:     p.MaxMachines,
			ScaleOutConfirm: 1,
		}
	}
}

// Tick implements Controller.
func (p *Predictive) Tick(machines int, reconfiguring bool, load float64) (*Decision, error) {
	if p.Predictor == nil {
		return nil, errors.New("elastic: predictive controller has no predictor")
	}
	if p.Horizon < 2 {
		return nil, fmt.Errorf("elastic: horizon %d must be at least 2", p.Horizon)
	}
	if p.ScaleInConfirm < 1 {
		p.ScaleInConfirm = 3
	}
	if err := p.Predictor.Observe(load); err != nil {
		return nil, fmt.Errorf("elastic: observing load: %w", err)
	}
	if p.SmoothWindow < 1 {
		p.SmoothWindow = 3
	}
	p.recentLoads = append(p.recentLoads, load)
	if len(p.recentLoads) > p.SmoothWindow {
		p.recentLoads = p.recentLoads[len(p.recentLoads)-p.SmoothWindow:]
	}
	smoothed := 0.0
	for _, v := range p.recentLoads {
		smoothed += v
	}
	smoothed /= float64(len(p.recentLoads))
	// A genuine surge must not be averaged away: take the larger of the
	// smoothed level and the latest measurement discounted for noise.
	if burst := load * 0.85; burst > smoothed {
		smoothed = burst
	}
	// The paper's controller completes a move before planning the next.
	if reconfiguring {
		p.scaleInStreak = 0
		return nil, nil
	}
	// After a failed move, decide reactively for a while: the horizon plan
	// already diverged from reality, so scale on observation, urgently.
	if p.fallbackLeft > 0 {
		p.fallbackLeft--
		dec, err := p.fallback.Tick(machines, false, load)
		if err != nil {
			return nil, fmt.Errorf("elastic: reactive fallback: %w", err)
		}
		if dec != nil && dec.Target > machines {
			dec.Emergency = true
			dec.RateFactor = 8
		}
		return dec, nil
	}
	if !p.Predictor.Ready(p.Horizon) {
		return nil, nil
	}
	forecast, err := p.Predictor.Forecast(p.Horizon)
	if err != nil {
		return nil, fmt.Errorf("elastic: forecasting: %w", err)
	}
	forecast = predictor.Inflate(forecast, p.Inflation)
	// Plan from the present: L[0] is the load right now (the smoothed
	// measurement, also inflated so the first interval is consistent).
	l := make([]float64, 0, len(forecast)+1)
	l = append(l, smoothed*(1+p.Inflation))
	l = append(l, forecast...)
	// The current interval must be feasible for the DP's base case; if the
	// system is already over capacity, fall through to emergency handling.
	pl := planner.Planner{Model: p.Model, MaxMachines: p.MaxMachines}
	plan, err := pl.BestMoves(l, machines)
	if errors.Is(err, planner.ErrInfeasible) {
		return p.emergency(machines, l), nil
	}
	if err != nil {
		return nil, fmt.Errorf("elastic: planning: %w", err)
	}
	p.lastPlan = plan

	first, ok := plan.FirstReconfiguration()
	if !ok || first.Start > 0 {
		// Either nothing to do, or the optimal time to start is in the
		// future: replan next cycle (receding horizon).
		p.scaleInStreak = 0
		return nil, nil
	}
	if first.To < machines {
		// Skip dips: if the optimal plan returns to the current cluster
		// size (or larger) later in the horizon, the scale-in would be
		// undone almost immediately — prediction noise around a capacity
		// boundary, not a real decline. The paper's controller likewise
		// guards scale-ins far more conservatively than scale-outs.
		for _, mv := range plan.Moves[1:] {
			if mv.To >= machines {
				p.scaleInStreak = 0
				return nil, nil
			}
		}
		// Require ScaleInConfirm consecutive cycles agreeing before
		// releasing machines (Section 6).
		p.scaleInStreak++
		if p.scaleInStreak < p.ScaleInConfirm {
			return nil, nil
		}
		p.scaleInStreak = 0
		return &Decision{Target: first.To, RateFactor: 1}, nil
	}
	p.scaleInStreak = 0
	return &Decision{Target: first.To, RateFactor: 1}, nil
}

// emergency sizes an immediate scale-out for an unpredicted spike and
// applies the configured rate policy.
func (p *Predictive) emergency(machines int, l []float64) *Decision {
	peak := 0.0
	for _, v := range l {
		if v > peak {
			peak = v
		}
	}
	target := p.Model.MachinesFor(peak)
	if p.MaxMachines > 0 && target > p.MaxMachines {
		target = p.MaxMachines
	}
	if target <= machines {
		return nil
	}
	rate := 1.0
	if p.OnSpike == SpikeFastRate {
		rate = 8
	}
	return &Decision{Target: target, RateFactor: rate, Emergency: true}
}
