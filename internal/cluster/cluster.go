// Package cluster is P-Store's closed loop (Section 6, Figures 9-11): the
// monitoring/decision loop, the Squall migration executor it drives, a typed
// event stream and the crash plane, over a transport.Topology. The topology is
// a Local one over a node's own engine in a single-process run, or a Remote one
// over node processes for a coordinator; internal/node assembles the engine
// either way.
//
// A Cluster is the sole owner of move execution: the loop observes the
// aggregate load once per cycle, consults the controller, and executes at
// most one reconfiguration at a time through the executor. Observers
// subscribe to a typed event stream (MoveStarted, MoveFinished,
// DecisionFailed, EmergencyTriggered, per-cycle LoadObserved) instead of
// reaching into engine counters or executor state.
//
// Lifecycle: NewRemote(Config, Topology) builds the loop; Start(ctx) launches
// it; Stop() halts it, drains any in-flight move and closes the topology.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/elastic"
	"pstore/internal/faults"
	"pstore/internal/metrics"
	"pstore/internal/squall"
	"pstore/internal/transport"
)

// Config configures a Cluster.
type Config struct {
	// Squall tunes migration chunking and throttling.
	Squall squall.Config
	// Controller decides, once per Cycle, whether to reconfigure. Nil runs
	// a static cluster (no monitoring loop).
	Controller elastic.Controller
	// Cycle is the wall time between controller ticks. Required when a
	// Controller is set.
	Cycle time.Duration
	// RateScale converts one cycle's transaction count into the load the
	// controller sees: the count is divided by it. A trace replay passes
	// transactions per request times trace minutes per cycle, so the
	// controller sees requests per trace minute. Zero means 1 (the
	// controller sees raw transactions per cycle).
	RateScale float64
	// Recorder, if set, receives the executor's migration windows and the
	// machine timeline. The caller attaches the same recorder to the engine
	// it measures (store.Engine.SetRecorder); it stays the caller's after
	// Stop.
	Recorder *metrics.Recorder
	// Faults, if set, is the fault schedule of a chaos run (see
	// internal/faults); a cluster injects its chunk and crash faults and
	// refuses the rest. Chunk faults hit the migration path: failed moves
	// roll back and surface as MoveFailed events while the runtime keeps
	// serving. Crash faults are consulted every monitoring cycle (a tick is
	// a cycle): crashes fire as MachineFailed events, and crashed machines
	// recover automatically after their downtime through the topology's
	// recovery plane, which requires Cycle > 0; a controller is optional.
	Faults *faults.Schedule
}

// Stats summarizes the runtime's decision activity.
type Stats struct {
	// Decisions counts controller decisions accepted for execution.
	Decisions int64
	// Moves counts reconfigurations actually started.
	Moves int64
	// Failures counts controller errors plus failed reconfigurations.
	Failures int64
	// Emergencies counts decisions flagged as emergency scale-outs.
	Emergencies int64
	// Migration is the Squall executor's own counts: chunks moved and
	// retried, reconfigurations aborted and chunks rolled back.
	Migration squall.Stats
}

// ErrMoveInFlight is returned by Reconfigure while another move is running.
var ErrMoveInFlight = errors.New("cluster: a reconfiguration is already in flight")

// Cluster is the monitoring/decision loop over a topology. The controllers,
// the event stream and the recovery plane all run against the
// transport.Topology, so the same loop drives one process's engine or a
// coordinator's node processes without knowing where partitions live.
type Cluster struct {
	cfg Config
	// topo is the placement-oblivious surface every decision reads.
	topo transport.Topology
	ex   *squall.Executor

	// down maps a crashed machine to the cycle its recovery begins; it is nil
	// unless the crash plane is armed. It is owned exclusively by the
	// decision-loop goroutine.
	down map[int]int

	mu       sync.Mutex
	started  bool
	stopping bool
	cancel   func()
	loopDone chan struct{}
	moving   bool // single owner of move state; guarded by mu
	moveSeq  int
	moveWG   sync.WaitGroup
	// outcomes queues finished-move results for the decision loop, which
	// delivers them to a MoveObserver controller on its own goroutine so
	// controller state is never touched concurrently. Guarded by mu.
	outcomes []moveOutcome

	stopOnce sync.Once

	subMu  sync.Mutex
	subs   map[int]chan Event
	nextID int

	decisions   atomic.Int64
	moves       atomic.Int64
	failures    atomic.Int64
	emergencies atomic.Int64
}

// NewRemote builds the loop over topo: transport.NewLocal over an opened
// node's engine in a single-process run, a transport.Remote over node
// processes for a coordinator. The geometry is topo.Config(). Transactions
// enter through the engine or the node front ends, never through the loop.
func NewRemote(cfg Config, topo transport.Topology) (*Cluster, error) {
	if topo == nil {
		return nil, errors.New("cluster: NewRemote needs a topology")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, topo: topo, subs: map[int]chan Event{}}
	if cfg.Faults.Arms(faults.CrashPlane) {
		c.down = map[int]int{}
	}
	var err error
	c.ex, err = squall.NewExecutor(topo, cfg.Squall)
	if err != nil {
		return nil, err
	}
	if cfg.Faults.Arms(faults.ChunkPlane) {
		topo.SetFaultInjector(cfg.Faults)
	}
	return c, nil
}

// normalize fills in the defaults and refuses the settings the loop cannot
// run with.
func (cfg *Config) normalize() error {
	if cfg.RateScale == 0 {
		cfg.RateScale = 1
	}
	if cfg.RateScale < 0 {
		return fmt.Errorf("cluster: RateScale %v must be positive", cfg.RateScale)
	}
	if cfg.Controller != nil && cfg.Cycle <= 0 {
		return fmt.Errorf("cluster: Cycle %v must be positive when a controller is set", cfg.Cycle)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return err
		}
		if err := cfg.Faults.Only(faults.ChunkPlane, faults.CrashPlane); err != nil {
			return fmt.Errorf("cluster: %w; a cluster injects chunk and crash faults", err)
		}
	}
	if cfg.Faults.Arms(faults.CrashPlane) && cfg.Cycle <= 0 {
		return fmt.Errorf("cluster: Cycle %v must be positive when crash faults are armed", cfg.Cycle)
	}
	return nil
}

// moveOutcome is one finished move's result, queued for the decision loop.
type moveOutcome struct {
	target int
	err    error
}

// Stats snapshots the runtime's decision counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Decisions:   c.decisions.Load(),
		Moves:       c.moves.Load(),
		Failures:    c.failures.Load(),
		Emergencies: c.emergencies.Load(),
		Migration:   c.ex.Stats(),
	}
}

// Start attaches the recorder and starts the monitoring/decision loop. The
// loop stops when ctx is cancelled or Stop is called.
func (c *Cluster) Start(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return errors.New("cluster: already started")
	}
	if c.stopping {
		return errors.New("cluster: already stopped")
	}
	if rec := c.cfg.Recorder; rec != nil {
		c.ex.SetRecorder(rec)
		rec.RecordMachines(time.Now(), c.topo.ActiveMachines())
	}
	c.started = true
	if c.cfg.Controller != nil || c.cfg.Faults.Arms(faults.CrashPlane) {
		loopCtx, cancel := context.WithCancel(ctx)
		c.cancel = cancel
		c.loopDone = make(chan struct{})
		go c.loop(loopCtx)
	}
	return nil
}

// Stop halts the decision loop, drains any in-flight move, detaches the
// recorder from the executor and closes the topology; the engines behind it
// keep serving. It is idempotent and safe to call concurrently.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.stopping = true
		cancel, loopDone := c.cancel, c.loopDone
		c.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		if loopDone != nil {
			<-loopDone
		}
		c.moveWG.Wait()
		c.ex.SetRecorder(nil)
		_ = c.topo.Close()
		c.subMu.Lock()
		for id, ch := range c.subs {
			close(ch)
			delete(c.subs, id)
		}
		c.subMu.Unlock()
	})
}

// Subscribe registers an event observer. Events are delivered in emission
// order on a channel with the given buffer (minimum 16); a subscriber that
// falls behind loses the events that no longer fit rather than stalling the
// runtime. The returned cancel function unsubscribes and closes the
// channel; the channel is also closed by Stop.
func (c *Cluster) Subscribe(buffer int) (<-chan Event, func()) {
	if buffer < 16 {
		buffer = 16
	}
	ch := make(chan Event, buffer)
	c.subMu.Lock()
	id := c.nextID
	c.nextID++
	c.subs[id] = ch
	c.subMu.Unlock()
	return ch, func() {
		c.subMu.Lock()
		defer c.subMu.Unlock()
		if sub, ok := c.subs[id]; ok {
			delete(c.subs, id)
			close(sub)
		}
	}
}

// publish fans an event out to every subscriber, dropping it for
// subscribers whose buffer is full.
func (c *Cluster) publish(e Event) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	for _, ch := range c.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// Reconfigure executes a move to the target machine count at the given
// migration rate (<= 0 uses the configured default) and blocks until it
// completes; a scripted sequence of moves is a sequence of calls. It shares
// the single-move-at-a-time invariant with the decision loop: ErrMoveInFlight
// is returned if a move is already running. A target outside [1, MaxMachines]
// or a non-finite rate is refused before any event is published or counted.
func (c *Cluster) Reconfigure(target int, rateFactor float64) error {
	done, err := c.beginMove(target, rateFactor, false)
	if err != nil {
		return err
	}
	if done == nil { // no-op move
		return nil
	}
	return <-done
}

// beginMove starts a reconfiguration in the background. It returns a
// channel that receives the move's result, or a nil channel for a no-op
// (target already active). The caller must not hold c.mu.
func (c *Cluster) beginMove(target int, rateFactor float64, emergency bool) (<-chan error, error) {
	c.mu.Lock()
	if !c.started || c.stopping {
		c.mu.Unlock()
		return nil, errors.New("cluster: not running")
	}
	if c.moving {
		c.mu.Unlock()
		return nil, ErrMoveInFlight
	}
	from := c.topo.ActiveMachines()
	if err := c.ex.Check(from, target, rateFactor); err != nil || target == from {
		c.mu.Unlock()
		return nil, err
	}
	c.moving = true
	c.moveSeq++
	seq := c.moveSeq
	c.moveWG.Add(1)
	c.mu.Unlock()

	c.moves.Add(1)
	c.publish(MoveStarted{Time: time.Now(), Seq: seq, From: from, To: target, RateFactor: rateFactor, Emergency: emergency})
	done := make(chan error, 1)
	go func() {
		start := time.Now()
		err := c.ex.Reconfigure(from, target, rateFactor)
		if err != nil {
			c.failures.Add(1)
		}
		c.mu.Lock()
		c.moving = false
		c.outcomes = append(c.outcomes, moveOutcome{target: target, err: err})
		c.mu.Unlock()
		if err != nil {
			rolledBack := true
			var me *squall.MoveError
			if errors.As(err, &me) {
				rolledBack = me.RolledBack
			}
			c.publish(MoveFailed{Time: time.Now(), Seq: seq, From: from, To: target,
				Duration: time.Since(start), Err: err, RolledBack: rolledBack})
		} else {
			c.publish(MoveFinished{Time: time.Now(), Seq: seq, From: from, To: target, Duration: time.Since(start)})
		}
		done <- err
		c.moveWG.Done()
	}()
	return done, nil
}

// loop is the monitoring/decision cycle (Section 6): every Cycle it drives
// the crash plane (recoveries due, scheduled crashes), measures the load
// offered since the previous tick, converts it to paper
// units, and asks the controller whether to reconfigure. Decisions execute
// in the background through the Squall executor, one at a time.
func (c *Cluster) loop(ctx context.Context) {
	defer close(c.loopDone)
	ticker := time.NewTicker(c.cfg.Cycle)
	defer ticker.Stop()
	// Start from the current counters so bootstrap work does not masquerade
	// as offered load on the first cycle.
	last, _ := c.topo.Sweep()
	for cycle := 0; ; cycle++ {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		c.recoveryTick(cycle)
		if c.cfg.Controller == nil {
			continue
		}
		cnt, sojourn := c.topo.Sweep()
		delta := cnt.Submitted - last.Submitted
		// Refused work per cycle is the backpressure signal: the engine only
		// refuses work when past capacity, so any nonzero count is direct
		// evidence the provisioning plan is behind the actual load.
		sig := elastic.OverloadSignal{
			Rejected:         cnt.Rejected - last.Rejected,
			DeadlineExceeded: cnt.DeadlineExceeded - last.DeadlineExceeded,
			QueueDelay:       sojourn,
		}
		last = cnt
		load := float64(delta) / c.cfg.RateScale
		c.mu.Lock()
		busy := c.moving
		outcomes := c.outcomes
		c.outcomes = nil
		c.mu.Unlock()
		// Deliver finished-move results before the controller decides, on
		// this goroutine, so a MoveObserver controller learns a move died
		// (and can re-plan around the misprediction) without ever being
		// called concurrently with its own Tick.
		if obs, ok := c.cfg.Controller.(elastic.MoveObserver); ok {
			for _, o := range outcomes {
				obs.MoveResult(o.target, o.err)
			}
		}
		if sig.Refused() > 0 {
			c.publish(OverloadObserved{Time: time.Now(), Cycle: cycle, Rejected: sig.Rejected,
				DeadlineExceeded: sig.DeadlineExceeded, QueueDelay: sig.QueueDelay})
		}
		// The overload signal is delivered every cycle — zero included, so
		// observers can track recovery — on this goroutine, before Tick.
		if obs, ok := c.cfg.Controller.(elastic.OverloadObserver); ok {
			obs.Overloaded(sig)
		}
		machines := c.topo.ActiveMachines()
		// The controller plans in units of capacity it can actually use:
		// crashed machines serve nothing, so it sees the effective size and
		// its targets are translated back below (the paper's Eq. 7 capacity
		// term shrinks the same way when machines disappear).
		downCount := len(c.down)
		effective := machines - downCount
		if effective < 1 {
			effective = 1
		}
		c.publish(LoadObserved{Time: time.Now(), Cycle: cycle, Machines: machines, Load: load, Down: downCount, Reconfiguring: busy})
		dec, err := c.cfg.Controller.Tick(effective, busy, load)
		if err != nil {
			c.failures.Add(1)
			c.publish(DecisionFailed{Time: time.Now(), Cycle: cycle, Err: err})
			continue
		}
		if dec == nil || busy {
			continue
		}
		// Translate the effective target back to a raw machine count: the
		// down machines still occupy slots, they just do not serve.
		target := dec.Target + downCount
		if max := c.topo.Config().MaxMachines; target > max {
			target = max
		}
		if target == machines {
			continue
		}
		if m, blocked := c.drainBlocked(target); blocked {
			// A scale-in below a down machine's slot would have to drain a
			// dead machine; wait for its recovery instead.
			c.failures.Add(1)
			c.publish(DecisionFailed{Time: time.Now(), Cycle: cycle,
				Err: fmt.Errorf("cluster: scale-in to %d machines would drain down machine %d", target, m)})
			continue
		}
		c.decisions.Add(1)
		if dec.Emergency {
			c.emergencies.Add(1)
			c.publish(EmergencyTriggered{Time: time.Now(), Cycle: cycle, Target: target, RateFactor: dec.RateFactor})
		}
		if _, err := c.beginMove(target, dec.RateFactor, dec.Emergency); err != nil {
			// Lost a race with a manual Reconfigure; skip this cycle.
			c.failures.Add(1)
		}
	}
}

// recoveryTick drives the crash plane for one monitoring cycle: machines
// whose downtime elapsed are restored and the crash schedule fires. It runs on
// the loop goroutine, the sole owner of c.down, so FailureObserver callbacks
// are never concurrent with Tick; each precedes its event's publication.
func (c *Cluster) recoveryTick(cycle int) {
	if c.down == nil {
		return
	}
	obs, _ := c.cfg.Controller.(elastic.FailureObserver)
	for _, m := range c.downDue(cycle) {
		st, err := c.topo.Restore(m)
		if err != nil {
			// Still down; retried next cycle.
			c.failures.Add(1)
			continue
		}
		delete(c.down, m)
		if obs != nil {
			obs.MachineRecovered(m)
		}
		c.publish(MachineRecovered{Time: time.Now(), Cycle: cycle, Machine: m,
			Downtime: st.Downtime, Replayed: st.Replayed})
	}
	if c.cfg.Faults.Arms(faults.CrashPlane) {
		for _, pc := range c.cfg.Faults.CrashesAt(cycle, c.topo.ActiveMachines()) {
			if _, dead := c.down[pc.Machine]; dead {
				continue
			}
			if err := c.topo.Crash(pc.Machine); err != nil {
				c.failures.Add(1)
				continue
			}
			recoverAt := cycle + pc.Down
			c.down[pc.Machine] = recoverAt
			if obs != nil {
				obs.MachineFailed(pc.Machine)
			}
			c.publish(MachineFailed{Time: time.Now(), Cycle: cycle, Machine: pc.Machine, RecoverAtCycle: recoverAt})
		}
	}
}

// downDue lists the crashed machines whose recovery cycle arrived, in
// machine order so event emission is deterministic.
func (c *Cluster) downDue(cycle int) []int {
	var due []int
	for m, at := range c.down {
		if at <= cycle {
			due = append(due, m)
		}
	}
	sort.Ints(due)
	return due
}

// drainBlocked reports whether scaling to target would require draining a
// crashed machine (any down machine whose slot is at or beyond the target).
func (c *Cluster) drainBlocked(target int) (int, bool) {
	blocked, found := -1, false
	for m := range c.down {
		if m >= target && (!found || m < blocked) {
			blocked, found = m, true
		}
	}
	return blocked, found
}
