// Package cluster is the P-Store serving runtime: it assembles the full
// stack the paper runs as one closed loop (Section 6, Figures 9-11) — the
// partitioned storage engine, the Squall migration executor, the latency
// recorder, and a provisioning controller — behind a single lifecycle.
//
// A Cluster is the sole owner of move execution: the monitoring/decision
// loop observes the aggregate load once per cycle, consults the controller,
// and executes at most one reconfiguration at a time through the executor.
// Observers subscribe to a typed event stream (MoveStarted, MoveFinished,
// DecisionFailed, EmergencyTriggered, per-cycle LoadObserved) instead of
// reaching into engine counters or executor state.
//
// Lifecycle: New(Config) builds the stack; register transactions on
// Engine() before Start; Start(ctx) boots the engine, runs the optional
// Bootstrap loader, attaches the recorder and launches the decision loop;
// Stop() halts the loop, drains any in-flight move, detaches the recorder
// and shuts the engine down.
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
	"pstore/internal/recovery"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/transport"
)

// Config assembles a Cluster.
type Config struct {
	// Engine sizes the storage substrate.
	Engine store.Config
	// Squall tunes migration chunking and throttling.
	Squall squall.Config
	// Controller decides, once per Cycle, whether to reconfigure. Nil runs
	// a static cluster (no monitoring loop).
	Controller elastic.Controller
	// Cycle is the wall time between controller ticks. Required when a
	// Controller is set.
	Cycle time.Duration
	// RateScale converts paper-unit requests into substrate transactions:
	// observed transaction counts are divided by it before reaching the
	// controller. Zero means 1 (controller sees raw transactions).
	RateScale float64
	// CycleTraceMinutes is how many trace minutes one cycle spans; the
	// observed load is averaged over it so the controller sees requests per
	// trace minute. Zero means 1.
	CycleTraceMinutes float64
	// SpikeRateFactor overrides the migration rate of emergency moves (the
	// paper's "rate R x 8" study, Figure 11). Zero keeps each decision's
	// own rate.
	SpikeRateFactor float64
	// RecorderWindow is the latency recorder's aggregation window. Zero
	// runs without a recorder.
	RecorderWindow time.Duration
	// Bootstrap, if set, runs during Start after the engine boots but
	// before the recorder attaches and the decision loop begins — the place
	// to load data so bulk loading is neither measured nor mistaken for
	// offered load. With a recovery manager it runs inside
	// recovery.Manager.Bootstrap: unlogged, made durable by the baseline
	// checkpoint round that ends it.
	Bootstrap func(*store.Engine) error
	// FaultInjector, if set, is attached to the engine's migration path
	// for chaos runs (see internal/faults). Failed moves roll back and
	// surface as MoveFailed events; the runtime itself keeps serving.
	FaultInjector store.FaultInjector
	// Crash, if set and non-empty, arms the deterministic machine-crash
	// schedule: the decision loop consults it every monitoring cycle,
	// crashes fire as MachineFailed events, and crashed machines recover
	// automatically after their downtime (in cycles) through the recovery
	// manager. Requires Cycle > 0; a controller is optional.
	Crash *faults.CrashSchedule
	// CheckpointEvery checkpoints the recovery manager every N monitoring
	// cycles. Zero defaults to 10 when a crash schedule is armed; setting
	// it without a crash schedule still builds the recovery manager (for
	// manual Crash/Restore via Recovery()).
	CheckpointEvery int
	// DataDir enables the durable storage tier: the recovery manager's
	// command log becomes a segmented on-disk WAL with per-bucket checkpoint
	// images under this directory. If the directory already holds a previous
	// life's state, Start cold-starts the engine from it *instead of*
	// running Bootstrap — the data outlives the process. Implies a recovery
	// manager even without a crash schedule.
	DataDir string
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
}

// ErrMoveInFlight is returned by Reconfigure while another move is running.
var ErrMoveInFlight = errors.New("cluster: a reconfiguration is already in flight")

// errCoordinatorSubmit is returned by the Submit family in coordinator mode:
// a remote-topology cluster plans and migrates, but transactions enter
// through the node front ends, not through the coordinator.
var errCoordinatorSubmit = errors.New("cluster: coordinator has no local engine")

// Cluster owns the serving stack and its monitoring/decision loop. The
// controllers, the event stream and the recovery plane all run against a
// transport.Topology, so the same runtime drives a single-process engine
// (New) or a coordinator over multi-process node groups (NewRemote) without
// knowing where partitions live.
type Cluster struct {
	cfg Config
	// eng is the local engine, nil in coordinator mode.
	eng *store.Engine
	// topo is the placement-oblivious surface every decision reads.
	topo transport.Topology
	// hasRecovery reports whether topo serves the crash/restore plane.
	hasRecovery bool
	ex          *squall.Executor
	rec         *metrics.Recorder
	rm          *recovery.Manager
	// coldStart records the rebuild Start performed when the data directory
	// held a previous life's state; nil after a fresh bootstrap.
	coldStart *recovery.ColdStartStats

	// down maps a crashed machine to the cycle its recovery begins. It is
	// owned exclusively by the decision-loop goroutine.
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

// New builds the serving stack. The engine is not started; register
// transactions on Engine() first, then call Start.
func New(cfg Config) (*Cluster, error) {
	if cfg.RateScale == 0 {
		cfg.RateScale = 1
	}
	if cfg.RateScale < 0 {
		return nil, fmt.Errorf("cluster: RateScale %v must be positive", cfg.RateScale)
	}
	if cfg.CycleTraceMinutes == 0 {
		cfg.CycleTraceMinutes = 1
	}
	if cfg.CycleTraceMinutes < 0 {
		return nil, fmt.Errorf("cluster: CycleTraceMinutes %v must be positive", cfg.CycleTraceMinutes)
	}
	if cfg.Controller != nil && cfg.Cycle <= 0 {
		return nil, fmt.Errorf("cluster: Cycle %v must be positive when a controller is set", cfg.Cycle)
	}
	if cfg.Crash != nil {
		if err := cfg.Crash.Validate(); err != nil {
			return nil, err
		}
		if cfg.Crash.Empty() {
			cfg.Crash = nil
		}
	}
	if cfg.Crash != nil && cfg.Cycle <= 0 {
		return nil, fmt.Errorf("cluster: Cycle %v must be positive when a crash schedule is armed", cfg.Cycle)
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("cluster: CheckpointEvery %d must be non-negative", cfg.CheckpointEvery)
	}
	if cfg.Crash != nil && cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 10
	}
	eng, err := store.NewEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, eng: eng, subs: map[int]chan Event{}}
	if cfg.Crash != nil || cfg.CheckpointEvery > 0 || cfg.DataDir != "" {
		// The manager attaches to the command-log hook now, before Start,
		// so every machine is recoverable from the first transaction on.
		c.rm, err = recovery.New(eng, recovery.Config{DataDir: cfg.DataDir})
		if err != nil {
			return nil, err
		}
		c.down = map[int]int{}
		c.hasRecovery = true
	}
	c.topo = transport.NewLocal(eng, c.rm)
	c.ex, err = squall.NewExecutor(c.topo, cfg.Squall)
	if err != nil {
		return nil, err
	}
	if cfg.FaultInjector != nil {
		c.topo.SetFaultInjector(cfg.FaultInjector)
	}
	return c, nil
}

// NewRemote builds the serving runtime in coordinator mode: the same
// decision loop, event stream and crash plane, but over a multi-process
// topology instead of a local engine. The coordinator executes migrations
// and drives crash recovery through node RPCs; transactions are submitted
// directly to the node front ends, so Submit and friends are unavailable.
// Bootstrap and RecorderWindow require a local engine and are rejected.
func NewRemote(cfg Config, topo transport.Topology) (*Cluster, error) {
	if topo == nil {
		return nil, errors.New("cluster: NewRemote needs a topology")
	}
	if cfg.Bootstrap != nil {
		return nil, errors.New("cluster: Bootstrap requires a local engine; load through the node front ends")
	}
	if cfg.RecorderWindow > 0 {
		return nil, errors.New("cluster: RecorderWindow requires a local engine")
	}
	// The geometry comes from the topology (which took it from the nodes),
	// never from flags that could drift.
	cfg.Engine = topo.Config()
	if cfg.RateScale == 0 {
		cfg.RateScale = 1
	}
	if cfg.RateScale < 0 {
		return nil, fmt.Errorf("cluster: RateScale %v must be positive", cfg.RateScale)
	}
	if cfg.CycleTraceMinutes == 0 {
		cfg.CycleTraceMinutes = 1
	}
	if cfg.CycleTraceMinutes < 0 {
		return nil, fmt.Errorf("cluster: CycleTraceMinutes %v must be positive", cfg.CycleTraceMinutes)
	}
	if cfg.Controller != nil && cfg.Cycle <= 0 {
		return nil, fmt.Errorf("cluster: Cycle %v must be positive when a controller is set", cfg.Cycle)
	}
	if cfg.Crash != nil {
		if err := cfg.Crash.Validate(); err != nil {
			return nil, err
		}
		if cfg.Crash.Empty() {
			cfg.Crash = nil
		}
	}
	if cfg.Crash != nil && cfg.Cycle <= 0 {
		return nil, fmt.Errorf("cluster: Cycle %v must be positive when a crash schedule is armed", cfg.Cycle)
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("cluster: CheckpointEvery %d must be non-negative", cfg.CheckpointEvery)
	}
	if cfg.Crash != nil && cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 10
	}
	c := &Cluster{cfg: cfg, topo: topo, subs: map[int]chan Event{}}
	if cfg.Crash != nil || cfg.CheckpointEvery > 0 {
		// The crash plane is armed exactly as in New; the node processes
		// must therefore run with recovery managers attached.
		c.down = map[int]int{}
		c.hasRecovery = true
	}
	var err error
	c.ex, err = squall.NewExecutor(topo, cfg.Squall)
	if err != nil {
		return nil, err
	}
	if cfg.FaultInjector != nil {
		topo.SetFaultInjector(cfg.FaultInjector)
	}
	return c, nil
}

// moveOutcome is one finished move's result, queued for the decision loop.
type moveOutcome struct {
	target int
	err    error
}

// Engine exposes the storage engine for transaction registration and driver
// attachment. Register transactions before Start. Nil in coordinator mode.
func (c *Cluster) Engine() *store.Engine { return c.eng }

// Topology exposes the placement surface the runtime operates on: a Local
// wrapper in single-process mode, the caller's Remote in coordinator mode.
func (c *Cluster) Topology() transport.Topology { return c.topo }

// Recorder returns the latency recorder, or nil before Start or when no
// RecorderWindow was configured. It stays readable after Stop.
func (c *Cluster) Recorder() *metrics.Recorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec
}

// Recovery returns the crash-recovery manager, or nil when the cluster runs
// without one (no crash schedule and no checkpoint interval configured).
func (c *Cluster) Recovery() *recovery.Manager { return c.rm }

// ColdStart returns the stats of the cold start Start performed, or nil if
// the cluster bootstrapped fresh data.
func (c *Cluster) ColdStart() *recovery.ColdStartStats { return c.coldStart }

// Stats snapshots the runtime's decision counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Decisions:   c.decisions.Load(),
		Moves:       c.moves.Load(),
		Failures:    c.failures.Load(),
		Emergencies: c.emergencies.Load(),
	}
}

// Start boots the engine, runs Bootstrap, attaches the recorder and starts
// the monitoring/decision loop. The loop stops when ctx is cancelled or
// Stop is called.
func (c *Cluster) Start(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return errors.New("cluster: already started")
	}
	if c.stopping {
		return errors.New("cluster: already stopped")
	}
	// A recovery plane needs a baseline checkpoint, so the first crash replays
	// only the live traffic since Start. A fresh local engine's bootstrap
	// round is that baseline; a cold start and a coordinator take one below.
	baseline := c.hasRecovery
	if c.eng != nil {
		c.eng.Start()
		load := func() error { return nil }
		if c.cfg.Bootstrap != nil {
			load = func() error { return c.cfg.Bootstrap(c.eng) }
		}
		var err error
		switch {
		case c.rm != nil && c.rm.HasColdState():
			// The data directory holds a previous life's state: rebuild the
			// whole engine from disk instead of bootstrapping fresh data.
			st, err := c.rm.ColdStart()
			if err != nil {
				return fmt.Errorf("cluster: cold start: %w", err)
			}
			c.coldStart = &st
		case c.rm != nil:
			_, err = c.rm.Bootstrap(load)
			baseline = false
		default:
			err = load()
		}
		if err != nil {
			return fmt.Errorf("cluster: bootstrap: %w", err)
		}
		if c.cfg.RecorderWindow > 0 {
			rec, err := metrics.NewRecorder(time.Now(), c.cfg.RecorderWindow)
			if err != nil {
				return err
			}
			c.rec = rec
			c.eng.SetRecorder(rec)
			c.ex.SetRecorder(rec)
			if c.rm != nil {
				c.rm.SetRecorder(rec)
			}
			rec.RecordMachines(time.Now(), c.topo.ActiveMachines())
		}
	}
	if baseline {
		if _, err := c.topo.Checkpoint(); err != nil {
			return fmt.Errorf("cluster: initial checkpoint: %w", err)
		}
	}
	c.started = true
	if c.cfg.Controller != nil || c.cfg.Crash != nil {
		loopCtx, cancel := context.WithCancel(ctx)
		c.cancel = cancel
		c.loopDone = make(chan struct{})
		go c.loop(loopCtx)
	}
	return nil
}

// Stop halts the decision loop, drains any in-flight move, detaches the
// recorder and shuts the engine down. It is idempotent and safe to call
// concurrently.
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
		if c.eng != nil {
			c.eng.SetRecorder(nil)
			c.eng.Stop()
			if c.rm != nil {
				// Release the WAL's active segment (everything acknowledged
				// is already durable; this flushes nothing).
				_ = c.rm.Close()
			}
		} else {
			// Coordinator mode: release topology resources; the node
			// processes keep serving.
			_ = c.topo.Close()
		}
		c.subMu.Lock()
		for id, ch := range c.subs {
			close(ch)
			delete(c.subs, id)
		}
		c.subMu.Unlock()
	})
}

// Submit routes one transaction through the engine and blocks until it
// completes. It is safe for concurrent use. Hot loops should resolve a
// Handle once and call SubmitID.
func (c *Cluster) Submit(name, key string, args any) (any, error) {
	if c.eng == nil {
		return nil, errCoordinatorSubmit
	}
	return c.eng.Execute(name, key, args)
}

// Handle resolves a registered transaction name to its dense engine id.
func (c *Cluster) Handle(name string) (store.TxnID, bool) {
	if c.eng == nil {
		return 0, false
	}
	return c.eng.Handle(name)
}

// SubmitID routes a pre-resolved transaction through the engine's
// allocation-free hot path and blocks until it completes.
func (c *Cluster) SubmitID(id store.TxnID, key string, args any) (any, error) {
	if c.eng == nil {
		return nil, errCoordinatorSubmit
	}
	return c.eng.ExecuteID(id, key, args)
}

// SubmitIDContext is SubmitID with a bounded submission wait: if ctx ends
// before the transaction is accepted into a partition queue, the submission
// is refused as overload. It is the entry point the network front end uses
// to propagate per-request wire deadlines into the engine.
func (c *Cluster) SubmitIDContext(ctx context.Context, id store.TxnID, key string, args any) (any, error) {
	if c.eng == nil {
		return nil, errCoordinatorSubmit
	}
	return c.eng.ExecuteIDContext(ctx, id, key, args)
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

// Reconfigure executes a manual move to the target machine count at the
// given migration rate (<= 0 uses the configured default) and blocks until
// it completes. It shares the single-move-at-a-time invariant with the
// decision loop: ErrMoveInFlight is returned if a move is already running.
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
	if target == from {
		c.mu.Unlock()
		return nil, nil
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
// the crash plane (recoveries due, scheduled crashes, periodic checkpoints),
// measures the load offered since the previous tick, converts it to paper
// units, and asks the controller whether to reconfigure. Decisions execute
// in the background through the Squall executor, one at a time.
func (c *Cluster) loop(ctx context.Context) {
	defer close(c.loopDone)
	ticker := time.NewTicker(c.cfg.Cycle)
	defer ticker.Stop()
	// Start from the current counters so bootstrap work does not masquerade
	// as offered load on the first cycle.
	last := c.topo.Counters()
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
		cnt := c.topo.Counters()
		delta := cnt.Submitted - last.Submitted
		// Refused work per cycle is the backpressure signal: the engine only
		// rejects/sheds when past capacity, so any nonzero count is direct
		// evidence the provisioning plan is behind the actual load.
		sig := elastic.OverloadSignal{
			Rejected:         cnt.Rejected - last.Rejected,
			Shed:             cnt.Shed - last.Shed,
			DeadlineExceeded: cnt.DeadlineExceeded - last.DeadlineExceeded,
			QueueDelay:       c.topo.MaxQueueSojourn(),
		}
		last = cnt
		load := float64(delta) / c.cfg.RateScale / c.cfg.CycleTraceMinutes
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
				Shed: sig.Shed, DeadlineExceeded: sig.DeadlineExceeded, QueueDelay: sig.QueueDelay})
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
		if max := c.cfg.Engine.MaxMachines; target > max {
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
		rate := dec.RateFactor
		if dec.Emergency {
			c.emergencies.Add(1)
			c.publish(EmergencyTriggered{Time: time.Now(), Cycle: cycle, Target: target, RateFactor: rate})
			if c.cfg.SpikeRateFactor > 0 {
				rate = c.cfg.SpikeRateFactor
			}
		}
		if _, err := c.beginMove(target, rate, dec.Emergency); err != nil {
			// Lost a race with a manual Reconfigure; skip this cycle.
			c.failures.Add(1)
		}
	}
}

// recoveryTick drives the crash plane for one monitoring cycle: machines
// whose downtime elapsed are restored, the crash schedule fires, and the
// periodic checkpoint runs. It runs on the loop goroutine, the sole owner of
// c.down, so FailureObserver callbacks are never concurrent with Tick.
func (c *Cluster) recoveryTick(cycle int) {
	if !c.hasRecovery {
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
		c.publish(MachineRecovered{Time: time.Now(), Cycle: cycle, Machine: m,
			Downtime: st.Downtime, Replayed: st.Replayed})
		if obs != nil {
			obs.MachineRecovered(m)
		}
	}
	if c.cfg.Crash != nil {
		for _, pc := range c.cfg.Crash.CrashesAt(cycle, c.topo.ActiveMachines()) {
			if _, dead := c.down[pc.Machine]; dead {
				continue
			}
			if err := c.topo.Crash(pc.Machine); err != nil {
				c.failures.Add(1)
				continue
			}
			recoverAt := cycle + c.cfg.Crash.DowntimeFor(pc)
			c.down[pc.Machine] = recoverAt
			c.publish(MachineFailed{Time: time.Now(), Cycle: cycle, Machine: pc.Machine, RecoverAtCycle: recoverAt})
			if obs != nil {
				obs.MachineFailed(pc.Machine)
			}
		}
	}
	if every := c.cfg.CheckpointEvery; every > 0 && cycle > 0 && cycle%every == 0 {
		if _, err := c.topo.Checkpoint(); err != nil {
			c.failures.Add(1)
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
