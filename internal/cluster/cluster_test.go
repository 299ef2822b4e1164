package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"pstore/internal/elastic"
	"pstore/internal/faults"
	"pstore/internal/metrics"
	"pstore/internal/node"
	"pstore/internal/node/nodetest"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/transport"
)

func testEngineConfig() store.Config {
	return store.Config{
		MaxMachines:          3,
		PartitionsPerMachine: 2,
		Buckets:              60,
		ServiceTime:          50 * time.Microsecond,
		QueueCapacity:        4096,
		InitialMachines:      1,
	}
}

func testSquallConfig() squall.Config {
	return squall.Config{
		ChunkRows:     50,
		RowCost:       time.Microsecond,
		ChunkOverhead: 10 * time.Microsecond,
		Spacing:       100 * time.Microsecond,
		RateFactor:    1,
	}
}

func registerNoop(eng *store.Engine) error {
	return eng.Register("noop", store.Proc(func(tx *store.Tx, _ store.NoArgs) (any, error) { return nil, nil }))
}

// noopConfig is a one-node node hosting every machine of cfg, with the noop
// procedure.
func noopConfig(cfg store.Config) node.Config {
	return node.Config{Store: cfg, Register: registerNoop}
}

// local is the loop's topology over a node's own engine.
func local(n *node.Node) transport.Topology { return transport.NewLocal(n.Engine, n.Recovery) }

// attachRecorder attaches a fresh recorder to n's engine and returns it for
// the loop's Config.
func attachRecorder(t *testing.T, n *node.Node) *metrics.Recorder {
	t.Helper()
	rec, err := metrics.NewRecorder(time.Now(), 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	n.Engine.SetRecorder(rec)
	return rec
}

// cycleController is a deterministic scripted controller: once it sees load
// it scales out, and once the scale-out has landed it scales back in.
type cycleController struct {
	out, in int
	phase   int
}

func (c *cycleController) Name() string { return "cycle" }

func (c *cycleController) Tick(machines int, reconfiguring bool, load float64) (*elastic.Decision, error) {
	if reconfiguring {
		return nil, nil
	}
	switch c.phase {
	case 0:
		if load > 0 {
			c.phase = 1
			return &elastic.Decision{Target: c.out, RateFactor: 1}, nil
		}
	case 1:
		if machines == c.out {
			c.phase = 2
			return &elastic.Decision{Target: c.in, RateFactor: 1}, nil
		}
	}
	return nil, nil
}

// driveLoad submits no-op transactions until stop is closed.
func driveLoad(t *testing.T, eng *store.Engine, stop <-chan struct{}, wg *sync.WaitGroup) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Execute("noop", fmt.Sprintf("key-%d", i), nil); err != nil {
				return
			}
		}
	}()
}

// TestClusterScaleOutScaleInEvents starts a cluster, drives load through a
// full scale-out + scale-in cycle, and checks the typed event stream tells
// the whole story in order.
func TestClusterScaleOutScaleInEvents(t *testing.T) {
	n := nodetest.Node(t, noopConfig(testEngineConfig()))
	rec := attachRecorder(t, n)
	c, err := NewRemote(Config{
		Squall:     testSquallConfig(),
		Controller: &cycleController{out: 3, in: 1},
		Cycle:      3 * time.Millisecond,
		Recorder:   rec,
	}, local(n))
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := c.Subscribe(4096)
	defer unsub()
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	driveLoad(t, n.Engine, stop, &wg)

	// Collect events until both moves have finished.
	var got []Event
	finished := 0
	deadline := time.After(20 * time.Second)
	for finished < 2 {
		select {
		case e := <-events:
			got = append(got, e)
			if _, ok := e.(MoveFinished); ok {
				finished++
			}
		case <-deadline:
			t.Fatalf("timed out after %d moves; %d events so far", finished, len(got))
		}
	}
	close(stop)
	wg.Wait()
	c.Stop()

	// The stream must open with at least one load observation before any
	// move starts.
	if len(got) == 0 {
		t.Fatal("no events")
	}
	if _, ok := got[0].(LoadObserved); !ok {
		t.Fatalf("first event %T, want LoadObserved", got[0])
	}

	// Extract the move events and check the full cycle in order.
	var moves []Event
	for _, e := range got {
		switch e.(type) {
		case MoveStarted, MoveFinished:
			moves = append(moves, e)
		}
	}
	if len(moves) != 4 {
		t.Fatalf("got %d move events, want 4 (out start/finish, in start/finish): %v", len(moves), moves)
	}
	s1, ok := moves[0].(MoveStarted)
	if !ok || s1.From != 1 || s1.To != 3 || s1.Seq != 1 {
		t.Fatalf("move event 0 = %+v, want scale-out start 1->3 seq 1", moves[0])
	}
	f1, ok := moves[1].(MoveFinished)
	if !ok || f1.Seq != s1.Seq {
		t.Fatalf("move event 1 = %+v, want successful finish of seq %d", moves[1], s1.Seq)
	}
	s2, ok := moves[2].(MoveStarted)
	if !ok || s2.From != 3 || s2.To != 1 || s2.Seq != 2 {
		t.Fatalf("move event 2 = %+v, want scale-in start 3->1 seq 2", moves[2])
	}
	f2, ok := moves[3].(MoveFinished)
	if !ok || f2.Seq != s2.Seq {
		t.Fatalf("move event 3 = %+v, want successful finish of seq %d", moves[3], s2.Seq)
	}

	// While a move was in flight, every load observation must have said so
	// consistently with the started/finished bracketing; and no second move
	// may start before the first finishes (single-owner invariant).
	if n.Engine.ActiveMachines() != 1 {
		t.Errorf("final machines %d, want 1", n.Engine.ActiveMachines())
	}
	st := c.Stats()
	if st.Decisions != 2 || st.Moves != 2 {
		t.Errorf("stats %+v, want 2 decisions and 2 moves", st)
	}
	if st.Failures != 0 {
		t.Errorf("stats %+v, want no failures", st)
	}
	if rec.MachineSeries() == nil {
		t.Error("recorder has no machine timeline")
	}
}

// errController always fails its Tick.
type errController struct{}

func (errController) Name() string { return "err" }
func (errController) Tick(int, bool, float64) (*elastic.Decision, error) {
	return nil, errors.New("boom")
}

func TestClusterDecisionFailedEvents(t *testing.T) {
	c, err := NewRemote(Config{
		Squall:     testSquallConfig(),
		Controller: errController{},
		Cycle:      2 * time.Millisecond,
	}, local(nodetest.Node(t, noopConfig(testEngineConfig()))))
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := c.Subscribe(64)
	defer unsub()
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	deadline := time.After(10 * time.Second)
	for {
		select {
		case e := <-events:
			if df, ok := e.(DecisionFailed); ok {
				if df.Err == nil {
					t.Fatal("DecisionFailed with nil error")
				}
				if c.Stats().Failures == 0 {
					t.Error("failure not counted")
				}
				return
			}
		case <-deadline:
			t.Fatal("no DecisionFailed event")
		}
	}
}

// emergencyController issues one emergency decision as soon as it runs.
type emergencyController struct{ fired bool }

func (e *emergencyController) Name() string { return "emergency" }
func (e *emergencyController) Tick(machines int, reconfiguring bool, load float64) (*elastic.Decision, error) {
	if e.fired || reconfiguring {
		return nil, nil
	}
	e.fired = true
	return &elastic.Decision{Target: 2, RateFactor: 8, Emergency: true}, nil
}

// TestClusterEmergencyRate checks an emergency decision's own rate (the
// Figure 11 "rate R x 8" spike) reaches both the EmergencyTriggered event and
// the move it starts.
func TestClusterEmergencyRate(t *testing.T) {
	c, err := NewRemote(Config{
		Squall:     testSquallConfig(),
		Controller: &emergencyController{},
		Cycle:      2 * time.Millisecond,
	}, local(nodetest.Node(t, noopConfig(testEngineConfig()))))
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := c.Subscribe(256)
	defer unsub()
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	var sawEmergency bool
	deadline := time.After(10 * time.Second)
	for {
		select {
		case e := <-events:
			switch ev := e.(type) {
			case EmergencyTriggered:
				sawEmergency = true
				if ev.RateFactor != 8 {
					t.Errorf("EmergencyTriggered.RateFactor = %v, want the decision's 8", ev.RateFactor)
				}
			case MoveStarted:
				if !sawEmergency {
					t.Error("MoveStarted before EmergencyTriggered")
				}
				if !ev.Emergency {
					t.Errorf("move not flagged emergency: %+v", ev)
				}
				if ev.RateFactor != 8 {
					t.Errorf("MoveStarted.RateFactor = %v, want the decision's 8", ev.RateFactor)
				}
				if got := c.Stats().Emergencies; got != 1 {
					t.Errorf("emergencies %d, want 1", got)
				}
				return
			}
		case <-deadline:
			t.Fatal("no emergency move observed")
		}
	}
}

// idleController observes and never decides.
type idleController struct{}

func (idleController) Name() string { return "idle" }
func (idleController) Tick(int, bool, float64) (*elastic.Decision, error) {
	return nil, nil
}

// TestClusterLoadIsTransactionsOverRateScale checks the load the loop
// observes: each cycle's LoadObserved.Load is its transaction count divided
// by RateScale, so the cycles' loads add up to the transactions submitted
// over RateScale.
func TestClusterLoadIsTransactionsOverRateScale(t *testing.T) {
	const rateScale, txns = 4, 40
	n := nodetest.Node(t, noopConfig(testEngineConfig()))
	c, err := NewRemote(Config{
		Squall:     testSquallConfig(),
		Controller: idleController{},
		Cycle:      2 * time.Millisecond,
		RateScale:  rateScale,
	}, local(n))
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := c.Subscribe(4096)
	defer unsub()
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	deadline := time.After(10 * time.Second)
	next := func() LoadObserved {
		for {
			select {
			case e := <-events:
				if lo, ok := e.(LoadObserved); ok {
					return lo
				}
			case <-deadline:
				t.Fatal("no LoadObserved event")
			}
		}
	}
	// The loop counts from its first cycle; submit only once it has begun.
	next()
	for i := 0; i < txns; i++ {
		if _, err := n.Engine.Execute("noop", fmt.Sprintf("key-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}

	var seen float64
	for seen*rateScale < txns {
		select {
		case e := <-events:
			if lo, ok := e.(LoadObserved); ok {
				seen += lo.Load
			}
		case <-deadline:
			t.Fatalf("cycles observed %v transactions' load in total, want %d/%d", seen, txns, rateScale)
		}
	}
	if seen*rateScale != txns {
		t.Fatalf("cycles observed %v in total, want %d transactions / RateScale %d = %v", seen, txns, rateScale, float64(txns)/rateScale)
	}
}

// TestClusterManualReconfigure exercises the synchronous operator-move path,
// its events, and the single-move-at-a-time invariant.
func TestClusterManualReconfigure(t *testing.T) {
	n := nodetest.Node(t, noopConfig(testEngineConfig()))
	c, err := NewRemote(Config{Squall: testSquallConfig()}, local(n))
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := c.Subscribe(64)
	defer unsub()
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Reconfigure(3, 0); err != nil {
		t.Fatal(err)
	}
	if n.Engine.ActiveMachines() != 3 {
		t.Fatalf("machines %d, want 3", n.Engine.ActiveMachines())
	}
	ev := <-events
	if mv, ok := ev.(MoveStarted); !ok || mv.From != 1 || mv.To != 3 || mv.Seq != 1 {
		t.Fatalf("first event %v, want MoveStarted 1->3 seq 1", ev)
	}
	ev = <-events
	if mv, ok := ev.(MoveFinished); !ok || mv.Seq != 1 {
		t.Fatalf("second event %v, want MoveFinished seq 1", ev)
	}
	if err := c.Reconfigure(3, 0); err != nil {
		t.Fatalf("no-op reconfigure: %v", err)
	}
	if err := c.Reconfigure(2, 0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Moves != 2 {
		t.Errorf("moves %d, want 2 (no-op must not count)", st.Moves)
	}
	c.Stop()
	if err := c.Reconfigure(1, 0); err == nil {
		t.Error("Reconfigure after Stop succeeded")
	}
	<-events // the 3 -> 2 move's start
	<-events // and finish
	if _, open := <-events; open {
		t.Error("event stream not closed by Stop")
	}
}

// TestClusterReconfigureRefusesBadInput: a target outside [1, MaxMachines]
// and a non-finite rate are refused before the move is reported — no
// MoveStarted, and neither a move nor a failure is counted.
func TestClusterReconfigureRefusesBadInput(t *testing.T) {
	c, err := NewRemote(Config{Squall: testSquallConfig()}, local(nodetest.Node(t, noopConfig(testEngineConfig()))))
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := c.Subscribe(64)
	defer unsub()
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, target := range []int{0, 4} { // MaxMachines is 3
		if err := c.Reconfigure(target, 0); err == nil {
			t.Errorf("Reconfigure(%d, 0) succeeded", target)
		}
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1)} {
		if err := c.Reconfigure(2, rate); err == nil {
			t.Errorf("Reconfigure(2, %v) succeeded", rate)
		}
	}
	if st := c.Stats(); len(events) != 0 || st.Moves != 0 || st.Failures != 0 {
		t.Errorf("refused moves left %d events and stats %+v, want none", len(events), st)
	}
}

// observingController never decides but records every move outcome the
// runtime delivers, so tests can assert the MoveObserver plumbing.
type observingController struct {
	mu      sync.Mutex
	results []error
}

func (o *observingController) Name() string { return "observing" }
func (o *observingController) Tick(int, bool, float64) (*elastic.Decision, error) {
	return nil, nil
}
func (o *observingController) MoveResult(target int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.results = append(o.results, err)
}
func (o *observingController) snapshot() []error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]error(nil), o.results...)
}

// TestClusterMoveFailureEventAndRecovery wires a fault injector that kills
// one partition pair into the runtime and checks the full failure story: the
// reconfiguration fails with a rolled-back MoveFailed event, the failure is
// counted, the controller hears about it on the decision loop, and the
// runtime immediately accepts and completes a subsequent move once the
// fault clears.
func TestClusterMoveFailureEventAndRecovery(t *testing.T) {
	inj, err := faults.Parse("seed=1,crash-pair=0:2")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &observingController{}
	n := nodetest.Node(t, noopConfig(testEngineConfig()))
	c, err := NewRemote(Config{
		Squall:     testSquallConfig(),
		Controller: ctrl,
		Cycle:      2 * time.Millisecond,
		Faults:     inj,
	}, local(n))
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := c.Subscribe(256)
	defer unsub()
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	moveErr := c.Reconfigure(2, 0)
	if moveErr == nil {
		t.Fatal("reconfiguration over a crashed pair succeeded")
	}
	var me *squall.MoveError
	if !errors.As(moveErr, &me) || !me.RolledBack {
		t.Fatalf("error %v, want a rolled-back *squall.MoveError", moveErr)
	}
	if got := n.Engine.ActiveMachines(); got != 1 {
		t.Fatalf("machines %d after failed move, want 1", got)
	}
	failedStats := c.Stats()
	if failedStats.Failures != 1 || failedStats.Migration.Aborts != 1 {
		t.Errorf("Failures = %d, Migration.Aborts = %d, want 1 and 1", failedStats.Failures, failedStats.Migration.Aborts)
	}

	// The event stream must show started -> failed, with the failure typed.
	var failed *MoveFailed
	deadline := time.After(10 * time.Second)
	for failed == nil {
		select {
		case e := <-events:
			switch ev := e.(type) {
			case MoveFinished:
				t.Fatalf("MoveFinished %+v for a failed move", ev)
			case MoveFailed:
				failed = &ev
			}
		case <-deadline:
			t.Fatal("no MoveFailed event")
		}
	}
	if failed.Err == nil || !failed.RolledBack || failed.From != 1 || failed.To != 2 {
		t.Fatalf("MoveFailed %+v, want rolled-back 1->2 with error", failed)
	}

	// The decision loop must deliver the outcome to the observer.
	deadline = time.After(10 * time.Second)
	for {
		if rs := ctrl.snapshot(); len(rs) > 0 {
			if rs[0] == nil {
				t.Fatal("observer saw nil error for the failed move")
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("controller never heard about the failed move")
		case <-time.After(time.Millisecond):
		}
	}

	// Clear the fault plane: the runtime must accept a fresh move at once.
	n.Engine.SetFaultInjector(nil)
	if err := c.Reconfigure(2, 0); err != nil {
		t.Fatalf("reconfiguration after recovered failure: %v", err)
	}
	if got := n.Engine.ActiveMachines(); got != 2 {
		t.Fatalf("machines %d after recovery, want 2", got)
	}
	if got := c.Stats().Migration.ChunksMoved; got <= failedStats.Migration.ChunksMoved {
		t.Errorf("Migration.ChunksMoved = %d after a completed move, want above the %d of the failed one",
			got, failedStats.Migration.ChunksMoved)
	}
	deadline = time.After(10 * time.Second)
	for {
		rs := ctrl.snapshot()
		if len(rs) >= 2 {
			if rs[1] != nil {
				t.Fatalf("observer saw error %v for the successful move", rs[1])
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("controller never heard about the successful move")
		case <-time.After(time.Millisecond):
		}
	}
	if st := c.Stats(); st.Moves != 2 || st.Failures != 1 {
		t.Errorf("stats %+v, want 2 moves and 1 failure", st)
	}
}
