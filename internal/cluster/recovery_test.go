package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"pstore/internal/elastic"
	"pstore/internal/faults"
	"pstore/internal/node"
	"pstore/internal/node/nodetest"
	"pstore/internal/recovery"
	"pstore/internal/store"
)

// registerKV installs put and get over table T, with int args.
func registerKV(e *store.Engine) error {
	return errors.Join(
		e.Register("put", store.Proc(func(tx *store.Tx, args int) (any, error) { return nil, tx.Put("T", tx.Key, args) })),
		e.Register("get", store.Proc(func(tx *store.Tx, _ store.NoArgs) (any, error) {
			v, _, err := tx.Get("T", tx.Key)
			return v, err
		})),
	)
}

// loadKV is a dataset of keys rows, k-i = i.
func loadKV(keys int) func(*store.Engine) error {
	return func(e *store.Engine) error {
		for i := 0; i < keys; i++ {
			if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
				return err
			}
		}
		return nil
	}
}

// crashProbeController records what the runtime tells a controller about
// machine failures, and asks for one emergency scale-out of the *effective*
// cluster while degraded, so the test can check the runtime translates the
// target past the dead slot.
type crashProbeController struct {
	mu          sync.Mutex
	failed      []int
	recovered   []int
	minMachines int
	scaledOut   bool
}

func (p *crashProbeController) Name() string { return "crash-probe" }

func (p *crashProbeController) Tick(machines int, reconfiguring bool, _ float64) (*elastic.Decision, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.minMachines == 0 || machines < p.minMachines {
		p.minMachines = machines
	}
	if len(p.failed) > len(p.recovered) && !p.scaledOut && !reconfiguring {
		p.scaledOut = true
		return &elastic.Decision{Target: machines + 1, RateFactor: 1, Emergency: true}, nil
	}
	return nil, nil
}

func (p *crashProbeController) MachineFailed(m int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed = append(p.failed, m)
}

func (p *crashProbeController) MachineRecovered(m int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recovered = append(p.recovered, m)
}

// TestClusterCrashRecovery arms a planned crash schedule and checks the full
// closed loop: the failure and recovery surface as typed events and
// FailureObserver callbacks, the controller sees effective (not raw)
// capacity, its scale-out target is translated past the dead machine, and
// the data set survives the crash intact.
func TestClusterCrashRecovery(t *testing.T) {
	const keys = 200
	ctrl := &crashProbeController{}
	eng := testEngineConfig()
	eng.InitialMachines = 2
	n := nodetest.Node(t, node.Config{Store: eng, Register: registerKV, Load: loadKV(keys)})
	rec := attachRecorder(t, n)
	c, err := NewRemote(Config{
		Squall:     testSquallConfig(),
		Controller: ctrl,
		Cycle:      3 * time.Millisecond,
		Faults: &faults.Schedule{
			Events: []faults.Event{{Kind: faults.PinnedCrash, A: 1, Tick: 2, Down: 3}},
		},
		Recorder: rec,
	}, local(n))
	if err != nil {
		t.Fatal(err)
	}
	if c.down == nil {
		t.Fatal("crash schedule armed but the recovery plane is not")
	}
	events, unsub := c.Subscribe(4096)
	defer unsub()
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	var failedEv *MachineFailed
	var recoveredEv *MachineRecovered
	deadline := time.After(20 * time.Second)
	for recoveredEv == nil {
		select {
		case e := <-events:
			switch ev := e.(type) {
			case MachineFailed:
				failedEv = &ev
			case MachineRecovered:
				recoveredEv = &ev
			}
		case <-deadline:
			t.Fatalf("timed out waiting for crash/recovery events (failed=%v)", failedEv)
		}
	}
	if failedEv == nil {
		t.Fatal("MachineRecovered arrived without a MachineFailed")
	}
	if failedEv.Machine != 1 || failedEv.Cycle != 2 || failedEv.RecoverAtCycle != 5 {
		t.Fatalf("MachineFailed = %+v, want machine 1 at cycle 2 recovering at 5", failedEv)
	}
	if recoveredEv.Machine != 1 || recoveredEv.Downtime <= 0 {
		t.Fatalf("MachineRecovered = %+v, want machine 1 with positive downtime", recoveredEv)
	}

	// The controller saw the loss: effective capacity dipped to 1 and both
	// observer callbacks fired for machine 1.
	ctrl.mu.Lock()
	minMachines, failed, recovered := ctrl.minMachines, ctrl.failed, ctrl.recovered
	ctrl.mu.Unlock()
	if minMachines != 1 {
		t.Errorf("controller min effective machines = %d, want 1", minMachines)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Errorf("MachineFailed callbacks = %v, want [1]", failed)
	}
	if len(recovered) != 1 || recovered[0] != 1 {
		t.Errorf("MachineRecovered callbacks = %v, want [1]", recovered)
	}

	// The degraded-mode decision asked for effective+1 = 2; the runtime must
	// have translated it to 3 raw machines (past the dead slot).
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		for i := 0; i < 4000; i++ {
			if cond() {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitFor(func() bool { return n.Engine.ActiveMachines() == 3 }, "translated scale-out to 3 machines")
	waitFor(func() bool { return len(n.Engine.DownMachines()) == 0 }, "machine 1 recovery")

	// Data integrity end to end: every bootstrap row is readable with its
	// original value after crash, recovery and a concurrent scale-out.
	for i := 0; i < keys; i++ {
		v, err := n.Engine.Execute("get", fmt.Sprintf("k-%d", i), nil)
		if err != nil {
			t.Fatalf("get k-%d: %v", i, err)
		}
		if v != i {
			t.Fatalf("k-%d = %v, want %d", i, v, i)
		}
	}
	st := n.Recovery.Stats()
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Errorf("recovery stats = %+v, want 1 crash / 1 recovery", st)
	}
	if st.Checkpoints < 1 {
		t.Errorf("Checkpoints = %d, want >= 1 (the load's baseline round)", st.Checkpoints)
	}
}

// slowObserver is a static controller whose failure callbacks take a few
// milliseconds to record what they were told.
type slowObserver struct {
	mu                sync.Mutex
	failed, recovered []int
}

func (o *slowObserver) Name() string { return "slow-observer" }

func (o *slowObserver) Tick(int, bool, float64) (*elastic.Decision, error) { return nil, nil }

func (o *slowObserver) MachineFailed(m int) {
	time.Sleep(5 * time.Millisecond)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed = append(o.failed, m)
}

func (o *slowObserver) MachineRecovered(m int) {
	time.Sleep(5 * time.Millisecond)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.recovered = append(o.recovered, m)
}

func (o *slowObserver) told() (failed, recovered []int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return slices.Clone(o.failed), slices.Clone(o.recovered)
}

// TestFailureObserverBeforeEvent: a subscriber that sees MachineFailed or
// MachineRecovered finds the controller already told, however long the
// controller's callback takes.
func TestFailureObserverBeforeEvent(t *testing.T) {
	eng := testEngineConfig()
	eng.InitialMachines = 2
	obs := &slowObserver{}
	c, err := NewRemote(Config{
		Squall:     testSquallConfig(),
		Controller: obs,
		Cycle:      3 * time.Millisecond,
		Faults: &faults.Schedule{
			Events: []faults.Event{{Kind: faults.PinnedCrash, A: 1, Tick: 1, Down: 2}},
		},
	}, local(nodetest.Node(t, noopConfig(eng))))
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := c.Subscribe(256)
	defer unsub()
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case e := <-events:
			switch ev := e.(type) {
			case MachineFailed:
				if failed, _ := obs.told(); !slices.Contains(failed, ev.Machine) {
					t.Fatalf("MachineFailed for machine %d published before the controller was told (told %v)", ev.Machine, failed)
				}
			case MachineRecovered:
				if _, recovered := obs.told(); !slices.Contains(recovered, ev.Machine) {
					t.Fatalf("MachineRecovered for machine %d published before the controller was told (told %v)", ev.Machine, recovered)
				}
				return
			}
		case <-deadline:
			t.Fatal("timed out waiting for the recovery")
		}
	}
}

// TestClusterCrashWithoutController runs the crash plane on a static cluster
// (no controller) over a node logging to 1 KiB segments: the writes before the
// loop starts take the log past its bound many times, the node's own rounds
// compact it, and the loop's crash and recovery rebuild the machine from the
// image sets those rounds wrote plus the tail after them.
func TestClusterCrashWithoutController(t *testing.T) {
	const keys, writes = 50, 1000
	eng := testEngineConfig()
	eng.InitialMachines = 2
	n := nodetest.Node(t, node.Config{Store: eng, Register: registerKV, Load: loadKV(keys),
		Recovery: recovery.Config{DataDir: t.TempDir(), SegmentBytes: 1 << 10}})
	for i := 0; i < writes; i++ {
		if _, err := n.Engine.Execute("put", fmt.Sprintf("k-%d", i%keys), i); err != nil {
			t.Fatal(err)
		}
	}
	if ws := n.Recovery.WALStats(); ws.CompactedSegments == 0 {
		t.Fatalf("%d writes sealed %d segments and compacted none", writes, ws.Rotations)
	}
	c, err := NewRemote(Config{
		Squall: testSquallConfig(),
		Cycle:  2 * time.Millisecond,
		Faults: &faults.Schedule{
			Events: []faults.Event{{Kind: faults.PinnedCrash, A: 0, Tick: 1, Down: 2}},
		},
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

	sawFailed, sawRecovered := false, false
	deadline := time.After(20 * time.Second)
	for !sawRecovered {
		select {
		case e := <-events:
			switch e.(type) {
			case MachineFailed:
				sawFailed = true
			case MachineRecovered:
				sawRecovered = true
			}
		case <-deadline:
			t.Fatalf("timed out (failed=%v)", sawFailed)
		}
	}
	if !sawFailed {
		t.Fatal("recovered without failing first")
	}
	st := n.Recovery.Stats()
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("recovery stats = %+v, want 1 crash / 1 recovery", st)
	}
	for k := 0; k < keys; k++ {
		want := writes - keys + k
		if v, err := n.Engine.Execute("get", fmt.Sprintf("k-%d", k), nil); err != nil || v != want {
			t.Fatalf("k-%d = %v (%v) after the restore, want %d", k, v, err, want)
		}
	}
}

// TestClusterCrashConfigValidation pins the construction-time contract.
func TestClusterCrashConfigValidation(t *testing.T) {
	topo := local(nodetest.Node(t, noopConfig(testEngineConfig())))
	base := func() Config {
		return Config{Squall: testSquallConfig()}
	}
	cfg := base()
	cfg.Faults = &faults.Schedule{Events: []faults.Event{{Kind: faults.CrashRate, P: 0.5}}} // no Cycle
	if _, err := NewRemote(cfg, topo); err == nil {
		t.Error("crash schedule without Cycle accepted")
	}
	cfg = base()
	cfg.Faults = &faults.Schedule{Events: []faults.Event{{Kind: faults.CrashRate, P: 2}}}
	cfg.Cycle = time.Millisecond
	if _, err := NewRemote(cfg, topo); err == nil {
		t.Error("invalid crash rate accepted")
	}
	// An empty schedule is inert: no recovery plane, no loop requirement.
	cfg = base()
	cfg.Faults = &faults.Schedule{}
	c, err := NewRemote(cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	if c.down != nil {
		t.Error("empty crash schedule armed the recovery plane")
	}
}
