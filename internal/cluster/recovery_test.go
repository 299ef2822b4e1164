package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pstore/internal/elastic"
	"pstore/internal/faults"
	"pstore/internal/store"
	"pstore/internal/store/storetest"
)

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
	c, err := New(Config{
		Engine:     eng,
		Squall:     testSquallConfig(),
		Controller: ctrl,
		Cycle:      3 * time.Millisecond,
		Faults: &faults.Schedule{
			Events: []faults.Event{{Kind: faults.PinnedCrash, A: 1, Tick: 2, Down: 3}},
		},
		RecorderWindow: 20 * time.Millisecond,
		Bootstrap: func(e *store.Engine) error {
			for i := 0; i < keys; i++ {
				if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Recovery() == nil {
		t.Fatal("crash schedule armed but Recovery() is nil")
	}
	reg := func(name string, fn func(tx *store.Tx) (any, error)) {
		t.Helper()
		if err := c.Engine().Register(name, fn); err != nil {
			t.Fatal(err)
		}
	}
	reg("put", func(tx *store.Tx) (any, error) { return nil, tx.Put("T", tx.Key, tx.Args) })
	reg("get", func(tx *store.Tx) (any, error) {
		v, _, err := tx.Get("T", tx.Key)
		return v, err
	})
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
	waitFor(func() bool { return c.Engine().ActiveMachines() == 3 }, "translated scale-out to 3 machines")
	waitFor(func() bool { return len(c.Engine().DownMachines()) == 0 }, "machine 1 recovery")

	// Data integrity end to end: every bootstrap row is readable with its
	// original value after crash, recovery and a concurrent scale-out.
	for i := 0; i < keys; i++ {
		v, err := c.Submit("get", fmt.Sprintf("k-%d", i), nil)
		if err != nil {
			t.Fatalf("get k-%d: %v", i, err)
		}
		if v != i {
			t.Fatalf("k-%d = %v, want %d", i, v, i)
		}
	}
	st := c.Recovery().Stats()
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Errorf("recovery stats = %+v, want 1 crash / 1 recovery", st)
	}
	if st.Checkpoints < 1 {
		t.Errorf("Checkpoints = %d, want >= 1 (initial baseline)", st.Checkpoints)
	}
	rc := c.Recorder().RecoveryCounters()
	if rc.Crashes != 1 || rc.Recoveries != 1 {
		t.Errorf("recorder RecoveryCounters = %+v, want 1 crash / 1 recovery", rc)
	}
}

// TestClusterCrashWithoutController runs the crash plane on a static cluster
// (no controller): the decision loop must still drive crash, checkpoint and
// recovery.
func TestClusterCrashWithoutController(t *testing.T) {
	eng := testEngineConfig()
	eng.InitialMachines = 2
	c, err := New(Config{
		Engine: eng,
		Squall: testSquallConfig(),
		Cycle:  2 * time.Millisecond,
		Faults: &faults.Schedule{
			Events: []faults.Event{{Kind: faults.PinnedCrash, A: 0, Tick: 1, Down: 2}},
		},
		CheckpointEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Engine().Register("noop", func(tx *store.Tx) (any, error) { return nil, nil }); err != nil {
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
	st := c.Recovery().Stats()
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("recovery stats = %+v, want 1 crash / 1 recovery", st)
	}
}

// TestClusterCrashConfigValidation pins the construction-time contract.
func TestClusterCrashConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{Engine: testEngineConfig(), Squall: testSquallConfig()}
	}
	cfg := base()
	cfg.Faults = &faults.Schedule{Events: []faults.Event{{Kind: faults.CrashRate, P: 0.5}}} // no Cycle
	if _, err := New(cfg); err == nil {
		t.Error("crash schedule without Cycle accepted")
	}
	cfg = base()
	cfg.Faults = &faults.Schedule{Events: []faults.Event{{Kind: faults.CrashRate, P: 2}}}
	cfg.Cycle = time.Millisecond
	if _, err := New(cfg); err == nil {
		t.Error("invalid crash rate accepted")
	}
	cfg = base()
	cfg.CheckpointEvery = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative CheckpointEvery accepted")
	}
	// An empty schedule is inert: no manager, no loop requirement.
	cfg = base()
	cfg.Faults = &faults.Schedule{}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Recovery() != nil {
		t.Error("empty crash schedule built a recovery manager")
	}
	// CheckpointEvery alone builds the manager for manual use.
	cfg = base()
	cfg.CheckpointEvery = 7
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Recovery() == nil {
		t.Error("CheckpointEvery alone did not build a recovery manager")
	}
}

// TestClusterKilledMidLoadReloads: a process that dies part-way through its
// first load leaves no cold state behind — the load's only durable form is the
// image set that ends it — so the restart loads the whole dataset again
// instead of cold-starting the part it had logged.
func TestClusterKilledMidLoadReloads(t *testing.T) {
	const keys = 200
	dir := t.TempDir()
	errKilled := errors.New("killed mid-load")
	start := func(loaded int) (*Cluster, error) {
		t.Helper()
		c, err := New(Config{
			Engine:  testEngineConfig(),
			Squall:  testSquallConfig(),
			DataDir: dir,
			Bootstrap: func(e *store.Engine) error {
				for i := 0; i < loaded; i++ {
					if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
						return err
					}
				}
				if loaded < keys {
					return errKilled
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		e := c.Engine()
		if err := errors.Join(
			e.Register("put", func(tx *store.Tx) (any, error) { return nil, tx.Put("T", tx.Key, tx.Args) }),
			e.Register("get", func(tx *store.Tx) (any, error) { v, _, err := tx.Get("T", tx.Key); return v, err }),
			e.SetArgsDecoder(storetest.Args[int]),
		); err != nil {
			t.Fatal(err)
		}
		return c, c.Start(context.Background())
	}

	c, err := start(keys / 3)
	if !errors.Is(err, errKilled) {
		t.Fatalf("first life: Start = %v, want the load's death", err)
	}
	c.Stop()

	c, err = start(keys)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if cs := c.ColdStart(); cs != nil {
		t.Fatalf("restart cold-started %d images + %d commands of a load that never finished", cs.Snapshots, cs.Replayed)
	}
	if got := c.Engine().TotalRows(); got != keys {
		t.Fatalf("restart serves %d rows, want the full %d", got, keys)
	}
	for i := 0; i < keys; i++ {
		if v, err := c.Submit("get", fmt.Sprintf("k-%d", i), nil); err != nil || v != i {
			t.Fatalf("k-%d = %v (%v), want %d", i, v, err, i)
		}
	}
}
