package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pstore/internal/faults"
	"pstore/internal/node"
	"pstore/internal/node/nodetest"
	"pstore/internal/store"
	"pstore/internal/store/storetest"
	"pstore/internal/transport"
)

// The coordinator-mode tests drive the same runtime as the rest of the suite,
// but over a multi-process loopback topology: node engines behind real HTTP
// listeners, the cluster holding no engine of its own.

func remoteRegister(eng *store.Engine) error {
	if err := eng.Register("put", func(tx *store.Tx) (any, error) {
		return nil, tx.Put("T", tx.Key, tx.Args)
	}); err != nil {
		return err
	}
	if err := eng.Register("get", func(tx *store.Tx) (any, error) {
		v, ok, err := tx.Get("T", tx.Key)
		if err != nil || !ok {
			return nil, fmt.Errorf("missing %q: %v", tx.Key, err)
		}
		return v, nil
	}); err != nil {
		return err
	}
	return eng.SetArgsDecoder(storetest.Args[int])
}

func newRemoteLoopback(t *testing.T, nodes int) ([]*node.Node, *transport.Remote) {
	t.Helper()
	return nodetest.Start(t, nodes, node.Config{Store: testEngineConfig(), Register: remoteRegister})
}

// loadRemote runs the same deterministic load on every node engine; each
// keeps the keys it hosts and refuses the rest.
func loadRemote(t *testing.T, nodes []*node.Node, keys int) {
	t.Helper()
	for _, n := range nodes {
		for i := 0; i < keys; i++ {
			if _, err := n.Engine.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
				if errors.Is(err, store.ErrNotOwned) {
					continue
				}
				t.Fatalf("loading k-%d: %v", i, err)
			}
		}
	}
}

// waitEvent drains the event channel until an event of type E arrives.
func waitEvent[E Event](t *testing.T, ch <-chan Event, what string) E {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("event stream closed waiting for %s", what)
			}
			if e, is := ev.(E); is {
				return e
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRemoteCoordinator runs the full runtime in coordinator mode: manual
// scale-out and scale-in execute through node RPCs, the armed crash schedule
// crashes and restores a machine on a remote node through the same recovery
// tick as single-process mode, and the data set survives it all.
func TestRemoteCoordinator(t *testing.T) {
	const keys = 200
	nodes, remote := newRemoteLoopback(t, 2)
	loadRemote(t, nodes, keys)

	// A long cycle sequences the test: the scale-out below completes well
	// before the crash at tick 2 fires.
	c, err := NewRemote(Config{
		Squall: testSquallConfig(),
		Cycle:  50 * time.Millisecond,
		Faults: &faults.Schedule{
			Events: []faults.Event{{Kind: faults.PinnedCrash, A: 1, Tick: 2, Down: 1}},
		},
	}, remote)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancelSub := c.Subscribe(64)
	defer cancelSub()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Manual scale-out executes over the wire through the Squall executor.
	if err := c.Reconfigure(3, 0); err != nil {
		t.Fatalf("scale-out: %v", err)
	}
	if got := remote.ActiveMachines(); got != 3 {
		t.Fatalf("ActiveMachines = %d after scale-out, want 3", got)
	}

	// The crash schedule fires on the decision loop and fences machine 1 on
	// its hosting node; a cycle later the same loop restores it.
	failed := waitEvent[MachineFailed](t, ch, "MachineFailed")
	if failed.Machine != 1 {
		t.Fatalf("crashed machine = %d, want 1", failed.Machine)
	}
	if down := remote.DownMachines(); len(down) != 1 || down[0] != 1 {
		t.Fatalf("DownMachines = %v during outage, want [1]", down)
	}
	recovered := waitEvent[MachineRecovered](t, ch, "MachineRecovered")
	if recovered.Machine != 1 {
		t.Fatalf("recovered machine = %d, want 1", recovered.Machine)
	}
	if down := remote.DownMachines(); len(down) != 0 {
		t.Fatalf("DownMachines = %v after recovery, want []", down)
	}

	// Scale back in after recovery; the dataset must be intact and unique.
	if err := c.Reconfigure(1, 0); err != nil {
		t.Fatalf("scale-in: %v", err)
	}
	if got := remote.TotalRows(); got != keys {
		t.Fatalf("TotalRows = %d, want %d", got, keys)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k-%d", i)
		found := false
		for _, n := range nodes {
			v, err := n.Engine.Execute("get", key, nil)
			if errors.Is(err, store.ErrNotOwned) {
				continue
			}
			if err != nil {
				t.Fatalf("get %s: %v", key, err)
			}
			if v != i {
				t.Fatalf("%s = %v, want %d", key, v, i)
			}
			found = true
		}
		if !found {
			t.Fatalf("%s hosted nowhere after migrations", key)
		}
	}
	if st := c.Stats(); st.Moves != 2 {
		t.Fatalf("Stats.Moves = %d, want 2", st.Moves)
	}
}
