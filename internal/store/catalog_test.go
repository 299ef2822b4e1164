package store

import (
	"fmt"
	"testing"
)

// TestTxnNamesDenseOrder checks TxnNames is the exact inverse of Handle:
// the wire server snapshots this slice as its catalog and remote clients
// index into it with dense ids, so order must match registration.
func TestTxnNamesDenseOrder(t *testing.T) {
	cfg := Config{
		MaxMachines:          1,
		PartitionsPerMachine: 2,
		Buckets:              32,
		QueueCapacity:        64,
		InitialMachines:      1,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alpha", "beta", "gamma"}
	for _, n := range names {
		if err := e.Register(n, Proc(func(*Tx, NoArgs) (any, error) { return nil, nil })); err != nil {
			t.Fatal(err)
		}
	}
	got := e.TxnNames()
	if len(got) != len(names) {
		t.Fatalf("TxnNames() has %d entries, want %d", len(got), len(names))
	}
	for i, n := range names {
		if got[i] != n {
			t.Errorf("TxnNames()[%d] = %q, want %q", i, got[i], n)
		}
		id, ok := e.Handle(n)
		if !ok || int(id) != i {
			t.Errorf("Handle(%q) = (%d, %v), want (%d, true)", n, id, ok, i)
		}
	}
	// The snapshot must be a copy: mutating it cannot corrupt the catalog.
	got[0] = "mutated"
	if again := e.TxnNames(); again[0] != "alpha" {
		t.Fatal("TxnNames returned a view into engine state")
	}
}

// TestPartitionOfKey checks the routing estimate the server's retry hints
// rely on: in range, deterministic, and covering more than one partition.
func TestPartitionOfKey(t *testing.T) {
	cfg := Config{
		MaxMachines:          2,
		PartitionsPerMachine: 2,
		Buckets:              64,
		QueueCapacity:        64,
		InitialMachines:      2,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts := cfg.MaxMachines * cfg.PartitionsPerMachine
	seen := make(map[int]bool)
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("key-%04d", i)
		p := e.PartitionOfKey(key)
		if p < 0 || p >= parts {
			t.Fatalf("PartitionOfKey(%q) = %d, out of [0,%d)", key, p, parts)
		}
		if again := e.PartitionOfKey(key); again != p {
			t.Fatalf("PartitionOfKey(%q) unstable: %d then %d", key, p, again)
		}
		seen[p] = true
	}
	if len(seen) < 2 {
		t.Fatalf("256 keys landed on %d partition(s); want spread", len(seen))
	}
}
