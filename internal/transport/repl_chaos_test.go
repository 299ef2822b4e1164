package transport_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pstore/internal/faults"
	"pstore/internal/node"
	"pstore/internal/node/nodetest"
	"pstore/internal/recovery"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/transport"
)

// The replication chaos suite: one fixed-seed workload — bulk load, a put
// storm, a mid-script reconfiguration, a second storm — runs in three modes:
// against a mem-logged engine (the oracle), a disk-logged engine, and a
// primary/follower pair whose ship stream suffers drops, duplicates,
// reorders and partitions, ending in a promotion. All three must produce the
// byte-identical fingerprint (plan, active machines, row count, every
// value), and the replicated mode must be byte-identical across repeated
// runs — determinism all the way through the fault schedule.
//
// Values are strings, decoded from the log and the wire by Args[string].

const (
	replChaosKeys = 240
	replChaosOps  = 600
	replChaosSeed = 77
)

type chaosOp struct {
	key, val string
}

// replChaosOps builds the deterministic put storm.
func replChaosScriptOps() []chaosOp {
	rng := rand.New(rand.NewSource(replChaosSeed))
	ops := make([]chaosOp, replChaosOps)
	for i := range ops {
		k := rng.Intn(replChaosKeys)
		ops[i] = chaosOp{key: fmt.Sprintf("k-%d", k), val: fmt.Sprintf("v%d-%d", i, k)}
	}
	return ops
}

// chaosFingerprint captures everything the modes must agree on: the plan,
// the active-machine count, row conservation, and every key's value.
func chaosFingerprint(t *testing.T, eng *store.Engine) string {
	t.Helper()
	fp := fmt.Sprintf("plan %v\nactive %d\nrows %d\n", eng.Plan(), eng.ActiveMachines(), eng.TotalRows())
	for i := 0; i < replChaosKeys; i++ {
		v, err := eng.Execute("get", fmt.Sprintf("k-%d", i), nil)
		if err != nil {
			t.Fatalf("fingerprint get k-%d: %v", i, err)
		}
		fp += fmt.Sprintf("k-%d=%v\n", i, v)
	}
	return fp
}

// runReplChaosScript runs the scripted workload in one mode and returns its
// fingerprint. mode is "mem", "disk", or "repl".
func runReplChaosScript(t *testing.T, mode string) string {
	t.Helper()
	var eng *store.Engine
	var rm *recovery.Manager
	var primary, follower *replNode
	var sh *transport.Shipper

	switch mode {
	case "mem":
		n := nodetest.Node(t, node.Config{Store: kvStoreConfig(4, 1), Register: registerKV[string]})
		eng, rm = n.Engine, n.Recovery
	case "disk":
		n := newReplNode(t, replNodeConfig{register: registerKV[string]})
		eng, rm = n.eng, n.rm
	case "repl":
		primary = newReplNode(t, replNodeConfig{register: registerKV[string]})
		follower = newReplNode(t, replNodeConfig{replicaOf: primary.url, register: registerKV[string]})
		eng, rm = primary.eng, primary.rm
	default:
		t.Fatalf("unknown mode %q", mode)
	}

	put := func(key, val string) {
		if _, err := eng.Execute("put", key, val); err != nil {
			t.Fatalf("%s: put %s: %v", mode, key, err)
		}
	}
	for i := 0; i < replChaosKeys; i++ {
		put(fmt.Sprintf("k-%d", i), fmt.Sprintf("init-%d", i))
	}

	if mode == "repl" {
		meta := syncFollower(t, primary, follower)
		inj, err := faults.Parse(fmt.Sprintf("seed=%d,ship-drop=0.15,ship-dup=0.25,ship-reorder=0.2,ship-partition=0.1", replChaosSeed))
		if err != nil {
			t.Fatal(err)
		}
		sh = newTestShipper(t, primary, follower, meta.Cursor, 32, inj)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	step := func(i int) {
		// Interleave shipping with the storm; progress is irregular under
		// the fault schedule, which is exactly the point.
		if sh != nil && i%7 == 0 {
			if _, err := sh.ShipOnce(ctx); err != nil {
				t.Fatalf("ShipOnce mid-storm: %v", err)
			}
		}
	}

	ops := replChaosScriptOps()
	for i, op := range ops[:replChaosOps/2] {
		put(op.key, op.val)
		step(i)
	}

	// Mid-script reconfiguration: the plan change rides the same WAL stream
	// as the commands, so the follower replays the migration at the same
	// point in history.
	topo := transport.NewLocal(eng, rm)
	ex, err := squall.NewExecutor(topo, chaosExecutorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(1, 2, 0); err != nil {
		t.Fatalf("%s: reconfigure: %v", mode, err)
	}

	for i, op := range ops[replChaosOps/2:] {
		put(op.key, op.val)
		step(i)
	}

	if mode != "repl" {
		return chaosFingerprint(t, eng)
	}
	drainShipper(t, sh, follower)
	if _, err := follower.peer.Promote(ctx, primary.rm.Epoch()+1); err != nil {
		t.Fatalf("promote: %v", err)
	}
	return chaosFingerprint(t, follower.eng)
}

// TestReplChaosParity is the acceptance gate for the replication plane: the
// fixed-seed chaos script produces identical fingerprints across the
// single-process mem oracle, the disk-backed store, and three independent
// runs of the faulty replicated mode ending in promotion.
func TestReplChaosParity(t *testing.T) {
	oracle := runReplChaosScript(t, "mem")
	disk := runReplChaosScript(t, "disk")
	if disk != oracle {
		t.Fatalf("disk fingerprint diverged from mem oracle:\n--- mem ---\n%s--- disk ---\n%s", oracle, disk)
	}
	var prev string
	for run := 0; run < 3; run++ {
		repl := runReplChaosScript(t, "repl")
		if repl != oracle {
			t.Fatalf("repl run %d diverged from oracle:\n--- oracle ---\n%s--- repl ---\n%s", run, oracle, repl)
		}
		if run > 0 && repl != prev {
			t.Fatalf("repl runs %d and %d diverged from each other", run-1, run)
		}
		prev = repl
	}
}
