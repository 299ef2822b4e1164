package transport_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/faults"
	"pstore/internal/recovery"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/store/storetest"
	"pstore/internal/transport"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// The self-healing suite: the chaos workload extended through the failure
// chains replication must survive — a fenced zombie rejoining by a full resync
// that discards its divergent suffix, a follower stalled past WAL retention
// forced through a full resync, synchronous commit keeping acked work at RPO
// zero across shipper deaths, and a replica checkpointing its own log.

func getStr(t *testing.T, eng *store.Engine, key string) string {
	t.Helper()
	v, err := eng.Execute("get", key, nil)
	if err != nil {
		t.Fatalf("get %q: %v", key, err)
	}
	s, ok := v.(string)
	if !ok {
		t.Fatalf("get %q returned %T %v", key, v, v)
	}
	return s
}

// TestZombieRejoinChain is the tentpole acceptance gate: the fixed-seed
// chaos workload run through a kill -> promote -> rejoin -> kill-again
// chain. Node A serves the first half of the script (shipped to B under the
// chaos fault schedule), writes a divergent suffix B never sees, and is
// fenced when B is promoted. A then rejoins as B's follower by a full resync
// — its log, suffix included, replaced by B's snapshot — for the second
// half. Killing B
// and promoting the rejoined A must yield the byte-identical fingerprint of
// the single-process mem oracle, proving the zombie's unacked suffix left no
// trace.
func TestZombieRejoinChain(t *testing.T) {
	oracle := runReplChaosScript(t, "mem")

	a := newReplNode(t, replNodeConfig{args: storetest.Args[string]})
	b := newReplNode(t, replNodeConfig{replicaOf: a.url, args: storetest.Args[string]})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	put := func(eng *store.Engine, key, val string) {
		t.Helper()
		if _, err := eng.Execute("put", key, val); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	for i := 0; i < replChaosKeys; i++ {
		put(a.eng, fmt.Sprintf("k-%d", i), fmt.Sprintf("init-%d", i))
	}
	meta := syncFollower(t, a, b)
	inj, err := faults.Parse(fmt.Sprintf("seed=%d,ship-drop=0.15,ship-dup=0.25,ship-reorder=0.2,ship-partition=0.1", replChaosSeed))
	if err != nil {
		t.Fatal(err)
	}
	sh := newTestShipper(t, a, b, meta.Cursor, 32, inj)

	ops := replChaosScriptOps()
	for i, op := range ops[:replChaosOps/2] {
		put(a.eng, op.key, op.val)
		if i%7 == 0 {
			if _, err := sh.ShipOnce(ctx); err != nil {
				t.Fatalf("ShipOnce mid-storm: %v", err)
			}
		}
	}
	topo := transport.NewLocal(a.eng, a.rm)
	ex, err := squall.NewExecutor(topo, chaosExecutorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(1, 2, 0); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	drainShipper(t, sh, b)

	// The divergent suffix: acked on A, never shipped. These hit fingerprint
	// keys, so any survivor shows up as a parity break.
	for i := 0; i < 12; i++ {
		put(a.eng, fmt.Sprintf("k-%d", i), fmt.Sprintf("zombie-%d", i))
	}

	if _, err := b.peer.Promote(ctx, a.rm.Epoch()+1); err != nil {
		t.Fatalf("promote B: %v", err)
	}

	// The zombie keeps shipping into the new primary until a batch lands and
	// is fenced (the chaos injector may drop a few attempts first).
	var shipErr error
	for i := 0; i < 1000 && shipErr == nil; i++ {
		_, shipErr = sh.ShipOnce(ctx)
	}
	if !errors.Is(shipErr, wire.ErrFenced) {
		t.Fatalf("zombie ship error = %v, want ErrFenced", shipErr)
	}

	// Self-heal: order the zombie to stand down toward the new primary; it
	// rejoins by a full resync, its suffix gone with the rest of its log.
	ast, err := cluster.Rejoin(ctx, cluster.RejoinConfig{Zombie: a.peer, Primary: b.peer, PrimaryURL: b.url})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}

	// Second half of the script runs on the new primary, shipped back to the
	// rejoined zombie under a fresh fault schedule.
	inj2, err := faults.Parse(fmt.Sprintf("seed=%d,ship-drop=0.15,ship-dup=0.25,ship-reorder=0.2,ship-partition=0.1", replChaosSeed+1))
	if err != nil {
		t.Fatal(err)
	}
	sh2 := newTestShipper(t, b, a, ast.Received, 32, inj2)
	for i, op := range ops[replChaosOps/2:] {
		put(b.eng, op.key, op.val)
		if i%7 == 0 {
			if _, err := sh2.ShipOnce(ctx); err != nil {
				t.Fatalf("ShipOnce after rejoin: %v", err)
			}
		}
	}
	drainShipper(t, sh2, a)

	// Kill the new primary too: the rejoined zombie must promote cleanly.
	if _, err := a.peer.Promote(ctx, b.rm.Epoch()+1); err != nil {
		t.Fatalf("promote rejoined A: %v", err)
	}
	if got := chaosFingerprint(t, a.eng); got != oracle {
		t.Fatalf("rejoined-then-promoted fingerprint diverged from mem oracle:\n--- oracle ---\n%s--- rejoined ---\n%s", oracle, got)
	}
}

// TestSyncCommitRPOZero races writes against staggered shipper deaths with
// the follower-durability barrier armed. The invariant: any write the
// primary acknowledged before the shipper died must be present on the
// follower — acked-but-lost is the one outcome synchronous commit forbids.
// (A write the client saw fail may still land; that ambiguity is allowed.)
func TestSyncCommitRPOZero(t *testing.T) {
	primary := newReplNode(t, replNodeConfig{args: storetest.Args[string]})
	follower := newReplNode(t, replNodeConfig{replicaOf: primary.url, args: storetest.Args[string]})
	syncFollower(t, primary, follower)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Every round writes its own key range, each key at most once, and all
	// verification waits until the last shipper is dead: a get executed
	// directly on the follower's engine is itself a logged command that bumps
	// the bucket's LSN, so reading mid-stream would make later shipped puts
	// look like duplicates. (A real replica never takes direct traffic — the
	// server refuses client requests until promotion.)
	type ackRec struct{ key, val string }
	var ackedAll []ackRec
	runRound := func(round int, writes int, stagger time.Duration) {
		t.Helper()
		fst, err := follower.peer.ReplStatus(ctx)
		if err != nil {
			t.Fatalf("round %d: follower status: %v", round, err)
		}
		sh, err := transport.NewShipper(transport.ShipperConfig{
			RM:       primary.rm,
			Follower: follower.peer,
			FromNode: 0, ToNode: -1,
			Start:      fst.Applied,
			SyncCommit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sctx, scancel := context.WithCancel(context.Background())
		defer scancel()
		shipDone := make(chan struct{})
		go func() { defer close(shipDone); _ = sh.Run(sctx) }()

		// The kill instant is the dead flag, raised before the shipper is
		// torn down: a write that sneaks past the disarmed barrier afterwards
		// is never counted as acked, because no client of the dead process
		// would have seen that ack either.
		var dead atomic.Bool
		var acked []ackRec
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for i := 0; i < writes; i++ {
				if dead.Load() {
					return
				}
				key := fmt.Sprintf("k-%d", round*30+i)
				val := fmt.Sprintf("rpo-%d-%d", round, i)
				if _, err := primary.eng.Execute("put", key, val); err == nil && !dead.Load() {
					acked = append(acked, ackRec{key, val})
				}
			}
		}()
		if stagger >= 0 {
			time.Sleep(stagger)
			dead.Store(true)
			scancel()
			<-shipDone
		} else {
			<-writerDone // unkilled round: every write must ack
			dead.Store(true)
			scancel()
			<-shipDone
		}
		<-writerDone

		if stagger < 0 && len(acked) != writes {
			t.Fatalf("round %d: %d of %d writes acked with a healthy shipper", round, len(acked), writes)
		}
		ackedAll = append(ackedAll, acked...)
	}

	// Staggered kills sweep the race window from "almost immediately" to
	// "after several ship round trips"...
	for round := 0; round < 6; round++ {
		runRound(round, 30, time.Duration(round)*400*time.Microsecond+200*time.Microsecond)
	}
	// ...and a final unkilled round proves the sweep wasn't vacuous: with the
	// shipper healthy, every write acks and every ack is on the follower.
	runRound(6, 20, -1)
	if len(ackedAll) < 20 {
		t.Fatalf("only %d acked writes across the sweep; expected at least the unkilled round's 20", len(ackedAll))
	}
	waitApplied(t, follower)
	for _, a := range ackedAll {
		if got := getStr(t, follower.eng, a.key); got != a.val {
			t.Fatalf("acked write %s=%s lost on follower (has %q); RPO-zero contract broken", a.key, a.val, got)
		}
	}
}

// TestStalledFollowerFullResync covers the PinShip-vs-compaction race: a
// follower stalls long enough that (once the shipper's retention pin is
// gone) a primary checkpoint compacts the WAL out from under its cursor.
// Resuming must fail with ErrShipGone, and the forced full resync must
// converge to the same fingerprint as a run that never stalled.
func TestStalledFollowerFullResync(t *testing.T) {
	run := func(stall bool) string {
		t.Helper()
		// 4 KiB segments so the storm rolls the WAL many times over.
		primary := newReplNode(t, replNodeConfig{args: storetest.Args[string], recovery: recovery.Config{SegmentBytes: 4096}})
		follower := newReplNode(t, replNodeConfig{replicaOf: primary.url, args: storetest.Args[string], recovery: recovery.Config{SegmentBytes: 4096}})
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()

		put := func(key, val string) {
			t.Helper()
			if _, err := primary.eng.Execute("put", key, val); err != nil {
				t.Fatalf("put %s: %v", key, err)
			}
		}
		for i := 0; i < replChaosKeys; i++ {
			put(fmt.Sprintf("k-%d", i), fmt.Sprintf("init-%d", i))
		}
		meta := syncFollower(t, primary, follower)
		sh := newTestShipper(t, primary, follower, meta.Cursor, 32, nil)

		for i, op := range replChaosScriptOps() {
			put(op.key, op.val)
			if !stall && i%7 == 0 {
				if _, err := sh.ShipOnce(ctx); err != nil {
					t.Fatalf("ShipOnce: %v", err)
				}
			}
		}
		if stall {
			// The stalled shipper's pin is the only thing retaining the
			// cursor's segments; a dead shipping process drops it, and the
			// next checkpoint compacts them away.
			primary.rm.PinShip(0)
			if _, err := primary.rm.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if _, err := sh.ShipOnce(ctx); !errors.Is(err, wal.ErrShipGone) {
				t.Fatalf("ship after compaction: err = %v, want ErrShipGone", err)
			}
			// The mandated recovery: a fresh snapshot sync and a shipper
			// starting from its cursor.
			meta2 := syncFollower(t, primary, follower)
			sh = newTestShipper(t, primary, follower, meta2.Cursor, 32, nil)
		}
		drainShipper(t, sh, follower)
		if _, err := follower.peer.Promote(ctx, primary.rm.Epoch()+1); err != nil {
			t.Fatalf("promote: %v", err)
		}
		return chaosFingerprint(t, follower.eng)
	}

	control := run(false)
	stalled := run(true)
	if stalled != control {
		t.Fatalf("full-resync fingerprint diverged from unstalled control:\n--- control ---\n%s--- stalled ---\n%s", control, stalled)
	}
}

// TestFollowerCheckpoints: a replica logging to 1 KiB segments runs
// checkpoint rounds against its own WAL as shipped records take it past its
// bound, compacts what they cover, and still promotes to the correct state.
func TestFollowerCheckpoints(t *testing.T) {
	small := recovery.Config{SegmentBytes: 1 << 10}
	primary := newReplNode(t, replNodeConfig{args: storetest.Args[string], recovery: small})
	follower := newReplNode(t, replNodeConfig{replicaOf: primary.url, args: storetest.Args[string], recovery: small})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	meta := syncFollower(t, primary, follower)
	base := follower.rm.Stats().Checkpoints
	sh := newTestShipper(t, primary, follower, meta.Cursor, 32, nil)
	const writes = 200
	for i := 0; i < writes; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i%replChaosKeys), fmt.Sprintf("fc-%d", i)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	drainShipper(t, sh, follower)

	// The rounds run off the ship path; wait for one to compact.
	deadline := time.Now().Add(10 * time.Second)
	for follower.rm.Stats().Checkpoints <= base || follower.rm.WALStats().CompactedSegments == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower compacted nothing after %d shipped records (%d checkpoints, %d segments sealed)",
				writes, follower.rm.Stats().Checkpoints-base, follower.rm.WALStats().Rotations)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := follower.peer.Promote(ctx, primary.rm.Epoch()+1); err != nil {
		t.Fatalf("promote: %v", err)
	}
	for _, i := range []int{0, 39, 40, 41, writes - 1} {
		want := fmt.Sprintf("fc-%d", i)
		if got := getStr(t, follower.eng, fmt.Sprintf("k-%d", i)); got != want {
			t.Fatalf("k-%d = %q on promoted follower, want %q", i, got, want)
		}
	}
	if err := follower.rm.Err(); err != nil {
		t.Fatalf("follower log latched an error: %v", err)
	}
}
