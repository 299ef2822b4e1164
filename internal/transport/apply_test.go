package transport_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/recovery"
	"pstore/internal/server"
	"pstore/internal/store"
	"pstore/internal/store/storetest"
	"pstore/internal/transport"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// The accept/apply split, held to its invariants: a follower acknowledges a
// record once it is fsynced in its own log and applies it behind the ack, so
// between the two there is a window — durable, acknowledged, not executed —
// that promotion, checkpoints, crashes and plan changes each have to get
// right. The tests open that window on purpose: the follower's put procedure
// waits on a gate, which holds its applier inside the first record it applies
// while the ship handler keeps accepting.

// applyGate holds a follower's applier inside its put procedure until opened.
type applyGate struct {
	hold    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func newApplyGate() *applyGate {
	return &applyGate{hold: make(chan struct{}), entered: make(chan struct{}, 1)}
}

func (g *applyGate) open() { g.once.Do(func() { close(g.hold) }) }

// gated puts the gate in front of a procedure.
func (g *applyGate) gated(fn store.TxnFunc) store.TxnFunc {
	return func(tx *store.Tx) (any, error) {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.hold
		return fn(tx)
	}
}

// register is registerKV with the gate in front of put.
func (g *applyGate) register(eng *store.Engine) error {
	if err := eng.Register("put", g.gated(func(tx *store.Tx) (any, error) {
		return nil, tx.Put("kv", tx.Key, tx.Args)
	})); err != nil {
		return err
	}
	return registerKVGet(eng)
}

// appendPut appends its argument to the row instead of replacing it, so a
// command applied twice, out of order or to the wrong partition shows in the
// value.
func appendPut(tx *store.Tx) (any, error) {
	old, _, err := tx.Get("kv", tx.Key)
	if err != nil {
		return nil, err
	}
	s, _ := old.(string)
	return nil, tx.Put("kv", tx.Key, s+tx.Args.(string)+";")
}

// registerAppendKV registers put (as given: appendPut, or a gate around it) and
// a get that returns the row as stored.
func registerAppendKV(put store.TxnFunc) func(*store.Engine) error {
	return func(eng *store.Engine) error {
		if err := eng.Register("put", put); err != nil {
			return err
		}
		return eng.Register("get", func(tx *store.Tx) (any, error) {
			v, _, err := tx.Get("kv", tx.Key)
			return v, err
		})
	}
}

// startGatedFollower starts a follower of primary whose applier the returned
// gate holds, logging to rcfg, and syncs it.
func startGatedFollower(t *testing.T, primary *replNode, rcfg recovery.Config) (*replNode, *applyGate, wire.ReplSyncMeta) {
	t.Helper()
	gate := newApplyGate()
	follower := newReplNode(t, replNodeConfig{replicaOf: primary.url, recovery: rcfg, register: gate.register})
	// Registered after the node's own cleanups, so it runs before them: a
	// server shutting down waits for its applier.
	t.Cleanup(gate.open)
	return follower, gate, syncFollower(t, primary, follower)
}

func replStatus(t *testing.T, n *replNode) wire.ReplStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := n.peer.ReplStatus(ctx)
	if err != nil {
		t.Fatalf("ReplStatus: %v", err)
	}
	return st
}

// kvFingerprint is every key's value plus the row total, read off an engine.
func kvFingerprint(t *testing.T, eng *store.Engine, keys int) string {
	t.Helper()
	fp := fmt.Sprintf("rows %d\n", eng.TotalRows())
	for i := 0; i < keys; i++ {
		v, err := eng.Execute("get", fmt.Sprintf("k-%d", i), nil)
		if err != nil {
			t.Fatalf("fingerprint get k-%d: %v", i, err)
		}
		fp += fmt.Sprintf("k-%d=%v\n", i, v)
	}
	return fp
}

// crashAndColdStart kills the filesystem under a follower — unsynced bytes are
// lost, as in a power cut — and brings its data directory up in a fresh engine,
// the way a restarted process would.
func crashAndColdStart(t *testing.T, fs *wal.MemFS, primary, follower *replNode, sh *transport.Shipper) *store.Engine {
	t.Helper()
	fs.CrashAfterWrites(1)
	if _, err := primary.eng.Execute("put", "doomed", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := sh.ShipOnce(ctx); err == nil || !fs.Crashed() {
		t.Fatalf("ship into a dying disk: err %v, crashed %v; want the append to fail", err, fs.Crashed())
	}
	_ = follower.rm.Close()
	fs.Recover()

	eng, rm := newChaosEngine(t, recovery.Config{DataDir: "data", FS: fs}, storetest.Args[int])
	if !rm.HasColdState() {
		t.Fatal("the follower's directory holds no state to cold-start from")
	}
	if _, err := rm.ColdStart(); err != nil {
		t.Fatalf("ColdStart: %v", err)
	}
	return eng
}

// TestFollowerAckBeforeApply: the ack certifies a durable append, not an
// execution. With the applier held, a shipped record is acknowledged, the
// primary's sync-commit waiter is released and the follower's own log has
// grown, while its applied cursor and its memory have not moved; once
// released, apply converges on the received cursor and on the primary's state.
func TestFollowerAckBeforeApply(t *testing.T) {
	const keys = 20
	primary := newReplNode(t, replNodeConfig{})
	follower, gate, meta := startGatedFollower(t, primary, recovery.Config{DataDir: "data", FS: wal.NewMemFS(1)})
	before := replStatus(t, follower)
	sh, err := transport.NewShipper(transport.ShipperConfig{
		RM: primary.rm, Follower: follower.peer, FromNode: 0, ToNode: -1,
		Start: meta.Cursor, SyncCommit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	runShipper(t, sh)

	// Returning at all is the barrier's release: under sync commit the reply
	// waits for the follower's ack, and the follower cannot apply.
	if _, err := primary.eng.Execute("put", "k-0", 0); err != nil {
		t.Fatalf("put under sync commit with the follower's applier held: %v", err)
	}
	<-gate.entered
	pst, fst := replStatus(t, primary), replStatus(t, follower)
	if fst.Received != pst.Durable {
		t.Fatalf("follower received %+v, primary durable %+v", fst.Received, pst.Durable)
	}
	if fst.Durable == before.Durable {
		t.Fatalf("follower acknowledged a record its log does not hold (durable end still %+v)", fst.Durable)
	}
	if fst.Applied != meta.Cursor || fst.ApplyBacklog != 1 {
		t.Fatalf("applied %+v backlog %d with the applier held, want %+v and 1", fst.Applied, fst.ApplyBacklog, meta.Cursor)
	}
	if rows := follower.eng.TotalRows(); rows != 0 {
		t.Fatalf("follower holds %d rows it has not applied", rows)
	}

	gate.open()
	for i := 1; i < keys; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, follower)
	pst, fst = replStatus(t, primary), replStatus(t, follower)
	if fst.Applied != fst.Received || fst.Received != pst.Durable || fst.ApplyBacklog != 0 {
		t.Fatalf("after the backlog drained: applied %+v received %+v backlog %d, primary durable %+v",
			fst.Applied, fst.Received, fst.ApplyBacklog, pst.Durable)
	}
	if got, want := kvFingerprint(t, follower.eng, keys), kvFingerprint(t, primary.eng, keys); got != want {
		t.Fatalf("follower state diverged from the primary's:\n got %s\nwant %s", got, want)
	}
}

// TestPromoteDrainsApply: a promotion applies everything the replica has
// acknowledged before the role flips. With a backlog held, the promote call
// does not return; once released it returns a primary whose applied cursor is
// its received cursor, and on which every write the old primary acknowledged
// under sync commit reads back.
func TestPromoteDrainsApply(t *testing.T) {
	const writes = 6
	primary := newReplNode(t, replNodeConfig{})
	follower, gate, meta := startGatedFollower(t, primary, recovery.Config{DataDir: t.TempDir()})
	sh, err := transport.NewShipper(transport.ShipperConfig{
		RM: primary.rm, Follower: follower.peer, FromNode: 0, ToNode: -1,
		Start: meta.Cursor, SyncCommit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	runShipper(t, sh)
	for i := 0; i < writes; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), i+100); err != nil {
			t.Fatalf("sync-acked put %d: %v", i, err)
		}
	}
	<-gate.entered
	received := replStatus(t, follower).Received
	if received != replStatus(t, primary).Durable {
		t.Fatalf("follower received %+v before promotion, primary durable %+v", received, replStatus(t, primary).Durable)
	}

	type promoted struct {
		st  wire.ReplStatus
		err error
	}
	done := make(chan promoted, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		st, err := follower.peer.Promote(ctx, primary.rm.Epoch()+1)
		done <- promoted{st, err}
	}()
	select {
	case p := <-done:
		t.Fatalf("promotion returned (%+v, %v) with %d acknowledged records unapplied", p.st, p.err, writes)
	case <-time.After(50 * time.Millisecond):
	}
	gate.open()
	p := <-done
	if p.err != nil {
		t.Fatalf("Promote: %v", p.err)
	}
	st := p.st
	if st.Role != "primary" || st.Applied != received || st.Received != received || st.ApplyBacklog != 0 {
		t.Fatalf("promoted status %+v: want a primary with applied = received = %+v", st, received)
	}
	if st.Drained != writes {
		t.Fatalf("promotion reports %d records drained, want %d", st.Drained, writes)
	}
	for i := 0; i < writes; i++ {
		if v, err := getVal(t, follower.eng, fmt.Sprintf("k-%d", i)); err != nil || v != i+100 {
			t.Fatalf("sync-acked k-%d = %d (%v) on the promoted node, want %d", i, v, err, i+100)
		}
	}
}

// TestFollowerCrashBetweenAcceptAndApply: the follower dies after it has
// acknowledged records and before it has applied any of them. Its log is all
// that is left, and a cold start from it has every acknowledged record.
func TestFollowerCrashBetweenAcceptAndApply(t *testing.T) {
	const keys = 6
	fs := wal.NewMemFS(1)
	primary := newReplNode(t, replNodeConfig{})
	follower, gate, meta := startGatedFollower(t, primary, recovery.Config{DataDir: "data", FS: fs})
	for i := 0; i < keys; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), i+7); err != nil {
			t.Fatal(err)
		}
	}
	sh := newTestShipper(t, primary, follower, meta.Cursor, 2, nil)
	shipAll(t, sh)
	<-gate.entered
	if st := replStatus(t, follower); st.Applied != meta.Cursor || st.ApplyBacklog != keys {
		t.Fatalf("before the crash: applied %+v backlog %d, want nothing applied and %d records waiting", st.Applied, st.ApplyBacklog, keys)
	}

	eng := crashAndColdStart(t, fs, primary, follower, sh)
	for i := 0; i < keys; i++ {
		if v, err := getVal(t, eng, fmt.Sprintf("k-%d", i)); err != nil || v != i+7 {
			t.Fatalf("acknowledged k-%d = %d (%v) after the cold start, want %d", i, v, err, i+7)
		}
	}
}

// TestFollowerAckCheckpointStampsApplied: a follower's checkpoint image must
// carry the LSN of what it contains. The follower's log head is the appended
// head, ahead of memory by the backlog, so a checkpoint taken into a backlog
// waits for it to drain instead of stamping images with records they lack — a
// cold start from such an image would skip them.
func TestFollowerAckCheckpointStampsApplied(t *testing.T) {
	const keys = 12
	fs := wal.NewMemFS(1)
	primary := newReplNode(t, replNodeConfig{})
	follower, gate, meta := startGatedFollower(t, primary, recovery.Config{DataDir: "data", FS: fs})
	for i := 0; i < keys; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), i*3); err != nil {
			t.Fatal(err)
		}
	}
	sh := newTestShipper(t, primary, follower, meta.Cursor, 4, nil)
	shipAll(t, sh)
	<-gate.entered

	ckpt := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := follower.peer.Checkpoint(ctx)
		ckpt <- err
	}()
	select {
	case err := <-ckpt:
		t.Fatalf("follower checkpoint finished (%v) with %d acknowledged records unapplied", err, keys)
	case <-time.After(50 * time.Millisecond):
	}
	gate.open()
	if err := <-ckpt; err != nil {
		t.Fatalf("follower checkpoint: %v", err)
	}

	want := kvFingerprint(t, primary.eng, keys)
	eng := crashAndColdStart(t, fs, primary, follower, sh)
	if got := kvFingerprint(t, eng, keys); got != want {
		t.Fatalf("cold start from the follower's images and log diverged from the primary:\n got %s\nwant %s", got, want)
	}
}

// TestApplyPlanBarrier: a shipped plan record is a barrier in the apply
// stream. Commands logged before a local move replay where the bucket was,
// the move runs, and commands logged after it replay where the bucket went —
// the order the primary executed them in, although they arrive in one batch
// and replay in parallel across partitions. The procedure appends to the row,
// so a command applied out of order, or to a partition that does not hold the
// bucket, shows in the value or in a partition's row count.
func TestApplyPlanBarrier(t *testing.T) {
	const keys = 60
	register := registerAppendKV(appendPut)
	primary := newReplNode(t, replNodeConfig{machines: 4, initial: 2, args: storetest.Args[string], register: register})
	follower := newReplNode(t, replNodeConfig{machines: 4, initial: 2, replicaOf: primary.url, args: storetest.Args[string], register: register})
	meta := syncFollower(t, primary, follower)

	round := func(tag string) {
		for i := 0; i < keys; i++ {
			if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), fmt.Sprintf("%s%d", tag, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	move := func(from, to int) {
		if _, err := primary.eng.MoveBuckets(primary.eng.OwnedBuckets(from), from, to, 0, 0); err != nil {
			t.Fatalf("move %d -> %d: %v", from, to, err)
		}
	}
	round("a")
	move(0, 1)
	round("b")
	move(1, 2)
	move(3, 0)
	round("c")

	// One batch carries all three rounds and the plan records between them.
	sh := newTestShipper(t, primary, follower, meta.Cursor, 0, nil)
	drainShipper(t, sh, follower)
	if sh.Shipped() != 1 {
		t.Fatalf("the script shipped as %d batches, want the plan records inside one", sh.Shipped())
	}
	if got, want := fmt.Sprint(follower.eng.Plan()), fmt.Sprint(primary.eng.Plan()); got != want {
		t.Fatalf("follower plan %s, primary plan %s", got, want)
	}
	for part := 0; part < 8; part++ {
		if got, want := partitionRows(t, follower.eng, part), partitionRows(t, primary.eng, part); got != want {
			t.Fatalf("partition %d holds %d rows on the follower, %d on the primary", part, got, want)
		}
	}
	if got, want := kvFingerprint(t, follower.eng, keys), kvFingerprint(t, primary.eng, keys); got != want {
		t.Fatalf("follower values diverged from the primary's:\n got %s\nwant %s", got, want)
	}
}

// TestApplyBackpressure: the apply backlog is bounded. With the applier held,
// the follower acknowledges the batch being applied and a queue's worth more,
// and then stops: the next batch waits, unacknowledged and unappended, so
// neither the backlog nor the memory behind it grows however much the primary
// has to ship. Released, everything gets through.
func TestApplyBackpressure(t *testing.T) {
	const writes = 40
	const bound = server.ApplyQueueDepth + 1
	primary := newReplNode(t, replNodeConfig{})
	follower, gate, meta := startGatedFollower(t, primary, recovery.Config{DataDir: t.TempDir()})
	for i := 0; i < writes; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	sh := newTestShipper(t, primary, follower, meta.Cursor, 1, nil)
	runShipper(t, sh)

	// The follower's status still answers — the batch that waits holds no lock
	// — and shows the backlog stop at its bound, with the log no further than
	// the batches that were acknowledged. (The shipper's own counters are
	// behind the delivery it is blocked in.)
	eventually(t, "the follower has accepted a full queue", func() bool { return replStatus(t, follower).ApplyBacklog == bound })
	time.Sleep(50 * time.Millisecond)
	st := replStatus(t, follower)
	if st.ApplyBacklog != bound || st.Applied != meta.Cursor {
		t.Fatalf("backlog %d applied %+v with the applier held, want it to stop at %d with %+v applied", st.ApplyBacklog, st.Applied, bound, meta.Cursor)
	}
	if st.Received.Seg != meta.Cursor.Seg || st.Received.Rec != meta.Cursor.Rec+bound {
		t.Fatalf("follower received up to %+v, want %d one-record batches past %+v", st.Received, bound, meta.Cursor)
	}

	gate.open()
	eventually(t, "the rest shipped", func() bool { return shipped(t, sh) })
	waitApplied(t, follower)
	if rows := follower.eng.TotalRows(); rows != writes {
		t.Fatalf("follower holds %d rows, want %d", rows, writes)
	}
	if max := follower.srv.ApplyStats().MaxBacklog; max > bound {
		t.Fatalf("apply backlog reached %d records, bound is %d", max, bound)
	}
}

// TestFollowerAckRestoreDrainsApply: a machine crashed and restored on a
// follower is rebuilt from the follower's log, whose head is the received
// cursor — so the rebuild waits for the backlog, or the applier would replay
// on top of it what the restore already replayed. The applier is held inside
// the first record with more queued behind it; crash and restore of the other
// machine return only once the backlog is applied, and every row then reads as
// on the primary: written once.
func TestFollowerAckRestoreDrainsApply(t *testing.T) {
	const keys = 8
	gate := newApplyGate()
	primary := newReplNode(t, replNodeConfig{machines: 4, initial: 2, args: storetest.Args[string], register: registerAppendKV(appendPut)})
	follower := newReplNode(t, replNodeConfig{machines: 4, initial: 2, replicaOf: primary.url, args: storetest.Args[string], register: registerAppendKV(gate.gated(appendPut))})
	t.Cleanup(gate.open)
	meta := syncFollower(t, primary, follower)

	machineOf := func(i int) int {
		return primary.eng.MachineOfPartition(primary.eng.PartitionOfKey(fmt.Sprintf("k-%d", i)))
	}
	other, queued := 1-machineOf(0), 0
	for i := 0; i < keys; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), "a"); err != nil {
			t.Fatal(err)
		}
		if i > 0 && machineOf(i) == other {
			queued++
		}
	}
	if queued == 0 {
		t.Fatalf("no key of k-1..k-%d lives on machine %d; the script needs one queued behind the held apply", keys-1, other)
	}
	shipAll(t, newTestShipper(t, primary, follower, meta.Cursor, 1, nil))
	<-gate.entered

	rebuilt := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := follower.peer.Crash(ctx, other); err != nil {
			rebuilt <- err
			return
		}
		_, err := follower.peer.Restore(ctx, other)
		rebuilt <- err
	}()
	select {
	case err := <-rebuilt:
		t.Fatalf("machine %d was crashed and restored (%v) with %d acknowledged records of its own unapplied", other, err, queued)
	case <-time.After(50 * time.Millisecond):
	}
	gate.open()
	if err := <-rebuilt; err != nil {
		t.Fatalf("crash and restore of machine %d: %v", other, err)
	}
	waitApplied(t, follower)
	if got, want := kvFingerprint(t, follower.eng, keys), kvFingerprint(t, primary.eng, keys); got != want {
		t.Fatalf("follower state after the rebuild diverged from the primary's:\n got %s\nwant %s", got, want)
	}
}

// TestFollowerAckDownMachineHeals: a follower with a machine down keeps
// accepting — the append does not need the machine — and its applier skips the
// down partitions' records, which are the restore's to replay from the log
// they are already in. Sync-commit writes on the primary go on meanwhile, and
// restoring the machine brings the follower level with the primary.
func TestFollowerAckDownMachineHeals(t *testing.T) {
	const keys = 12
	primary := newReplNode(t, replNodeConfig{})
	follower := newReplNode(t, replNodeConfig{replicaOf: primary.url})
	meta := syncFollower(t, primary, follower)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := follower.peer.Crash(ctx, 0); err != nil {
		t.Fatal(err)
	}
	sh, err := transport.NewShipper(transport.ShipperConfig{
		RM: primary.rm, Follower: follower.peer, FromNode: 0, ToNode: -1,
		Start: meta.Cursor, SyncCommit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	runShipper(t, sh)
	for i := 0; i < keys; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatalf("sync-commit put %d with the follower's machine down: %v", i, err)
		}
	}
	waitApplied(t, follower)
	if st := replStatus(t, follower); st.Applied != st.Received || st.Received != replStatus(t, primary).Durable {
		t.Fatalf("follower with a down machine: applied %+v received %+v, primary durable %+v", st.Applied, st.Received, replStatus(t, primary).Durable)
	}
	if rows := follower.eng.TotalRows(); rows != 0 {
		t.Fatalf("a down machine holds %d rows", rows)
	}
	res, err := follower.peer.Restore(ctx, 0)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if res.Replayed != keys {
		t.Fatalf("restore replayed %d commands, want the %d the applier left to it", res.Replayed, keys)
	}
	if _, err := primary.eng.Execute("put", "k-0", 100); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the last write shipped", func() bool { return shipped(t, sh) })
	waitApplied(t, follower)
	if got, want := kvFingerprint(t, follower.eng, keys), kvFingerprint(t, primary.eng, keys); got != want {
		t.Fatalf("follower state after the restore diverged from the primary's:\n got %s\nwant %s", got, want)
	}
}

// TestFollowerAckApplyFailureLatches: an apply that fails leaves memory behind
// the log for good, and the node says so instead of drifting. Here a shipped
// local move cannot run because the follower's machine is down. The records it
// acknowledged stay acknowledged — they are durable — but it answers every
// further batch with Resync, which stops the shipper for good, and it refuses
// promotion; a full resync discards the dead backlog and brings it back.
func TestFollowerAckApplyFailureLatches(t *testing.T) {
	const keys = 9
	primary := newReplNode(t, replNodeConfig{})
	follower := newReplNode(t, replNodeConfig{replicaOf: primary.url})
	meta := syncFollower(t, primary, follower)
	if err := follower.rm.Crash(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := primary.eng.MoveBuckets(primary.eng.OwnedBuckets(0), 0, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	sh := newTestShipper(t, primary, follower, meta.Cursor, 0, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if n, err := sh.ShipOnce(ctx); err != nil || n != keys+1 {
		t.Fatalf("batch onto a follower with a down machine: %d acknowledged, %v; the append does not need the machine", n, err)
	}
	// Promotion drains the backlog first, so it answers with how apply ended.
	if _, err := follower.peer.Promote(ctx, primary.rm.Epoch()+1); !errors.Is(err, store.ErrPartitionDown) {
		t.Fatalf("a shipped move between down partitions: %v, want apply latched as partition down", err)
	}
	if st := replStatus(t, follower); st.Applied != meta.Cursor || st.Received == meta.Cursor {
		t.Fatalf("after the failed apply: applied %+v received %+v, want the ack kept and nothing applied", st.Applied, st.Received)
	}
	if _, err := primary.eng.Execute("put", "k-0", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ShipOnce(ctx); !errors.Is(err, transport.ErrShipResync) {
		t.Fatalf("ship to a follower whose apply failed: %v, want the shipper stopped by a Resync answer", err)
	}
	if st, err := follower.peer.Promote(ctx, primary.rm.Epoch()+1); err == nil {
		t.Fatalf("a follower whose memory trails its log was promoted: %+v", st)
	}

	meta = syncFollower(t, primary, follower)
	drainShipper(t, newTestShipper(t, primary, follower, meta.Cursor, 3, nil), follower)
	if _, err := follower.peer.Promote(ctx, primary.rm.Epoch()+1); err != nil {
		t.Fatalf("promote after the resync: %v", err)
	}
	for i := 0; i < keys; i++ {
		if v, err := getVal(t, follower.eng, fmt.Sprintf("k-%d", i)); err != nil || v != i {
			t.Fatalf("k-%d = %d (%v) on the resynced, promoted node, want %d", i, v, err, i)
		}
	}
}

// BenchmarkSyncCommitFollower isolates the follower's share of a sync-commit
// write: a primary with eight partitions at 3 ms service time and a disk whose
// fsync takes 1 ms, shipping to a follower with the same disk, 64 submitters
// each waiting for the follower's ack. A follower that executes what it is
// shipped before acknowledging it is one serial machine and pins the pair near
// 330 txns/s at one record per fsync; one that acknowledges the durable append
// leaves the primary's partitions as the bound, and every follower fsync
// carries what arrived during the last one.
func BenchmarkSyncCommitFollower(b *testing.B) {
	const submitters = 64
	slowDisk := func(syncs *atomic.Int64) *wal.MemFS {
		fs := wal.NewMemFS(1)
		fs.SetSyncHook(func(name string) error {
			if strings.Contains(name, "seg-") {
				syncs.Add(1)
				time.Sleep(time.Millisecond)
			}
			return nil
		})
		return fs
	}
	register := func(eng *store.Engine) error {
		if err := registerKV(eng); err != nil {
			return err
		}
		return eng.SetServiceTime("put", 3*time.Millisecond)
	}
	var primarySyncs, followerSyncs atomic.Int64
	primary := newReplNode(b, replNodeConfig{machines: 4, initial: 4, recovery: recovery.Config{DataDir: "primary", FS: slowDisk(&primarySyncs)}, register: register})
	follower := newReplNode(b, replNodeConfig{machines: 4, initial: 4, replicaOf: primary.url, recovery: recovery.Config{DataDir: "follower", FS: slowDisk(&followerSyncs)}, register: register})
	meta := syncFollower(b, primary, follower)
	sh, err := transport.NewShipper(transport.ShipperConfig{
		RM: primary.rm, Follower: follower.peer, FromNode: 0, ToNode: -1,
		Start: meta.Cursor, SyncCommit: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	runShipper(b, sh)
	put, _ := primary.eng.Handle("put")

	followerSyncs.Store(0)
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				if _, err := primary.eng.ExecuteID(put, key, int(i)); err != nil {
					b.Error(err)
					return
				}
			}
		}(fmt.Sprintf("k-%d", s))
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txns/s")
	b.ReportMetric(float64(b.N)/float64(followerSyncs.Load()), "records/follower-fsync")
}

// TestReplicaInstallIsOneCheckpointRound: syncing a follower writes the
// primary's snapshot to its disk once — one image set under one fsync, then
// the manifest — and not a baseline set followed by a checkpoint's copy of it.
func TestReplicaInstallIsOneCheckpointRound(t *testing.T) {
	const keys = 40
	primary := newReplNode(t, replNodeConfig{})
	for i := 0; i < keys; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	fs := wal.NewMemFS(1)
	follower := newReplNode(t, replNodeConfig{replicaOf: primary.url, recovery: recovery.Config{DataDir: "data", FS: fs}})
	var sets, manifests atomic.Int64
	fs.SetSyncHook(func(name string) error {
		switch {
		case strings.Contains(name, "set-"):
			sets.Add(1)
		case strings.Contains(name, "MANIFEST"):
			manifests.Add(1)
		}
		return nil
	})
	meta := syncFollower(t, primary, follower)
	fs.SetSyncHook(nil)

	if s, mf := sets.Load(), manifests.Load(); s != 1 || mf != 1 {
		t.Fatalf("replica install cost %d image-set and %d manifest fsyncs, want 1 and 1", s, mf)
	}
	if names, _ := fs.ReadDir("data/img"); len(names) != 1 {
		t.Fatalf("image sets after the install: %v, want one", names)
	}
	if st := follower.rm.Stats(); st.Checkpoints != 1 {
		t.Fatalf("replica install counted %d checkpoints, want 1", st.Checkpoints)
	}
	if got := follower.rm.LogSize(); got != 0 {
		t.Fatalf("follower's log holds %d records after the install, want 0", got)
	}
	// The round is complete: the directory cold-starts to the primary's state.
	want := kvFingerprint(t, primary.eng, keys)
	eng := crashAndColdStart(t, fs, primary, follower, newTestShipper(t, primary, follower, meta.Cursor, 4, nil))
	if got := kvFingerprint(t, eng, keys); got != want {
		t.Fatalf("cold start from the installed baseline diverged from the primary:\n got %s\nwant %s", got, want)
	}
}

// partitionRows counts the rows a partition holds, as a checkpoint of it
// would see them.
func partitionRows(t *testing.T, e *store.Engine, part int) int {
	t.Helper()
	snaps, err := e.SnapshotPartition(part)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, s := range snaps {
		rows += s.Rows
	}
	return rows
}
