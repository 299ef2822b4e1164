package transport_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/faults"
	"pstore/internal/recovery"
	"pstore/internal/server"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/transport"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// replNode is one half of a primary/follower pair: a node-mode server with a
// durable store, hosting every machine (the follower is a full warm copy of
// its primary's slot). The suites step the protocol by hand — syncFollower,
// then a shipper of their own — so a follower only takes the replica role
// here; internal/node's tests run the protocol as a node does.
type replNode struct {
	eng  *store.Engine
	rm   *recovery.Manager
	srv  *server.Server
	peer *transport.Peer
	url  string
}

// replNodeConfig is what a test varies about a replNode. The zero value is a
// primary of the kv workload with int values on 4 machines, 1 of them active,
// logging to a fresh data directory.
type replNodeConfig struct {
	machines, initial int
	replicaOf         string
	// recovery is the log store: a small segment size, or a MemFS whose
	// fsyncs the test gates; register the procedure set, such as a put the
	// test holds open.
	recovery recovery.Config
	register func(*store.Engine) error
	// gate, when set, holds the node's applier: the put is gate.register's
	// unless register is given, and the gate opens before the node stops.
	gate *applyGate
}

// newReplNode starts a replNode; t's cleanup stops it.
func newReplNode(t testing.TB, cfg replNodeConfig) *replNode {
	t.Helper()
	if cfg.machines == 0 {
		cfg.machines, cfg.initial = 4, 1
	}
	switch {
	case cfg.register != nil:
	case cfg.gate != nil:
		cfg.register = cfg.gate.register
	default:
		cfg.register = registerKV[int]
	}
	if cfg.recovery.DataDir == "" {
		cfg.recovery.DataDir = t.TempDir()
	}
	scfg := kvStoreConfig(cfg.machines, cfg.initial)
	for m := 0; m < cfg.machines; m++ {
		scfg.HostedMachines = append(scfg.HostedMachines, m)
	}
	eng, err := store.NewEngine(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.register(eng); err != nil {
		t.Fatal(err)
	}
	rm, err := recovery.New(eng, cfg.recovery)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	t.Cleanup(eng.Stop)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String()
	srv, err := server.New(eng, rm, 0, server.Config{
		Peers:     []string{url},
		ReplicaOf: cfg.replicaOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	peer := transport.NewPeer(url)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := peer.WaitHealthy(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if cfg.gate != nil {
		// Registered after the node's own cleanups, so it runs before them: a
		// server shutting down waits for its applier.
		t.Cleanup(cfg.gate.open)
	}
	return &replNode{eng: eng, rm: rm, srv: srv, peer: peer, url: url}
}

// syncFollower runs the bootstrap a serving process performs: fetch the
// primary's sync stream and install it on the follower.
func syncFollower(t testing.TB, primary, follower *replNode) wire.ReplSyncMeta {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	meta, set, err := primary.peer.ReplSync(ctx, "")
	if err != nil {
		t.Fatalf("ReplSync: %v", err)
	}
	if err := follower.srv.InstallReplicaState(meta, set); err != nil {
		t.Fatalf("InstallReplicaState: %v", err)
	}
	return meta
}

func newTestShipper(t *testing.T, primary, follower *replNode, start wire.ShipCursor, batchRecords int, inj *faults.Schedule) *transport.Shipper {
	t.Helper()
	sh, err := transport.NewShipper(transport.ShipperConfig{
		RM:           primary.rm,
		Follower:     follower.peer,
		FromNode:     0,
		ToNode:       -1,
		Faults:       inj,
		BatchRecords: batchRecords,
		Start:        start,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// shipAll steps the shipper until the follower's status shows it holds every
// durable record of the primary's (dropped/partitioned batches retry on later
// steps). Held is durable in the follower's log, not yet in its memory.
func shipAll(t *testing.T, sh *transport.Shipper) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 10000; i++ {
		if _, err := sh.ShipOnce(ctx); err != nil {
			t.Fatalf("ShipOnce: %v", err)
		}
		if shipped(t, sh) {
			return
		}
	}
	t.Fatal("shipper never drained")
}

// shipped reports whether the shipper's follower holds every durable record
// of its primary's, by the follower's status.
func shipped(t *testing.T, sh *transport.Shipper) bool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ok, err := sh.FollowerHolds(ctx)
	if err != nil {
		t.Fatalf("follower status: %v", err)
	}
	return ok
}

// drainShipper is shipAll, then a wait until the follower has applied what it
// acknowledged, so the caller may read the follower's state.
func drainShipper(t *testing.T, sh *transport.Shipper, follower *replNode) {
	t.Helper()
	shipAll(t, sh)
	waitApplied(t, follower)
}

// waitApplied is the barrier between a follower's ack and its state: an ack
// says the records are durable in the follower's log; an applied cursor in
// its status that has reached its received one says they are in its memory
// too.
func waitApplied(t *testing.T, follower *replNode) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := replStatus(t, follower)
		if st.Applied == st.Received && st.ApplyBacklog == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower applied %+v of the %+v it received (backlog %d) after 20s", st.Applied, st.Received, st.ApplyBacklog)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getVal(t *testing.T, eng *store.Engine, key string) (int, error) {
	t.Helper()
	v, err := eng.Execute("get", key, nil)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int)
	if !ok {
		t.Fatalf("get %q returned %T %v", key, v, v)
	}
	return n, nil
}

// TestReplicationEndToEnd is the happy path of the whole plane: sync a
// follower from a loaded primary, ship post-sync writes, verify the follower
// refuses client traffic until promotion, promote it, and verify every
// acknowledged write is present on the new primary — and that the zombie old
// primary's next ship batch is fenced.
func TestReplicationEndToEnd(t *testing.T) {
	const keys = 200
	primary := newReplNode(t, replNodeConfig{machines: 2, initial: 2})
	loadAll(t, []*store.Engine{primary.eng}, keys)
	follower := newReplNode(t, replNodeConfig{machines: 2, initial: 2, replicaOf: primary.url})

	// A replica refuses client transactions with a retryable not-owned.
	req, _ := json.Marshal(wire.Request{Txn: "get", Key: "k-0"})
	resp, err := http.Post(follower.url+wire.PathTxn, "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	var out wire.Response
	_ = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != 503 || out.Code != wire.CodeNotOwned {
		t.Fatalf("replica txn: status %d code %s, want 503 %s", resp.StatusCode, out.Code, wire.CodeNotOwned)
	}

	meta := syncFollower(t, primary, follower)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := follower.peer.ReplStatus(ctx)
	if err != nil || st.Role != "replica" {
		t.Fatalf("follower status after sync: %+v, %v", st, err)
	}
	if got := follower.eng.TotalRows(); got != keys {
		t.Fatalf("follower rows after sync = %d, want %d", got, keys)
	}

	// Post-sync writes on the primary, shipped by cursor.
	for i := 0; i < keys; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), i+1000); err != nil {
			t.Fatal(err)
		}
	}
	sh := newTestShipper(t, primary, follower, meta.Cursor, 0, nil)
	drainShipper(t, sh, follower)

	// Lag-0 barrier: the follower's applied cursor equals the primary's
	// durable end — the zero-acked-loss precondition for promotion.
	pst, err := primary.peer.ReplStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fst, err := follower.peer.ReplStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fst.Applied != pst.Durable {
		t.Fatalf("follower applied %+v != primary durable %+v", fst.Applied, pst.Durable)
	}

	promoted, err := follower.peer.Promote(ctx, pst.Epoch+1)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if promoted.Role != "primary" || promoted.Epoch != pst.Epoch+1 {
		t.Fatalf("promoted status: %+v", promoted)
	}
	// Zero acked-transaction loss: every write the primary acknowledged is
	// readable on the promoted follower.
	for i := 0; i < keys; i++ {
		v, err := getVal(t, follower.eng, fmt.Sprintf("k-%d", i))
		if err != nil || v != i+1000 {
			t.Fatalf("promoted k-%d = %d (%v), want %d", i, v, err, i+1000)
		}
	}
	// And it serves clients again.
	if _, err := follower.eng.Execute("put", "k-0", 9999); err != nil {
		t.Fatalf("promoted follower refused a write: %v", err)
	}

	// The zombie primary keeps appending and shipping under the old epoch;
	// the promoted node must fence it terminally.
	if _, err := primary.eng.Execute("put", "k-1", 7777); err != nil {
		t.Fatal(err)
	}
	_, err = sh.ShipOnce(ctx)
	if !errors.Is(err, wire.ErrFenced) {
		t.Fatalf("zombie ship: err = %v, want ErrFenced", err)
	}
	if !errors.Is(sh.Err(), wire.ErrFenced) {
		t.Fatalf("fencing did not latch: %v", sh.Err())
	}
	// The zombie's post-promotion write must NOT have leaked to the new
	// primary.
	if v, _ := getVal(t, follower.eng, "k-1"); v == 7777 {
		t.Fatal("fenced write leaked to the promoted follower")
	}
}

// TestFollowerBaselineIsSyncBody: a follower writes the image set its sync
// body carried as its baseline as it arrived — the one set in its image
// directory is the primary's bytes, frame headers and so LSNs included — and
// every bucket's log head on the follower continues from the primary's.
func TestFollowerBaselineIsSyncBody(t *testing.T) {
	const keys = 200
	primary := newReplNode(t, replNodeConfig{machines: 2, initial: 2})
	loadAll(t, []*store.Engine{primary.eng}, keys)
	loadAll(t, []*store.Engine{primary.eng}, keys/2) // LSNs run ahead of row counts
	dir := t.TempDir()
	follower := newReplNode(t, replNodeConfig{machines: 2, initial: 2, replicaOf: primary.url, recovery: recovery.Config{DataDir: dir}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	meta, set, err := primary.peer.ReplSync(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.srv.InstallReplicaState(meta, set); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(filepath.Join(dir, "img"))
	if err != nil || len(names) != 1 {
		t.Fatalf("follower image sets %v (%v), want exactly the baseline", names, err)
	}
	baseline, err := os.ReadFile(filepath.Join(dir, "img", names[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseline, set) {
		t.Fatalf("follower baseline set is %d bytes, the sync body's set %d, and they differ", len(baseline), len(set))
	}
	frames, _, err := wal.DecodeImageSet(baseline)
	if err != nil || len(frames) != meta.Buckets || meta.Buckets == 0 {
		t.Fatalf("baseline holds %d frames (%v), the sync declared %d buckets", len(frames), err, meta.Buckets)
	}
	for _, f := range frames {
		want := primary.rm.LogHead(f.Bucket)
		if f.LSN != want || follower.rm.LogHead(f.Bucket) != want {
			t.Fatalf("bucket %d: baseline lsn %d, follower head %d, primary head %d", f.Bucket, f.LSN, follower.rm.LogHead(f.Bucket), want)
		}
	}
}

// TestDuplicateShipAfterReconnect pins the dedup half of the protocol
// (satellite: duplicate ship batch after reconnect). Every batch is
// delivered twice by the injector, and then a "reconnected" shipper restarts
// from the stale sync cursor and re-ships history. Both paths must converge
// by gap acks and per-bucket LSN dedup: no row duplicated, no value wrong.
func TestDuplicateShipAfterReconnect(t *testing.T) {
	const keys = 120
	primary := newReplNode(t, replNodeConfig{machines: 2, initial: 2})
	loadAll(t, []*store.Engine{primary.eng}, keys)
	follower := newReplNode(t, replNodeConfig{machines: 2, initial: 2, replicaOf: primary.url})
	meta := syncFollower(t, primary, follower)

	for i := 0; i < keys; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), i+500); err != nil {
			t.Fatal(err)
		}
	}
	inj, err := faults.Parse("seed=11,ship-dup=1")
	if err != nil {
		t.Fatal(err)
	}
	sh := newTestShipper(t, primary, follower, meta.Cursor, 16, inj)
	drainShipper(t, sh, follower)
	if inj.Stats().Fired[faults.ShipDup] == 0 {
		t.Fatal("injector duplicated nothing; test proves nothing")
	}

	// Reconnect: a fresh shipper with no memory of progress restarts from
	// the sync-time cursor and replays already-acked history. The follower's
	// gap ack must fast-forward it past everything already applied.
	sh2 := newTestShipper(t, primary, follower, meta.Cursor, 16, nil)
	drainShipper(t, sh2, follower)

	if got := follower.eng.TotalRows(); got != keys {
		t.Fatalf("follower rows = %d after duplicate delivery, want %d", got, keys)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := follower.peer.Promote(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		v, err := getVal(t, follower.eng, fmt.Sprintf("k-%d", i))
		if err != nil || v != i+500 {
			t.Fatalf("k-%d = %d (%v), want %d", i, v, err, i+500)
		}
	}
}

// TestPromoteWithTornShippedTail promotes a follower whose ship stream was
// torn mid-flight (satellite: promote with torn shipped tail): only the
// first few batches arrived before the primary died. The promoted state must
// be the exact whole-batch prefix of the primary's WAL — recent
// unacknowledged writes lost (never acked to a client from the replica's
// view), everything before the tear intact, nothing partially applied.
func TestPromoteWithTornShippedTail(t *testing.T) {
	const keys = 120
	primary := newReplNode(t, replNodeConfig{machines: 2, initial: 2})
	loadAll(t, []*store.Engine{primary.eng}, keys)
	follower := newReplNode(t, replNodeConfig{machines: 2, initial: 2, replicaOf: primary.url})
	meta := syncFollower(t, primary, follower)

	// Updates in a known global order: the WAL orders them exactly as
	// executed.
	for i := 0; i < keys; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), i+1000); err != nil {
			t.Fatal(err)
		}
	}
	// Ship 5 batches of 7 records, then the stream tears (primary dies).
	sh := newTestShipper(t, primary, follower, meta.Cursor, 7, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	applied := 0
	for i := 0; i < 5; i++ {
		n, err := sh.ShipOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		applied += n
	}
	if applied != 35 {
		t.Fatalf("shipped %d records before the tear, want 35", applied)
	}

	promoted, err := follower.peer.Promote(ctx, 1)
	if err != nil || promoted.Role != "primary" {
		t.Fatalf("promote after torn tail: %+v, %v", promoted, err)
	}
	// Exact prefix: updates 0..34 applied, 35.. still at their sync values.
	for i := 0; i < keys; i++ {
		want := i
		if i < applied {
			want = i + 1000
		}
		v, err := getVal(t, follower.eng, fmt.Sprintf("k-%d", i))
		if err != nil || v != want {
			t.Fatalf("k-%d = %d (%v) after torn-tail promote, want %d", i, v, err, want)
		}
	}
	if got := follower.eng.TotalRows(); got != keys {
		t.Fatalf("rows = %d, want %d", got, keys)
	}
}

// TestPromoteWhileMigrationInFlight kills a migration mid-flight and checks
// the replica side of the crashed-pair contract: a reconfiguration that
// aborts on the primary rolls back there, and the follower — promoted after
// shipping whatever the abort left in the WAL — lands on the same
// rolled-back plan with every row intact, exactly as if it had been the
// surviving half of a crashed pair.
func TestPromoteWhileMigrationInFlight(t *testing.T) {
	const keys = 300
	primary := newReplNode(t, replNodeConfig{})
	loadAll(t, []*store.Engine{primary.eng}, keys)
	follower := newReplNode(t, replNodeConfig{replicaOf: primary.url})
	meta := syncFollower(t, primary, follower)
	planBefore := fmt.Sprint(primary.eng.Plan())

	// Drive a scale-out whose chunks all fail: retries exhaust mid-flight
	// and the move must abort with rollback — the crashed-pair path.
	inj, err := faults.Parse("seed=5,chunk-drop=1")
	if err != nil {
		t.Fatal(err)
	}
	topo := transport.NewLocal(primary.eng, primary.rm)
	topo.SetFaultInjector(inj)
	ex, err := squall.NewExecutor(topo, chaosExecutorConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = ex.Reconfigure(1, 4, 0)
	var me *squall.MoveError
	if !errors.As(err, &me) || !me.RolledBack {
		t.Fatalf("reconfigure under total chunk loss: %v, want rolled-back MoveError", err)
	}
	if got := fmt.Sprint(primary.eng.Plan()); got != planBefore {
		t.Fatalf("primary plan after abort %s != pre-move %s", got, planBefore)
	}

	// Ship everything the aborted migration logged, then promote.
	sh := newTestShipper(t, primary, follower, meta.Cursor, 0, nil)
	drainShipper(t, sh, follower)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := follower.peer.Promote(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(follower.eng.Plan()); got != planBefore {
		t.Fatalf("promoted plan %s != rolled-back plan %s", got, planBefore)
	}
	if got := follower.eng.TotalRows(); got != keys {
		t.Fatalf("promoted rows = %d, want %d", got, keys)
	}
	for i := 0; i < keys; i += 7 {
		v, err := getVal(t, follower.eng, fmt.Sprintf("k-%d", i))
		if err != nil || v != i {
			t.Fatalf("k-%d = %d (%v) after promote, want %d", i, v, err, i)
		}
	}
}

// TestCoordFailoverPromote exercises the coordinator plane end to end:
// detect the primary's death by consecutive failed health probes, promote
// its follower under a fresh epoch, and verify detection latency falls in
// the deterministic [(FailAfter-1)*Probe, ~FailAfter*Probe+slack] window.
func TestCoordFailoverPromote(t *testing.T) {
	const keys = 100
	primary := newReplNode(t, replNodeConfig{machines: 2, initial: 2})
	loadAll(t, []*store.Engine{primary.eng}, keys)
	follower := newReplNode(t, replNodeConfig{machines: 2, initial: 2, replicaOf: primary.url})
	meta := syncFollower(t, primary, follower)
	sh := newTestShipper(t, primary, follower, meta.Cursor, 0, nil)
	drainShipper(t, sh, follower)

	// Kill the primary (shutdown stands in for SIGKILL here — the probe
	// only sees the port stop answering).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := primary.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	det, err := cluster.DetectFailure(ctx, primary.peer, cluster.DetectorConfig{
		Probe: 20 * time.Millisecond, FailAfter: 3,
	})
	if err != nil {
		t.Fatalf("DetectFailure: %v", err)
	}
	if det < 40*time.Millisecond {
		t.Fatalf("detection after %v, below the (FailAfter-1)*Probe floor", det)
	}
	st, err := cluster.Promote(ctx, cluster.PromoteConfig{
		Replica:    follower.peer,
		ReplicaURL: follower.url,
		FailedNode: 0,
		Survivors:  map[int]*transport.Peer{},
	})
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if st.Role != "primary" || st.Epoch == 0 {
		t.Fatalf("promoted: %+v", st)
	}
	for i := 0; i < keys; i += 11 {
		v, err := getVal(t, follower.eng, fmt.Sprintf("k-%d", i))
		if err != nil || v != i {
			t.Fatalf("k-%d = %d (%v) after failover, want %d", i, v, err, i)
		}
	}
}

// TestBigRecordsReachFollower: a batch is cut by bytes as well as by count.
// 600 records of 4 KiB are more than one wire frame holds however they are
// counted out (512 of them make 2 MiB): the shipper sends them as several
// batches, every one is delivered, and the follower's log ends up holding the
// primary's frames, byte for byte.
func TestBigRecordsReachFollower(t *testing.T) {
	const keys = 600
	primary := newReplNode(t, replNodeConfig{register: registerKV[string]})
	follower := newReplNode(t, replNodeConfig{replicaOf: primary.url, register: registerKV[string]})
	meta := syncFollower(t, primary, follower)
	val := func(i int) string { return fmt.Sprintf("%04d", i) + strings.Repeat("x", 4<<10) }
	for i := 0; i < keys; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	sh := newTestShipper(t, primary, follower, meta.Cursor, 0, nil)
	drainShipper(t, sh, follower)
	if n := sh.Shipped(); n < 3 {
		t.Fatalf("%d batches carried %d records of 4 KiB; one wire frame holds under 256 of them", n, keys)
	}
	// Both logs, read back in batches: the same command frames in the same
	// order (a follower logs its own record of a plan change).
	var logs [2][]byte
	for i, n := range []struct {
		rm  *recovery.Manager
		cur wire.ShipCursor
	}{{primary.rm, meta.Cursor}, {follower.rm, wire.ShipCursor{}}} {
		for {
			frames, next, _, err := n.rm.ReadShip(n.cur, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) == 0 {
				break
			}
			for _, f := range frames {
				if r, _, err := wal.DecodeRecord(f); err != nil {
					t.Fatal(err)
				} else if !r.IsPlan() {
					logs[i] = append(logs[i], f...)
				}
			}
			n.cur = next
		}
	}
	if len(logs[0]) < keys*(4<<10) || !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("primary's log is %d bytes, follower's %d, and they differ", len(logs[0]), len(logs[1]))
	}
	// Last, because a read is logged too.
	for i := 0; i < keys; i += 37 {
		if got := getStr(t, follower.eng, fmt.Sprintf("k-%d", i)); got != val(i) {
			t.Fatalf("follower k-%d = %.8s… (%d bytes), want %.8s… (%d bytes)", i, got, len(got), val(i), len(val(i)))
		}
	}
}
