package node_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/faults"
	"pstore/internal/node"
	"pstore/internal/node/nodetest"
	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/transport"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// The lifecycle suite runs the replication arc the way `pstore serve -node`
// runs it — replica sync, shipping, fencing, rejoin, resync — with every node
// started by node.Start in this process and talking over loopback HTTP.

const keys = 100

func registerKV(eng *store.Engine) error {
	if err := eng.Register("put", store.Proc(func(tx *store.Tx, args int) (any, error) {
		return nil, tx.Put("kv", tx.Key, args)
	})); err != nil {
		return err
	}
	return eng.Register("get", store.Proc(func(tx *store.Tx, _ store.NoArgs) (any, error) {
		v, ok, err := tx.Get("kv", tx.Key)
		if err != nil || !ok {
			return nil, fmt.Errorf("missing %q: %v", tx.Key, err)
		}
		return v, nil
	}))
}

// kvConfig is a one-node cluster of the kv workload — keys rows on 2 machines,
// 1 of them active — logging to a fresh data directory.
func kvConfig(t *testing.T) node.Config {
	return node.Config{
		Store:    store.Config{MaxMachines: 2, PartitionsPerMachine: 2, Buckets: 64, QueueCapacity: 1024, InitialMachines: 1},
		Register: registerKV,
		Load: func(eng *store.Engine) error {
			for i := 0; i < keys; i++ {
				if _, err := eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
					return err
				}
			}
			return nil
		},
		Recovery: recovery.Config{DataDir: t.TempDir()},
	}
}

func replicaOf(t *testing.T, primary *node.Node) node.Config {
	cfg := kvConfig(t)
	cfg.ReplicaOf = primary.URL
	return cfg
}

func peer(n *node.Node) *transport.Peer { return transport.NewPeer(n.URL) }

func put(t *testing.T, n *node.Node, key string, v int) {
	t.Helper()
	if _, err := n.Engine.Execute("put", key, v); err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

func get(t *testing.T, n *node.Node, key string) int {
	t.Helper()
	v, err := n.Engine.Execute("get", key, nil)
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	return v.(int)
}

// eventually polls cond, which reads state from outside the node, until it
// holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still not the case after 20s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitCaughtUp waits until follower is a replica of primary's epoch that has
// applied primary's whole durable log and holds as many rows.
func waitCaughtUp(t *testing.T, primary, follower *node.Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	eventually(t, "follower caught up", func() bool {
		ps, perr := peer(primary).ReplStatus(ctx)
		fs, ferr := peer(follower).ReplStatus(ctx)
		return perr == nil && ferr == nil && fs.Role == "replica" && fs.Epoch == ps.Epoch &&
			fs.Applied.Seg == ps.Durable.Seg && fs.Applied.Rec == ps.Durable.Rec &&
			follower.Engine.TotalRows() == primary.Engine.TotalRows()
	})
}

func promote(t *testing.T, n *node.Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := cluster.Promote(ctx, cluster.PromoteConfig{
		Replica: peer(n), ReplicaURL: n.URL, Survivors: map[int]*transport.Peer{},
	}); err != nil {
		t.Fatalf("promote: %v", err)
	}
}

// TestLifecycleReplicaSyncsAndShips: a node started with ReplicaOf syncs from
// its primary, which then ships it every write.
func TestLifecycleReplicaSyncsAndShips(t *testing.T) {
	p := nodetest.Node(t, kvConfig(t))
	f := nodetest.Node(t, replicaOf(t, p))
	waitCaughtUp(t, p, f)
	for i := keys / 2; i < keys+keys/2; i++ {
		put(t, p, fmt.Sprintf("k-%d", i), i+1000)
	}
	waitCaughtUp(t, p, f)
	if got := f.Engine.TotalRows(); got != keys+keys/2 {
		t.Fatalf("follower holds %d rows, want %d", got, keys+keys/2)
	}
	for i := 0; i < keys+keys/2; i += 7 {
		if got, want := get(t, f, fmt.Sprintf("k-%d", i)), get(t, p, fmt.Sprintf("k-%d", i)); got != want {
			t.Fatalf("k-%d = %d on the follower, %d on the primary", i, got, want)
		}
	}
}

// TestOperatorLogIsTheStandardLogger: a node and the server it runs write
// their operator lines through the standard logger, so the program that
// opened the node chooses where they go and what prefix they carry.
func TestOperatorLogIsTheStandardLogger(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	flags, prefix, w := log.Flags(), log.Prefix(), log.Writer()
	log.SetFlags(0)
	log.SetPrefix("test: ")
	log.SetOutput(out)
	// Registered before the nodes' cleanups, so it runs once they are closed.
	t.Cleanup(func() {
		log.SetOutput(w)
		log.SetPrefix(prefix)
		log.SetFlags(flags)
		out.Close()
	})
	p := nodetest.Node(t, kvConfig(t))
	f := nodetest.Node(t, replicaOf(t, p))
	eventually(t, "the node's and both servers' lines in the standard logger", func() bool {
		got, err := os.ReadFile(out.Name())
		return err == nil && strings.Contains(string(got), "test: node 0/1 hosting machines [0 1], loading dataset\n") &&
			strings.Contains(string(got), "test: replica synced from "+p.URL) &&
			strings.Contains(string(got), "test: shipping WAL to follower "+f.URL)
	})
}

// TestLifecycleFencedPrimaryRejoinsByResync: a primary whose follower was
// promoted goes on taking a write, ships it, is fenced by the promoted node —
// and then, with nobody ordering it to, rejoins that node as its follower by a
// full resync: the write goes with its log, and the promoted node's snapshot
// and stream replace both.
func TestLifecycleFencedPrimaryRejoinsByResync(t *testing.T) {
	p := nodetest.Node(t, kvConfig(t))
	f := nodetest.Node(t, replicaOf(t, p))
	waitCaughtUp(t, p, f)
	promote(t, f)

	put(t, p, "zombie", 1)
	waitCaughtUp(t, f, p)
	if _, err := p.Engine.Execute("get", "zombie", nil); err == nil {
		t.Fatal("the write the zombie took after the promotion survived its rejoin")
	}
	put(t, f, "k-1", 7)
	waitCaughtUp(t, f, p)
	if got := get(t, p, "k-1"); got != 7 {
		t.Fatalf("k-1 = %d on the rejoined node, want 7", got)
	}
}

// TestLifecycleFencedPrimaryPlanChangeResyncs: a fenced primary that changed
// its plan after the promotion converges on the new primary's plan when it
// rejoins.
func TestLifecycleFencedPrimaryPlanChangeResyncs(t *testing.T) {
	p := nodetest.Node(t, kvConfig(t))
	f := nodetest.Node(t, replicaOf(t, p))
	waitCaughtUp(t, p, f)
	promote(t, f)

	if err := p.Engine.SetActiveMachines(2); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, p)
	if got, want := p.Engine.ActiveMachines(), f.Engine.ActiveMachines(); got != want {
		t.Fatalf("rejoined node has %d active machines, its primary %d", got, want)
	}
	if got, want := fmt.Sprint(p.Engine.Plan()), fmt.Sprint(f.Engine.Plan()); got != want {
		t.Fatalf("rejoined node's plan %s differs from its primary's %s", got, want)
	}
}

// TestLifecycleChainedFailover is CI's chained-failover leg in one process:
// kill the primary, promote its sync-commit follower, restart the dead node
// from its data directory and rejoin it; then kill the new primary too and
// promote the rejoined node, which must hold every write the new primary
// acknowledged.
func TestLifecycleChainedFailover(t *testing.T) {
	inj, err := faults.Parse("seed=42,ship-drop=0.05,ship-dup=0.1")
	if err != nil {
		t.Fatal(err)
	}
	pcfg := kvConfig(t)
	p := nodetest.Node(t, pcfg, nodetest.Faults(inj))
	fcfg := replicaOf(t, p)
	fcfg.SyncCommit = true
	f := nodetest.Node(t, fcfg)
	waitCaughtUp(t, p, f)
	for i := 0; i < 20; i++ {
		put(t, p, fmt.Sprintf("k-%d", i), i+100)
	}
	p.Close()
	promote(t, f)

	p = nodetest.Node(t, pcfg, nodetest.Faults(inj))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := cluster.Rejoin(ctx, cluster.RejoinConfig{Zombie: peer(p), Primary: peer(f), PrimaryURL: f.URL}); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	for i := 0; i < 20; i++ {
		put(t, f, fmt.Sprintf("k-%d", i), i+200)
	}
	plan, active, rows := fmt.Sprint(f.Engine.Plan()), f.Engine.ActiveMachines(), f.Engine.TotalRows()
	f.Close()
	promote(t, p)

	if got := fmt.Sprint(p.Engine.Plan()); got != plan {
		t.Fatalf("promoted plan %s, the killed primary's %s", got, plan)
	}
	if p.Engine.ActiveMachines() != active || p.Engine.TotalRows() != rows {
		t.Fatalf("promoted node: %d active, %d rows; the killed primary: %d, %d",
			p.Engine.ActiveMachines(), p.Engine.TotalRows(), active, rows)
	}
	for i := 0; i < 20; i++ {
		if got := get(t, p, fmt.Sprintf("k-%d", i)); got != i+200 {
			t.Fatalf("k-%d = %d after the second failover, want the acknowledged %d", i, got, i+200)
		}
	}
}

// TestPromotedPrimaryCompactsWithoutPredecessor: a promoted node's
// checkpoints delete the sealed segments they cover while its deposed
// predecessor stays away. Promotion pins nothing, so the log stays bounded
// however long the old primary is gone.
func TestPromotedPrimaryCompactsWithoutPredecessor(t *testing.T) {
	const segBytes = 1 << 10
	p := nodetest.Node(t, kvConfig(t), nodetest.SegmentBytes(segBytes))
	f := nodetest.Node(t, replicaOf(t, p), nodetest.SegmentBytes(segBytes))
	waitCaughtUp(t, p, f)
	p.Close()
	promote(t, f)

	before := f.Recovery.WALStats()
	for i := 0; i < 4*keys; i++ {
		put(t, f, fmt.Sprintf("k-%d", i%keys), i)
	}
	sealed := f.Recovery.WALStats().Rotations - before.Rotations
	if sealed < 3 {
		t.Fatalf("%d writes sealed %d segments; the test needs several", 4*keys, sealed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if _, err := peer(f).Checkpoint(ctx); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	if got := f.Recovery.WALStats().CompactedSegments - before.CompactedSegments; got < sealed {
		t.Fatalf("two checkpoints compacted %d segments; the %d sealed since the promotion are covered", got, sealed)
	}
	if got := f.Recovery.LogBytes(); got > segBytes {
		t.Fatalf("%d bytes of log retained after two checkpoints; only the active segment (< %d bytes) is needed", got, segBytes)
	}
}

// TestSyncCommitWriteDuringRejoinInstall: under sync commit, a write the
// promoted primary takes while its predecessor installs the rejoin snapshot is
// acknowledged only once the install is done and the rejoined node has the
// write in its log. The write is on the rejoined node, and still there once
// that node is promoted in turn.
func TestSyncCommitWriteDuringRejoinInstall(t *testing.T) {
	fs := wal.NewMemFS(1)
	pcfg := kvConfig(t)
	p := nodetest.Node(t, pcfg, nodetest.MemFS(fs))
	fcfg := replicaOf(t, p)
	fcfg.SyncCommit = true
	f := nodetest.Node(t, fcfg)
	waitCaughtUp(t, p, f)
	p.Close()
	promote(t, f)
	p = nodetest.Node(t, pcfg, nodetest.MemFS(fs))

	// Hold the restarted node's install at the fsync of the image set it
	// writes from the snapshot.
	installing, release := make(chan struct{}), make(chan struct{})
	var held, released sync.Once
	open := func() { released.Do(func() { close(release) }) }
	t.Cleanup(open)
	fs.SetSyncHook(func(name string) error {
		if strings.Contains(name, "set-") {
			held.Do(func() { close(installing) })
			<-release
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rejoined := make(chan error, 1)
	go func() {
		_, err := cluster.Rejoin(ctx, cluster.RejoinConfig{Zombie: peer(p), Primary: peer(f), PrimaryURL: f.URL})
		rejoined <- err
	}()
	select {
	case <-installing:
	case <-time.After(30 * time.Second):
		t.Fatal("the rejoining node never started installing its snapshot")
	}
	acked := make(chan error, 1)
	go func() {
		_, err := f.Engine.Execute("put", "during", 1)
		acked <- err
	}()
	select {
	case err := <-acked:
		t.Fatalf("the write returned (%v) while its follower was still installing", err)
	case <-time.After(300 * time.Millisecond):
	}
	open()
	if err := <-acked; err != nil {
		t.Fatalf("the write taken during the install: %v", err)
	}
	if err := <-rejoined; err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	waitCaughtUp(t, f, p)
	if got := get(t, p, "during"); got != 1 {
		t.Fatalf("during = %d on the rejoined node, want 1", got)
	}
	f.Close()
	promote(t, p)
	if got := get(t, p, "during"); got != 1 {
		t.Fatalf("during = %d once the rejoined node is promoted, want 1", got)
	}
}

// TestLifecycleReplicaOfMemoryPrimary: a replica whose primary refuses to
// seed it ends with an error on Failed, for its process to report.
func TestLifecycleReplicaOfMemoryPrimary(t *testing.T) {
	pcfg := kvConfig(t)
	pcfg.Recovery = recovery.Config{}
	p := nodetest.Node(t, pcfg)
	f := nodetest.Node(t, replicaOf(t, p))
	select {
	case err := <-f.Server.Failed():
		if !strings.Contains(err.Error(), "requires a durable store") {
			t.Fatalf("replica failed with %v, want the primary's durable-store refusal", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a replica of an in-memory primary has not failed after 30s")
	}
}

// TestResyncReleasesStuckSyncWrite: with a sync-commit primary's follower dead
// and a write waiting on its ack, a replacement follower's sync completes, and
// the waiting write is refused with wal.ErrSyncAborted.
func TestResyncReleasesStuckSyncWrite(t *testing.T) {
	pcfg := kvConfig(t)
	pcfg.SyncCommit = true
	p := nodetest.Node(t, pcfg)
	f1 := nodetest.Node(t, replicaOf(t, p))
	waitCaughtUp(t, p, f1)
	f1.Close()

	appends := p.Recovery.WALStats().Appends
	stuck := make(chan error, 1)
	go func() {
		_, err := p.Engine.Execute("put", "stuck", 1)
		stuck <- err
	}()
	// Once its record is in the log, the write waits on the dead follower.
	eventually(t, "the write is logged", func() bool { return p.Recovery.WALStats().Appends > appends })

	f2 := nodetest.Node(t, replicaOf(t, p))
	waitCaughtUp(t, p, f2)
	select {
	case err := <-stuck:
		if !errors.Is(err, wal.ErrSyncAborted) {
			t.Fatalf("the write waiting on the dead follower returned %v, want ErrSyncAborted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the write waiting on the dead follower is still waiting after the resync")
	}
}

// TestResyncKeepsSyncCommitArmed: after a sync-commit primary's follower is
// replaced and the replacement dies too, a write is not acknowledged — the old
// shipper's exit must not disarm the barrier the new shipper armed. Whether
// that exit lands after the arm is a race, so the follower is replaced three
// times, each replacement checked.
func TestResyncKeepsSyncCommitArmed(t *testing.T) {
	pcfg := kvConfig(t)
	pcfg.SyncCommit = true
	p := nodetest.Node(t, pcfg)
	f := nodetest.Node(t, replicaOf(t, p))
	waitCaughtUp(t, p, f)
	f.Close()
	for round := 0; round < 3; round++ {
		f = nodetest.Node(t, replicaOf(t, p))
		waitCaughtUp(t, p, f)
		f.Close()

		// A deadline bounds a request's submission, not its commit, so the
		// test bounds its own wait; the next sync or closing the node fails
		// the write.
		done := make(chan error, 1)
		go func() {
			_, err := p.Engine.Execute("put", "k-1", round)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("round %d: a write was acknowledged with no follower alive to hold it", round)
			}
		case <-time.After(500 * time.Millisecond):
		}
	}
}

// fence orders n to stand down toward a primary that never answers: n is
// fenced, and its rejoin waits for that primary while the test runs.
func fence(t *testing.T, n *node.Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st, err := peer(n).ReplDemote(ctx, "http://127.0.0.1:1"); err != nil || !st.Fenced {
		t.Fatalf("demote: %+v, %v; want the node fenced", st, err)
	}
}

// TestFencedPrimaryRefusesSync: a primary that knows it is fenced seeds no
// follower — the history it would hand out is one it knows is stale, and the
// shipper it would arm is one its own rejoin would have to stop — so a
// replica started against it fails its sync.
func TestFencedPrimaryRefusesSync(t *testing.T) {
	p := nodetest.Node(t, kvConfig(t))
	fence(t, p)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := peer(p).ReplSync(ctx, ""); !errors.Is(err, wire.ErrFenced) {
		t.Fatalf("a fenced primary answered a sync with %v, want CodeFenced", err)
	}
	f := nodetest.Node(t, replicaOf(t, p))
	select {
	case err := <-f.Server.Failed():
		if !errors.Is(err, wire.ErrFenced) {
			t.Fatalf("the replica of a fenced primary failed with %v, want CodeFenced", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a replica of a fenced primary has not failed after 30s")
	}
}

// TestFencedPrimaryRefusesPromotion: promoting a fenced primary is refused
// and leaves it fenced at its epoch — a coordinator that retries a promotion
// against the wrong node must not get two unfenced primaries in one epoch —
// while promoting an unfenced primary stays idempotent success.
func TestFencedPrimaryRefusesPromotion(t *testing.T) {
	p := nodetest.Node(t, kvConfig(t))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := peer(p).Promote(ctx, 1)
	if err != nil || st.Role != "primary" || st.Fenced || st.Epoch != 1 {
		t.Fatalf("promoting a primary: %+v, %v; want an unfenced primary at epoch 1", st, err)
	}
	fence(t, p)
	if _, err := peer(p).Promote(ctx, 2); !errors.Is(err, wire.ErrFenced) {
		t.Fatalf("promoting a fenced primary: %v, want CodeFenced", err)
	}
	if st, err := peer(p).ReplStatus(ctx); err != nil || !st.Fenced || st.Epoch != 1 {
		t.Fatalf("after the refused promotion: %+v, %v; want still fenced at epoch 1", st, err)
	}
}

// TestKilledMidLoadReloads: a node that dies part-way through its first load
// leaves no cold state behind — the load's only durable form is the image set
// that ends it — so the reopened node loads the whole dataset again instead of
// cold-starting the part it had logged.
func TestKilledMidLoadReloads(t *testing.T) {
	errKilled := errors.New("killed mid-load")
	cfg := kvConfig(t)
	load := cfg.Load
	cfg.Load = func(eng *store.Engine) error {
		for i := 0; i < keys/3; i++ {
			if _, err := eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
				return err
			}
		}
		return errKilled
	}
	if _, err := node.Open(cfg); !errors.Is(err, errKilled) {
		t.Fatalf("first life: Open = %v, want the load's death", err)
	}

	cfg.Load = load
	n := nodetest.Node(t, cfg)
	if cs := n.ColdStart; cs != nil {
		t.Fatalf("reopen cold-started %d images + %d commands of a load that never finished", cs.Snapshots, cs.Replayed)
	}
	if got := n.Engine.TotalRows(); got != keys {
		t.Fatalf("reopened node serves %d rows, want the full %d", got, keys)
	}
	for i := 0; i < keys; i++ {
		if v := get(t, n, fmt.Sprintf("k-%d", i)); v != i {
			t.Fatalf("k-%d = %d, want %d", i, v, i)
		}
	}
}

// TestOpenRefusesShortPeerTable: a peer list that does not name every node is
// refused at open. Served, a forward to the slot it lacks, or a rewiring of
// that slot, would index past the list on a handler goroutine and end the
// process.
func TestOpenRefusesShortPeerTable(t *testing.T) {
	cfg := kvConfig(t)
	cfg.Nodes, cfg.Peers = 2, []string{"http://127.0.0.1:1"}
	n, err := node.Open(cfg)
	if err == nil {
		n.Close()
		t.Fatal("a node of 2 opened with 1 peer URL")
	}
	if !strings.Contains(err.Error(), "1 peer URLs for 2 nodes") {
		t.Fatalf("open with a short peer table: %v", err)
	}
}

// TestDefaultRequestDeadline: a request that carries no deadline runs under the
// node's Store.Deadline — on a primary, and on a replica once it is promoted. A
// submission that finds its partition's queue full gives up when that deadline
// passes, answered 504, instead of waiting for the queue as long as it stays
// full; and the engine's own plane is armed too, so the holds that waited past
// the deadline in the queue expire there instead of running.
func TestDefaultRequestDeadline(t *testing.T) {
	const d = 200 * time.Millisecond
	// holdConfig is a one-partition node whose "hold" blocks its executor
	// until expires returns.
	holdConfig := func(t *testing.T) (node.Config, chan struct{}, chan struct{}) {
		running, release := make(chan struct{}, 8), make(chan struct{})
		cfg := kvConfig(t)
		cfg.Store = store.Config{MaxMachines: 1, PartitionsPerMachine: 1, Buckets: 64, QueueCapacity: 1, InitialMachines: 1,
			Deadline: d}
		cfg.Register = func(eng *store.Engine) error {
			if err := eng.Register("hold", store.Proc(func(*store.Tx, store.NoArgs) (any, error) {
				running <- struct{}{}
				<-release
				return nil, nil
			})); err != nil {
				return err
			}
			return registerKV(eng)
		}
		return cfg, running, release
	}
	// expires saturates n's one partition — one hold runs, one fills the queue,
	// the rest wait for room — and posts a put that carries no deadline. Once
	// released, the queued holds must expire in the queue.
	expires := func(t *testing.T, n *node.Node, running, release chan struct{}) {
		t.Helper()
		defer func() {
			close(release)
			for deadline := time.Now().Add(10 * time.Second); n.Engine.Counters().DeadlineExceeded == 0; {
				if time.Now().After(deadline) {
					t.Fatalf("no queued hold expired in the queue: %+v", n.Engine.Counters())
				}
				time.Sleep(time.Millisecond)
			}
		}()
		for i := 0; i < 4; i++ {
			go n.Engine.Execute("hold", fmt.Sprintf("h-%d", i), nil) //nolint:errcheck
		}
		select {
		case <-running:
		case <-time.After(10 * time.Second):
			t.Fatal("no hold started")
		}
		time.Sleep(20 * time.Millisecond) // the other holds fill the queue and park behind it
		hc := &http.Client{Timeout: 10 * d}
		start := time.Now()
		resp, err := hc.Post(n.URL+wire.PathTxn, "application/json", strings.NewReader(`{"txn":"put","key":"k-1","args":1}`))
		if err != nil {
			t.Fatalf("put with no deadline on a saturated node: %v", err)
		}
		defer resp.Body.Close()
		var out wire.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); resp.StatusCode != http.StatusGatewayTimeout || out.Code != wire.CodeDeadline || took < d {
			t.Fatalf("put with no deadline on a saturated node: HTTP %d %q after %v, want %s once %v have passed",
				resp.StatusCode, out.Code, took, wire.CodeDeadline, d)
		}
	}
	t.Run("primary", func(t *testing.T) {
		cfg, running, release := holdConfig(t)
		expires(t, nodetest.Node(t, cfg), running, release)
	})
	t.Run("promoted replica", func(t *testing.T) {
		cfg, running, release := holdConfig(t)
		p := nodetest.Node(t, cfg)
		cfg.Recovery, cfg.ReplicaOf = recovery.Config{DataDir: t.TempDir()}, p.URL
		f := nodetest.Node(t, cfg)
		waitCaughtUp(t, p, f)
		promote(t, f)
		expires(t, f, running, release)
	})
}
