package node_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"pstore/internal/node"
	"pstore/internal/node/nodetest"
	"pstore/internal/recovery"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/transport"
	"pstore/internal/wal"
)

// Migration on a replicated cluster: two nodes — machine m on node m % 2 —
// move chunks between them through transport.Remote while their followers
// take in every chunk as a record of the primary's log.

// pairConfig is the kv workload on two nodes of one machine of parts
// partitions each, every row loaded on node 0, the only active machine.
func pairConfig(parts int) node.Config {
	return node.Config{
		Store:    store.Config{MaxMachines: 2, PartitionsPerMachine: parts, Buckets: 64, QueueCapacity: 1024, InitialMachines: 1},
		Register: registerKV,
		Load: func(eng *store.Engine) error {
			for i := 0; i < keys; i++ {
				if _, err := eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil && !errors.Is(err, store.ErrNotOwned) {
					return err
				}
			}
			return nil
		},
	}
}

func squallConfig() squall.Config {
	return squall.Config{
		ChunkRows: 15, RowCost: time.Microsecond, ChunkOverhead: 20 * time.Microsecond,
		Spacing: 50 * time.Microsecond, RateFactor: 1, MaxChunkRetries: 2,
		RetryBackoff: 50 * time.Microsecond, MaxRetryBackoff: time.Millisecond,
	}
}

// referencePlan is the plan a single-process cluster of the same shape ends
// on after scaling from 1 to 2 machines.
func referencePlan(t *testing.T, parts int) string {
	t.Helper()
	cfg := pairConfig(parts)
	eng, err := store.NewEngine(cfg.Store)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Register(eng); err != nil {
		t.Fatal(err)
	}
	rm := recovery.NewManager(eng)
	eng.Start()
	t.Cleanup(eng.Stop)
	if err := cfg.Load(eng); err != nil {
		t.Fatal(err)
	}
	ex, err := squall.NewExecutor(transport.NewLocal(eng, rm), squallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(eng.Plan())
}

// owner returns the node of nodes that runs key's transactions.
func owner(nodes []*node.Node, key string) *node.Node {
	eng := nodes[0].Engine
	return nodes[eng.MachineOfPartition(eng.PartitionOfKey(key))%len(nodes)]
}

// putAll writes value base+i to every key k-i through the node that owns it.
func putAll(t *testing.T, nodes []*node.Node, base int) {
	t.Helper()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k-%d", i)
		put(t, owner(nodes, k), k, base+i)
	}
}

// checkAll reads every key through the node that owns it: it must hold
// base+i, and the nodes together exactly keys rows.
func checkAll(t *testing.T, nodes []*node.Node, base int) {
	t.Helper()
	rows := 0
	for _, n := range nodes {
		rows += n.Engine.TotalRows()
	}
	if rows != keys {
		t.Fatalf("the nodes hold %d rows, want %d", rows, keys)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k-%d", i)
		if got := get(t, owner(nodes, k), k); got != base+i {
			t.Fatalf("%s = %d, want %d", k, got, base+i)
		}
	}
}

// buckets maps each bucket a node holds rows of to its rows, as a snapshot of
// its partitions sees them — a follower's too, without logging a read there.
func buckets(t *testing.T, n *node.Node) map[int]string {
	t.Helper()
	out := make(map[int]string)
	for _, m := range n.Engine.HostedMachines() {
		for _, part := range n.Engine.PartitionsOfMachine(m) {
			snaps, err := n.Engine.SnapshotPartition(part)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range snaps {
				if s.Rows > 0 {
					out[s.Bucket] = fmt.Sprintf("part %d: %v", part, s.Tables)
				}
			}
		}
	}
	return out
}

// checkFollower waits until follower, still a replica, has applied its
// primary's whole durable log, then compares their rows bucket by bucket.
func checkFollower(t *testing.T, primary, follower *node.Node) {
	t.Helper()
	waitCaughtUp(t, primary, follower)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st, err := peer(follower).ReplStatus(ctx); err != nil || st.Role != "replica" || st.Fenced {
		t.Fatalf("follower status %+v (%v), want an unfenced replica", st, err)
	}
	got, want := buckets(t, follower), buckets(t, primary)
	if len(got) != len(want) {
		t.Fatalf("follower holds rows of %d buckets, its primary of %d", len(got), len(want))
	}
	for b, w := range want {
		if got[b] != w {
			t.Fatalf("bucket %d on the follower: %s; on its primary: %s", b, got[b], w)
		}
	}
}

// TestMigrationKeepsFollowers: scaling 1 -> 2 -> 1 moves chunks between two
// nodes, each with a follower; every chunk is a record of its destination's
// log, so both followers stay replicas, no shipper stops, and after each step
// each follower has applied its primary's log and holds its rows bucket by
// bucket — with and without synchronous commit. The destination of the last
// move is then killed and its follower promoted: every row the move brought
// is there.
func TestMigrationKeepsFollowers(t *testing.T) {
	for _, syncCommit := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync-commit=%v", syncCommit), func(t *testing.T) {
			nodes, remote := nodetest.Start(t, 2, pairConfig(2), func(i int, cfg *node.Config) {
				cfg.Recovery = recovery.Config{DataDir: t.TempDir()}
				cfg.SyncCommit = syncCommit
			})
			followers := make([]*node.Node, len(nodes))
			for i, p := range nodes {
				cfg := pairConfig(2)
				cfg.ID, cfg.Nodes, cfg.ReplicaOf = i, len(nodes), p.URL
				cfg.Recovery = recovery.Config{DataDir: t.TempDir()}
				followers[i] = startNode(t, cfg)
				waitCaughtUp(t, p, followers[i])
			}
			ex, err := squall.NewExecutor(remote, squallConfig())
			if err != nil {
				t.Fatal(err)
			}
			for step, target := range []int{2, 1} {
				if err := ex.Reconfigure(remote.ActiveMachines(), target, 0); err != nil {
					t.Fatalf("scaling to %d: %v", target, err)
				}
				if n := nodes[1].Engine.TotalRows(); (target == 2) != (n > 0) {
					t.Fatalf("node 1 holds %d rows on %d machines", n, target)
				}
				putAll(t, nodes, 1000*(step+1))
				checkAll(t, nodes, 1000*(step+1))
				for i := range nodes {
					checkFollower(t, nodes[i], followers[i])
				}
			}

			nodes[0].Close()
			promote(t, followers[0])
			checkAll(t, []*node.Node{followers[0], nodes[1]}, 2000)
		})
	}
}

// crashOnFlip arms a crash of the destination's disk when the first chunk
// for it leaves its source: the destination's next write — the chunk record
// — goes through, and the one after it, the flip's plan record, kills the
// disk part-way. It takes one stream of chunks at a time.
type crashOnFlip struct {
	fs      *wal.MemFS
	buckets []int
}

func (c *crashOnFlip) BeforeMove(op store.MoveOp) error {
	if c.buckets == nil && !op.Rollback {
		c.buckets = append([]int(nil), op.Buckets...)
		c.fs.CrashAfterWrites(2)
	}
	return nil
}

// TestKillDestinationBeforeFlip: the destination of a scale-out dies after
// the first chunk's record is durable and before its flip is. The source
// gets the chunk back and the reconfiguration rolls back; the destination
// restarts from its data directory, cold-starts the chunk record into its
// buckets' log heads without taking the buckets — the flip never became
// durable — and the retried scale-out lands on the single-process plan with
// every row once. One partition a machine makes the move one stream of
// chunks, so the chunk that meets the crash is the first one sent.
func TestKillDestinationBeforeFlip(t *testing.T) {
	want := referencePlan(t, 1)
	fss := []*wal.MemFS{wal.NewMemFS(1), wal.NewMemFS(2)}
	cfgs := make([]node.Config, 2)
	nodes, remote := nodetest.Start(t, 2, pairConfig(1), func(i int, cfg *node.Config) {
		cfg.Recovery = recovery.Config{DataDir: "data", FS: fss[i]}
		cfgs[i] = *cfg
	})
	crash := &crashOnFlip{fs: fss[1]}
	remote.SetFaultInjector(crash)
	ex, err := squall.NewExecutor(remote, squallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var me *squall.MoveError
	if err := ex.Reconfigure(1, 2, 0); !errors.As(err, &me) || !me.RolledBack {
		t.Fatalf("scale-out onto a destination that died mid-install: %v, want a rolled-back move", err)
	}
	if !fss[1].Crashed() || crash.buckets == nil {
		t.Fatal("the destination's disk never crashed")
	}

	addr := nodes[1].URL[len("http://"):]
	nodes[1].Close()
	fss[1].Recover()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nodes[1], err = node.Start(cfgs[1], l)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nodes[1].Close() })
	for _, b := range crash.buckets {
		if nodes[1].Recovery.LogHead(b) == 0 {
			t.Fatalf("bucket %d's chunk record did not survive the kill", b)
		}
		if own := nodes[1].Engine.OwnerOf(b); own != nodes[0].Engine.OwnerOf(b) || own != 0 {
			t.Fatalf("bucket %d cold-started owned by partition %d, its source's by %d: the flip was not durable", b, own, nodes[0].Engine.OwnerOf(b))
		}
	}
	if n := nodes[1].Engine.TotalRows(); n != 0 {
		t.Fatalf("the restarted destination holds %d rows of buckets it does not own", n)
	}
	checkAll(t, nodes, 0)

	remote.SetFaultInjector(nil)
	if err := ex.Reconfigure(1, 2, 0); err != nil {
		t.Fatalf("retried scale-out: %v", err)
	}
	if got := fmt.Sprint(remote.Plan()); got != want {
		t.Fatalf("retried scale-out ended on\n%s\nthe single-process one on\n%s", got, want)
	}
	checkAll(t, nodes, 0)
}

// TestKillSourceAfterFlip: the source of a cross-node move dies right after
// the move — its flip logged and, under synchronous commit, acknowledged by
// its follower — and the follower is promoted. No row is lost or doubled: the
// moved buckets are the destination's, the rest the promoted follower's.
func TestKillSourceAfterFlip(t *testing.T) {
	nodes, remote := nodetest.Start(t, 2, pairConfig(2), func(i int, cfg *node.Config) {
		cfg.Recovery = recovery.Config{DataDir: t.TempDir()}
		cfg.SyncCommit = true
	})
	cfg := pairConfig(2)
	cfg.Nodes, cfg.ReplicaOf = 2, nodes[0].URL
	cfg.Recovery = recovery.Config{DataDir: t.TempDir()}
	f0 := startNode(t, cfg)
	waitCaughtUp(t, nodes[0], f0)

	moved := nodes[0].Engine.OwnedBuckets(0)[:5]
	if _, err := remote.MoveBuckets(moved, 0, 2, 0, 0); err != nil {
		t.Fatal(err)
	}
	nodes[0].Close()
	promote(t, f0)
	for _, b := range moved {
		if own := f0.Engine.OwnerOf(b); own != 2 {
			t.Fatalf("moved bucket %d is partition %d's on the promoted follower, want 2", b, own)
		}
	}
	checkAll(t, []*node.Node{f0, nodes[1]}, 0)
}
