package recovery_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pstore/internal/b2w"
	"pstore/internal/hash"
	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/wal"
)

// bootLayout is a B2W engine of a deployed node's shape — 4 machines of 4
// partitions, 640 buckets — hosting the listed machines (nil = all).
func bootLayout(hosted []int) func(*engineConfig) {
	return func(cfg *engineConfig) {
		cfg.store = store.Config{
			MaxMachines: 4, InitialMachines: 2, PartitionsPerMachine: 4,
			Buckets: 640, QueueCapacity: 1 << 10, HostedMachines: hosted,
		}
		cfg.register = b2w.Register
	}
}

var bootSpec = b2w.LoadSpec{Carts: 600, Checkouts: 150, Stocks: 300, LinesPerCart: 3, Seed: 3}

// TestBootstrapMatchesLoggedLoad: Bootstrap's load logs nothing, yet every
// bucket ends with the head and image LSN the logged load plus a checkpoint
// gave it, on a node hosting half the machines, so the commands that follow
// (and a follower synced from the images) number on exactly as before.
func TestBootstrapMatchesLoggedLoad(t *testing.T) {
	hosted := []int{0, 2}
	loggedDir, bootDir := t.TempDir(), t.TempDir()

	logged, lm := newEngine(t, bootLayout(hosted), logTo(recovery.Config{DataDir: loggedDir}))
	if err := b2w.Load(logged, bootSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := lm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	boot, bm := newEngine(t, bootLayout(hosted), logTo(recovery.Config{DataDir: bootDir}))
	images, err := bm.Bootstrap(func() error { return b2w.Load(boot, bootSpec) })
	if err != nil {
		t.Fatal(err)
	}
	if n := bm.WALStats().Appends; n != 0 {
		t.Fatalf("Bootstrap appended %d WAL records, want 0", n)
	}
	if images == 0 || boot.TotalRows() != logged.TotalRows() {
		t.Fatalf("Bootstrap: %d images, %d rows; the logged load has %d rows", images, boot.TotalRows(), logged.TotalRows())
	}
	for b := 0; b < 640; b++ {
		if got, want := bm.LogHead(b), lm.LogHead(b); got != want {
			t.Fatalf("bucket %d: head %d after Bootstrap, %d after the logged load", b, got, want)
		}
	}
	lm.Close()
	bm.Close()

	recovered := func(dir string) *wal.Recovered {
		l, rec, err := wal.Open(wal.Config{Dir: dir, Geometry: wal.Geometry{Buckets: 640, MaxMachines: 4, PartitionsPerMachine: 4}})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		return rec
	}
	want, got := recovered(loggedDir), recovered(bootDir)
	if len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("Bootstrap's directory recovers %d buckets, the logged load's %d", len(got.Buckets), len(want.Buckets))
	}
	for b, w := range want.Buckets {
		g := got.Buckets[b]
		if g == nil || g.Base != w.Base || g.Head != w.Head || g.Head != g.Base {
			t.Fatalf("bucket %d recovers as %+v, the logged load's as base %d head %d", b, g, w.Base, w.Head)
		}
	}
}

// TestBootstrapBatchMatchesExecuteID: on a node hosting machines 0 and 2,
// b2w.Load's batch — one request per hosted partition — and the same dataset
// run one ExecuteID per row leave equal rows, per-bucket heads, access counts
// and counters: inside Bootstrap, unlogged, and as a logged load, which also
// returns only once every one of its records is durable.
func TestBootstrapBatchMatchesExecuteID(t *testing.T) {
	hosted := []int{0, 2}
	for _, logged := range []bool{false, true} {
		t.Run(fmt.Sprintf("logged=%v", logged), func(t *testing.T) {
			batch, bm := newEngine(t, bootLayout(hosted), logTo(recovery.Config{DataDir: "data", FS: wal.NewMemFS(1)}))
			single, sm := newEngine(t, bootLayout(hosted), logTo(recovery.Config{DataDir: "data", FS: wal.NewMemFS(2)}))
			batchLoad := func() error { return b2w.Load(batch, bootSpec) }
			perRow := func() (err error) {
				b2w.Dataset(bootSpec, func(txn, key string, args any) {
					if _, e := single.Execute(txn, key, args); e != nil && !errors.Is(e, store.ErrNotOwned) && err == nil {
						err = e
					}
				})
				return err
			}
			if logged {
				if err := batchLoad(); err != nil {
					t.Fatal(err)
				}
				end, err := bm.ShipEnd()
				if err != nil {
					t.Fatal(err)
				}
				if appended := bm.WALStats().Appends; appended < int64(batch.TotalRows()) || int64(end.Rec) != appended {
					t.Fatalf("the logged load returned with %d of its %d records durable", end.Rec, appended)
				}
				if err := perRow(); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := bm.Bootstrap(batchLoad); err != nil {
					t.Fatal(err)
				}
				if _, err := sm.Bootstrap(perRow); err != nil {
					t.Fatal(err)
				}
				if n := bm.WALStats().Appends; n != 0 {
					t.Fatalf("the batch inside Bootstrap appended %d records", n)
				}
			}

			if batch.TotalRows() == 0 || batch.TotalRows() != single.TotalRows() {
				t.Fatalf("batch loaded %d rows, one ExecuteID per row %d", batch.TotalRows(), single.TotalRows())
			}
			for _, m := range hosted {
				for _, part := range batch.PartitionsOfMachine(m) {
					got, want := bucketState(t, batch, part), bucketState(t, single, part)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("partition %d: the batch left %d buckets, one ExecuteID per row %d, and they differ", part, len(got), len(want))
					}
				}
			}
			for b := 0; b < 640; b++ {
				if got, want := bm.LogHead(b), sm.LogHead(b); got != want {
					t.Fatalf("bucket %d: head %d after the batch, %d after one ExecuteID per row", b, got, want)
				}
			}
			counters := func(e *store.Engine) store.Counters {
				c := e.Counters()
				c.CommitWaitNs, c.HoldOverNs = 0, 0 // clocks, not counts
				return c
			}
			if got, want := counters(batch), counters(single); got != want || got.Completed != int64(batch.TotalRows()) {
				t.Fatalf("counters after the batch %+v, after one ExecuteID per row %+v", got, want)
			}
		})
	}
}

// bucketState snapshots one partition, bucket by bucket.
func bucketState(t *testing.T, e *store.Engine, part int) map[int]store.BucketSnapshot {
	t.Helper()
	snaps, err := e.SnapshotPartition(part)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int]store.BucketSnapshot, len(snaps))
	for _, s := range snaps {
		out[s.Bucket] = s
	}
	return out
}

// TestBootstrapCrashPointSweep kills the filesystem at every write of a
// Bootstrap round. Whatever the kill point, the directory either holds no cold
// state — the load runs again — or cold-starts to the whole dataset; never to
// a prefix of it.
func TestBootstrapCrashPointSweep(t *testing.T) {
	const keys = 1500
	load := func(e *store.Engine) func() error {
		return func() error {
			for i := 0; i < keys; i++ {
				if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
					return err
				}
			}
			return nil
		}
	}

	// A clean run counts the kill points: the load writes nothing, the round
	// one image set and one manifest.
	fs := wal.NewMemFS(1)
	e, m := newEngine(t, roundLayout(fs, 0))
	fs.CrashAfterWrites(0)
	if _, err := m.Bootstrap(load(e)); err != nil {
		t.Fatal(err)
	}
	writes := fs.Writes()
	if writes != 2 {
		t.Fatalf("a Bootstrap round issued %d writes, want 2 (image set, manifest)", writes)
	}

	outcomes := map[string]int{}
	for k := int64(1); k <= writes; k++ {
		fs := wal.NewMemFS(k)
		e, m := newEngine(t, roundLayout(fs, 0))
		fs.CrashAfterWrites(k)
		if _, err := m.Bootstrap(load(e)); err == nil {
			t.Fatalf("kill at write %d: Bootstrap survived its own crash", k)
		}
		e.Stop()
		m.Close()
		fs.Recover()

		e2, m2 := newEngine(t, roundLayout(fs, 0))
		if m2.HasColdState() {
			st, err := m2.ColdStart()
			if err != nil {
				t.Fatalf("kill at write %d: ColdStart: %v", k, err)
			}
			if st.Replayed != 0 {
				t.Fatalf("kill at write %d: cold start replayed %d commands of an unlogged load", k, st.Replayed)
			}
			outcomes["cold start"]++
		} else {
			if _, err := m2.Bootstrap(load(e2)); err != nil {
				t.Fatalf("kill at write %d: reload: %v", k, err)
			}
			outcomes["reload"]++
		}
		if got := e2.TotalRows(); got != keys {
			t.Fatalf("kill at write %d: %d rows after restart, want %d", k, got, keys)
		}
		checkValues(t, e2, keys, func(i int) any { return i })
	}
	if outcomes["cold start"] == 0 || outcomes["reload"] == 0 {
		t.Fatalf("outcomes %v: the sweep should reach both sides of the image set's rename", outcomes)
	}
}

// TestBootstrapImagesEmptyBucket: a bucket the load ran commands in and left
// without rows still gets an image in the load's set — an empty one — so its
// head, the LSN its next command continues from, survives a cold start.
func TestBootstrapImagesEmptyBucket(t *testing.T) {
	fs := wal.NewMemFS(1)
	e, m := newEngine(t, roundLayout(fs, 0))
	const empty, full = "never-written", "k-1"
	if hash.Partition(empty, roundBuckets) == hash.Partition(full, roundBuckets) {
		t.Fatal("the test needs its two keys in different buckets")
	}
	images, err := m.Bootstrap(func() error {
		for i := 0; i < 3; i++ {
			if _, err := e.Execute("get", empty, nil); err != nil { // touches the bucket, writes nothing
				return err
			}
		}
		_, err := e.Execute("put", full, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	b := hash.Partition(empty, roundBuckets)
	if images != 2 || m.LogHead(b) != 3 {
		t.Fatalf("the load made %d images and left bucket %d at head %d; want 2 and 3", images, b, m.LogHead(b))
	}
	e.Stop()
	m.Close()

	_, m2 := newEngine(t, roundLayout(fs, 0))
	if _, err := m2.ColdStart(); err != nil {
		t.Fatal(err)
	}
	if got := m2.LogHead(b); got != 3 {
		t.Fatalf("bucket %d cold-started at head %d, the load left it at 3", b, got)
	}
}
