package recovery_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/hash"
	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/store/storetest"
	"pstore/internal/wal"
)

// roundBuckets is the deployed node geometry's bucket count: the size of the
// checkpoint round the counted tests and the benchmark below are about.
const roundBuckets = 640

// newRoundEngine builds and starts a 4×4-partition, 640-bucket engine over a
// MemFS-backed durable store.
func newRoundEngine(tb testing.TB, fs *wal.MemFS, segBytes int64) (*store.Engine, *recovery.Manager) {
	tb.Helper()
	e, err := store.NewEngine(store.Config{
		MaxMachines: 4, InitialMachines: 4, PartitionsPerMachine: 4,
		Buckets: roundBuckets, QueueCapacity: 1 << 10,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Register("put", func(tx *store.Tx) (any, error) {
		return nil, tx.Put("T", tx.Key, tx.Args)
	}); err != nil {
		tb.Fatal(err)
	}
	if err := e.Register("get", func(tx *store.Tx) (any, error) {
		v, _, err := tx.Get("T", tx.Key)
		return v, err
	}); err != nil {
		tb.Fatal(err)
	}
	if err := e.SetArgsDecoder(storetest.Args[int]); err != nil {
		tb.Fatal(err)
	}
	m, err := recovery.New(e, recovery.Config{DataDir: "data", FS: fs, SegmentBytes: segBytes})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	e.Start()
	tb.Cleanup(e.Stop)
	return e, m
}

// roundEngine is newRoundEngine loaded until every bucket holds a row; it
// also returns how many keys that took (k-0 … k-(keys-1), value = index).
func roundEngine(tb testing.TB, fs *wal.MemFS, segBytes int64) (*store.Engine, *recovery.Manager, int) {
	tb.Helper()
	e, m := newRoundEngine(tb, fs, segBytes)
	seen := make(map[int]bool)
	keys := 0
	for ; len(seen) < roundBuckets; keys++ {
		k := fmt.Sprintf("k-%d", keys)
		if _, err := e.Execute("put", k, keys); err != nil {
			tb.Fatalf("loading %s: %v", k, err)
		}
		seen[hash.Partition(k, roundBuckets)] = true
	}
	return e, m, keys
}

// imageSyncs counts fsyncs by the kind of file they hit and can fail the image
// sets' — the one place a checkpoint round touches the disk for its images.
type imageSyncs struct {
	sets, manifests, segments atomic.Int64
	failSets                  atomic.Bool
	delay                     time.Duration
}

var errDiskFull = errors.New("disk full")

func (c *imageSyncs) hook(name string) error {
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	switch {
	case strings.Contains(name, "set-"):
		if c.failSets.Load() {
			return errDiskFull
		}
		c.sets.Add(1)
	case strings.Contains(name, "MANIFEST"):
		c.manifests.Add(1)
	default:
		c.segments.Add(1)
	}
	return nil
}

func (c *imageSyncs) reset() {
	c.sets.Store(0)
	c.manifests.Store(0)
	c.segments.Store(0)
}

// TestCheckpointRoundCostsOneImageSync is the counted proof behind image sets:
// a full round over 640 buckets is one set fsync plus the manifest's, a
// migrated chunk's re-baseline is one set fsync for exactly the chunk's
// buckets, and a replica's baseline install is a whole round of its own: one
// set fsync plus the manifest's.
func TestCheckpointRoundCostsOneImageSync(t *testing.T) {
	fs := wal.NewMemFS(1)
	e, m, _ := roundEngine(t, fs, 0)
	syncs := &imageSyncs{}
	fs.SetSyncHook(syncs.hook)

	n, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if n != roundBuckets {
		t.Fatalf("full round installed %d images, want %d", n, roundBuckets)
	}
	if s, mf, sg := syncs.sets.Load(), syncs.manifests.Load(), syncs.segments.Load(); s != 1 || mf != 1 || sg != 0 {
		t.Fatalf("full round over %d buckets: %d set, %d manifest, %d segment fsyncs; want 1, 1, 0", roundBuckets, s, mf, sg)
	}

	// A chunk's buckets, one of them empty here: each gets an image, nothing
	// else in the partition does.
	part := 5
	chunk := e.OwnedBuckets(part)[:7]
	syncs.reset()
	n, err = m.CheckpointPartition(part, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(chunk) {
		t.Fatalf("chunk of %d buckets installed %d images", len(chunk), n)
	}
	if s, mf := syncs.sets.Load(), syncs.manifests.Load(); s != 1 || mf != 0 {
		t.Fatalf("chunk re-baseline: %d set, %d manifest fsyncs; want 1, 0", s, mf)
	}
	if names, _ := fs.ReadDir("data/img"); len(names) != 2 {
		t.Fatalf("image sets after a partial round: %v, want the full round's and the chunk's", names)
	}

	var snaps []store.BucketSnapshot
	for p := 0; p < 16; p++ {
		ps, err := e.SnapshotPartition(p)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, ps...)
	}
	syncs.reset()
	if err := m.InstallReplicaBaseline(snaps); err != nil {
		t.Fatal(err)
	}
	if s, mf := syncs.sets.Load(), syncs.manifests.Load(); s != 1 || mf != 1 || len(snaps) != roundBuckets {
		t.Fatalf("baseline of %d buckets cost %d set, %d manifest fsyncs; want 1, 1", len(snaps), s, mf)
	}
	if names, _ := fs.ReadDir("data/img"); len(names) != 1 {
		t.Fatalf("image sets after a full baseline: %v, want only the newest", names)
	}
}

// TestImageWriteFailureStopsTheRound: a round whose image set cannot be made
// durable is reported, not swallowed — no base is raised (the log keeps every
// record), the manifest is not rewritten, no segment is compacted, no
// checkpoint is counted, the failure latches — and the directory it leaves
// still cold-starts to every acknowledged write.
func TestImageWriteFailureStopsTheRound(t *testing.T) {
	fs := wal.NewMemFS(1)
	e, m, keys := roundEngine(t, fs, 4<<10) // small segments: there is something to compact
	syncs := &imageSyncs{}
	fs.SetSyncHook(syncs.hook)
	syncs.failSets.Store(true)
	before, walBefore, sizeBefore := m.Stats(), m.WALStats(), m.LogSize()
	if walBefore.Rotations == 0 {
		t.Fatal("test needs sealed segments; none rotated")
	}

	if _, err := m.CheckpointPartition(3, e.OwnedBuckets(3)[:4]); !errors.Is(err, errDiskFull) {
		t.Fatalf("chunk re-baseline over a failing disk returned %v", err)
	}
	if got := m.BaselineSeq(); got != 0 {
		t.Fatalf("a failed install still bumped the baseline to %d", got)
	}
	if n, err := m.Checkpoint(); !errors.Is(err, errDiskFull) || n != 0 {
		t.Fatalf("checkpoint over a failing disk returned (%d, %v)", n, err)
	}
	if err := m.InstallReplicaBaseline([]store.BucketSnapshot{{Bucket: 1, LSN: 1}}); !errors.Is(err, errDiskFull) {
		t.Fatalf("baseline install over a failing disk returned %v", err)
	}
	if !errors.Is(m.Err(), errDiskFull) {
		t.Fatalf("image write failure did not latch: Err() = %v", m.Err())
	}
	if got := m.Stats().Checkpoints; got != before.Checkpoints {
		t.Fatalf("failed round counted as checkpoint %d", got)
	}
	if got := syncs.manifests.Load(); got != 0 {
		t.Fatalf("failed round still rewrote the manifest (%d fsyncs)", got)
	}
	if got := m.WALStats().CompactedSegments; got != walBefore.CompactedSegments {
		t.Fatalf("failed round compacted %d segments", got-walBefore.CompactedSegments)
	}
	if got := m.LogSize(); got != sizeBefore {
		t.Fatalf("failed round released records: LogSize %d -> %d", sizeBefore, got)
	}
	names, _ := fs.ReadDir("data/img")
	for _, n := range names {
		if !strings.HasSuffix(n, ".tmp") { // the next open sweeps temp files
			t.Fatalf("failed rounds left image set %s behind", n)
		}
	}
	e.Stop()
	m.Close()

	fs.SetSyncHook(nil)
	e2, m2 := newRoundEngine(t, fs, 0)
	st, err := m2.ColdStart()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshots != 0 || st.Replayed != keys {
		t.Fatalf("cold start after failed rounds: %d images, %d replayed; want 0 and all %d loads", st.Snapshots, st.Replayed, keys)
	}
	checkValues(t, e2, keys, func(i int) any { return i })
}

// BenchmarkCheckpointRound times one full checkpoint round of the deployed
// geometry — 640 buckets — over a disk whose every fsync takes 1 ms. The
// round's cost is its fsyncs: syncs/round is 2 (one image set, one manifest)
// where one file per bucket made it 641.
func BenchmarkCheckpointRound(b *testing.B) {
	fs := wal.NewMemFS(1)
	_, m, _ := roundEngine(b, fs, 0)
	syncs := &imageSyncs{delay: time.Millisecond}
	fs.SetSyncHook(syncs.hook)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := m.Checkpoint()
		if err != nil || n != roundBuckets {
			b.Fatalf("round installed %d images: %v", n, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(syncs.sets.Load()+syncs.manifests.Load()+syncs.segments.Load())/float64(b.N), "syncs/round")
}
