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
// migrated chunk is a log record — one segment fsync, no set — and a replica's
// baseline install is a whole round of its own: one set fsync plus the
// manifest's.
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

	var chunk []*wal.Image
	for _, b := range e.OwnedBuckets(5)[:7] {
		chunk = append(chunk, &wal.Image{Bucket: b, Tables: map[string]map[string]any{}})
	}
	set, err := wal.EncodeImageSet(nil, chunk)
	if err != nil {
		t.Fatal(err)
	}
	syncs.reset()
	if err := m.LogChunk(5, set); err != nil {
		t.Fatal(err)
	}
	if s, mf, sg := syncs.sets.Load(), syncs.manifests.Load(), syncs.segments.Load(); s != 0 || mf != 0 || sg != 1 {
		t.Fatalf("a chunk of %d buckets: %d set, %d manifest, %d segment fsyncs; want 0, 0, 1", len(chunk), s, mf, sg)
	}
	if names, _ := fs.ReadDir("data/img"); len(names) != 1 {
		t.Fatalf("image sets after a chunk: %v, want the full round's alone", names)
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
	if err := m.InstallReplicaBaseline(snaps, nil); err != nil {
		t.Fatal(err)
	}
	if s, mf := syncs.sets.Load(), syncs.manifests.Load(); s != 1 || mf != 1 || len(snaps) != roundBuckets {
		t.Fatalf("baseline of %d buckets cost %d set, %d manifest fsyncs; want 1, 1", len(snaps), s, mf)
	}
	if names, _ := fs.ReadDir("data/img"); len(names) != 1 {
		t.Fatalf("image sets after a full baseline: %v, want only the newest", names)
	}
}

// TestColdStartDecodesEachSetOnce: recovery reads each image set once per
// operation — a cold start of 16 partitions over two sets reads two sets, not
// one per partition, and a restore of one machine's four partitions reads the
// one set they draw on once — and rebuilds every value.
func TestColdStartDecodesEachSetOnce(t *testing.T) {
	fs := wal.NewMemFS(1)
	e, m, keys := roundEngine(t, fs, 0)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A second round with machine 1 down re-images the rest: machine 1's
	// buckets keep their images in the first set.
	if err := m.Crash(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(1); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.ReadDir("data/img"); len(names) != 2 {
		t.Fatalf("image sets %v, want both rounds'", names)
	}
	e.Stop()
	m.Close()

	e2, m2 := newRoundEngine(t, fs, 0)
	st, err := m2.ColdStart()
	if err != nil {
		t.Fatal(err)
	}
	if st.Partitions != 16 || st.Snapshots != roundBuckets {
		t.Fatalf("cold start rebuilt %d partitions from %d images, want 16 from %d", st.Partitions, st.Snapshots, roundBuckets)
	}
	if got := m2.WALStats().ImageSetDecodes; got != 2 {
		t.Fatalf("cold start of 16 partitions decoded %d image sets, want each of the 2 once", got)
	}
	checkValues(t, e2, keys, func(i int) any { return i })

	if err := m2.Crash(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Restore(1); err != nil {
		t.Fatal(err)
	}
	if got := m2.WALStats().ImageSetDecodes - 2; got != 1 {
		t.Fatalf("restore of machine 1's 4 partitions decoded %d image sets, want the first round's once", got)
	}
	checkValues(t, e2, keys, func(i int) any { return i })
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

	if n, err := m.Checkpoint(); !errors.Is(err, errDiskFull) || n != 0 {
		t.Fatalf("checkpoint over a failing disk returned (%d, %v)", n, err)
	}
	if err := m.InstallReplicaBaseline([]store.BucketSnapshot{{Bucket: 1, LSN: 1}}, nil); !errors.Is(err, errDiskFull) {
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
// where one file per bucket made it 641. bytes/set is the round's image set.
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
	names, err := fs.ReadDir("data/img")
	if err != nil || len(names) != 1 {
		b.Fatalf("image sets after full rounds: %v (%v)", names, err)
	}
	size, err := fs.Size("data/img/" + names[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(size), "bytes/set")
}
