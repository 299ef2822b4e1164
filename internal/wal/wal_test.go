package wal

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func testGeometry() Geometry {
	return Geometry{Buckets: 64, MaxMachines: 4, PartitionsPerMachine: 2}
}

func openTest(t *testing.T, fs FS, segBytes int64) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(Config{Dir: "data", Geometry: testGeometry(), SegmentBytes: segBytes, FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

// slowSync adds latency to every Sync so concurrent appenders pile up behind
// the batch leader — without it MemFS syncs are instantaneous and group commit
// has nothing to batch.
func slowSync(fs *MemFS, delay time.Duration) {
	fs.SetSyncHook(func(string) error {
		time.Sleep(delay)
		return nil
	})
}

// sameRecord reports whether got, a record read back from the log, is want, the
// record that was appended: the same fields, and want's args in their JSON
// encoding (none at all for nil args).
func sameRecord(got, want Record) bool {
	var args any
	if want.Args != nil {
		raw, err := json.Marshal(want.Args)
		if err != nil {
			return false
		}
		args = json.RawMessage(raw)
	}
	want.Args = args
	return reflect.DeepEqual(got, want)
}

// TestNilArgsRoundTrip pins the codec detail everything else leans on: a
// record whose Args interface is nil (most read-only procedures) must
// round-trip as nil, and any other value as its JSON encoding.
func TestNilArgsRoundTrip(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	recs := []Record{
		{Bucket: 1, LSN: 1, Txn: "get", Key: "a", Args: nil},
		{Bucket: 1, LSN: 2, Txn: "put", Key: "a", Args: 42},
		{Bucket: 2, LSN: 1, Txn: "put", Key: "b", Args: "s"},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l2.Close()
	tail := readTails(t, l2)
	got := append(append([]Record{}, tail[1]...), tail[2]...)
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		w := recs[i]
		if !sameRecord(r, w) {
			t.Fatalf("record %d: got %+v want %+v", i, r, w)
		}
	}
	if got[0].Args != nil {
		t.Fatalf("nil args came back as %T %v", got[0].Args, got[0].Args)
	}
	if v, ok := got[1].Args.(json.RawMessage); !ok || string(v) != "42" {
		t.Fatalf("args came back as %T %v, want the JSON 42", got[1].Args, got[1].Args)
	}
}

// TestRoundTripProperty is the WAL round-trip property test: random command
// batches appended with group commit, reopened, and the replay must equal
// the append order exactly — everything Append acknowledged is durable, in
// order, with nothing invented.
func TestRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := NewMemFS(seed)
			// Small segments force rotations mid-run; the sync latency makes
			// appenders share batches.
			slowSync(fs, 200*time.Microsecond)
			l, _ := openTest(t, fs, 4<<10)

			g := testGeometry()
			var mu sync.Mutex
			appended := make(map[int][]Record) // acked records per bucket

			// Buckets shard across workers (like partitions across serial
			// executors), so per-bucket appends stay in LSN order while
			// workers race each other into shared sync batches.
			workers := 8
			perWorker := 50
			plans := make([][]Record, workers)
			heads := make([]uint64, g.Buckets)
			for w := 0; w < workers; w++ {
				for i := 0; i < perWorker; i++ {
					b := w + workers*rng.Intn(g.Buckets/workers)
					heads[b]++
					plans[w] = append(plans[w], Record{
						Bucket: b, LSN: heads[b],
						Txn:  []string{"put", "get", "del"}[rng.Intn(3)],
						Key:  fmt.Sprintf("k%d", rng.Intn(100)),
						Args: map[bool]any{true: rng.Intn(1000), false: nil}[rng.Intn(2) == 0],
					})
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(plan []Record) {
					defer wg.Done()
					for _, r := range plan {
						if err := l.Append(r); err != nil {
							t.Errorf("Append: %v", err)
							return
						}
						mu.Lock()
						appended[r.Bucket] = append(appended[r.Bucket], r)
						mu.Unlock()
					}
				}(plans[w])
			}
			wg.Wait()
			st := l.Stats()
			if st.Appends != int64(workers*perWorker) {
				t.Fatalf("Appends = %d, want %d", st.Appends, workers*perWorker)
			}
			// Group commit must batch: with 8 concurrent appenders, syncs
			// should be well under one per record.
			if st.Syncs >= st.Appends {
				t.Errorf("group commit ineffective: %d syncs for %d appends", st.Syncs, st.Appends)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			l2, rec := openTest(t, fs, 4<<10)
			defer l2.Close()
			tail := readTails(t, l2)
			for b, want := range appended {
				br := rec.Buckets[b]
				if br == nil {
					t.Fatalf("bucket %d: no recovered state, want %d records", b, len(want))
				}
				// Per-bucket LSN order, not global append order: buckets are
				// independent logs multiplexed into shared segments.
				byLSN := append([]Record{}, want...)
				for i := 1; i < len(byLSN); i++ {
					if byLSN[i].LSN < byLSN[i-1].LSN {
						t.Fatalf("bucket %d: test bug, LSNs out of order", b)
					}
				}
				if len(tail[b]) != len(byLSN) {
					t.Fatalf("bucket %d: recovered %d records, want %d", b, len(tail[b]), len(byLSN))
				}
				for i := range byLSN {
					if !sameRecord(tail[b][i], byLSN[i]) {
						t.Fatalf("bucket %d record %d: got %+v want %+v", b, i, tail[b][i], byLSN[i])
					}
				}
			}
			if rec.TornBytes != 0 {
				t.Errorf("clean close recovered TornBytes = %d", rec.TornBytes)
			}
		})
	}
}

// TestPlanRecovery checks plan records survive reopen and that the newest
// one wins over the manifest.
func TestPlanRecovery(t *testing.T) {
	fs := NewMemFS(1)
	l, rec := openTest(t, fs, DefaultSegmentBytes)
	if rec.Existing {
		t.Fatal("fresh dir reported Existing")
	}
	g := testGeometry()
	plan1 := make([]int32, g.Buckets)
	plan2 := make([]int32, g.Buckets)
	for b := range plan2 {
		plan2[b] = int32(b % 4)
	}
	if err := l.LogPlan(plan1, 1); err != nil {
		t.Fatal(err)
	}
	// Checkpoint folds plan1 into the manifest.
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.LogPlan(plan2, 2); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, rec2 := openTest(t, fs, DefaultSegmentBytes)
	defer l2.Close()
	if !rec2.Existing {
		t.Fatal("reopen did not report Existing")
	}
	if rec2.PlanSeq != 2 || rec2.Active != 2 {
		t.Fatalf("recovered PlanSeq=%d Active=%d, want 2/2", rec2.PlanSeq, rec2.Active)
	}
	for b, p := range rec2.Plan {
		if p != plan2[b] {
			t.Fatalf("recovered plan[%d] = %d, want %d", b, p, plan2[b])
		}
	}
}

// TestGeometryMismatchRefusesOpen pins the manifest identity check.
func TestGeometryMismatchRefusesOpen(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	l.Close()
	g := testGeometry()
	g.Buckets++
	if _, _, err := Open(Config{Dir: "data", Geometry: g, FS: fs}); err == nil {
		t.Fatal("Open with mismatched geometry succeeded")
	}
}

// TestCompaction checks that checkpoint images plus a manifest rewrite make
// sealed segments deletable, and that recovery after compaction still sees
// a consistent view.
func TestCompaction(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, 2<<10) // tiny segments: force many rotations
	g := testGeometry()
	heads := make([]uint64, g.Buckets)
	for i := 0; i < 500; i++ {
		b := i % g.Buckets
		heads[b]++
		if err := l.Append(Record{Bucket: b, LSN: heads[b], Txn: "put", Key: "k", Args: i}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Rotations == 0 {
		t.Fatal("test needs rotations; none happened")
	}
	// Checkpoint every bucket at its head: all sealed segments become
	// redundant.
	var round []*Image
	for b := 0; b < g.Buckets; b++ {
		if heads[b] == 0 {
			continue
		}
		round = append(round, &Image{
			Bucket: b, LSN: heads[b], Rows: 1,
			Tables: map[string]map[string]any{"T": {"k": b}},
		})
	}
	if err := l.WriteImages(round); err != nil {
		t.Fatal(err)
	}
	before := l.DiskBytes()
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.CompactedSegments == 0 {
		t.Fatal("checkpoint compacted nothing")
	}
	if after := l.DiskBytes(); after >= before {
		t.Fatalf("DiskBytes %d -> %d; compaction freed nothing", before, after)
	}
	// Append a post-checkpoint record, reopen, and verify exactly the
	// tail beyond each base comes back.
	heads[3]++
	if err := l.Append(Record{Bucket: 3, LSN: heads[3], Txn: "put", Key: "tail", Args: 999}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, rec := openTest(t, fs, 2<<10)
	defer l2.Close()
	br := rec.Buckets[3]
	if br == nil || !hasImage(l2, 3) || br.Base != heads[3]-1 {
		t.Fatalf("bucket 3 recovery: %+v", br)
	}
	if tail := readTails(t, l2)[3]; len(tail) != 1 || tail[0].Key != "tail" {
		t.Fatalf("bucket 3 tail: %+v", tail)
	}
}

// TestLoadTails checks the authoritative disk read returns exactly the
// records beyond each bucket's base.
func TestLoadTails(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l.Close()
	for lsn := uint64(1); lsn <= 10; lsn++ {
		if err := l.Append(Record{Bucket: 5, LSN: lsn, Txn: "put", Key: "k", Args: int(lsn)}); err != nil {
			t.Fatal(err)
		}
	}
	err := l.WriteImages([]*Image{{Bucket: 5, LSN: 6, Rows: 1, Tables: map[string]map[string]any{"T": {"k": 6}}}})
	if err != nil {
		t.Fatal(err)
	}
	tails, err := l.LoadTails([]int{5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tails[9]) != 0 {
		t.Fatalf("bucket 9 tail: %+v", tails[9])
	}
	tail := tails[5]
	if len(tail) != 4 {
		t.Fatalf("bucket 5 tail has %d records, want 4: %+v", len(tail), tail)
	}
	for i, r := range tail {
		if want := uint64(7 + i); r.LSN != want {
			t.Fatalf("tail[%d].LSN = %d, want %d", i, r.LSN, want)
		}
	}
}
