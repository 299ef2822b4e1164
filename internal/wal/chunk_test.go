package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// chunkSet encodes a chunk's image set: one frame per bucket, in order, the
// bucket's rows values of val(i) under keys r-0, r-1, …, its frame stamped
// with lsns[i].
func chunkSet(t *testing.T, buckets []int, lsns []uint64, rows int, val func(i int) any) []byte {
	t.Helper()
	imgs := make([]*Image, len(buckets))
	for i, b := range buckets {
		tab := make(map[string]any, rows)
		for r := 0; r < rows; r++ {
			tab[fmt.Sprintf("r-%d", r)] = val(r)
		}
		imgs[i] = &Image{Bucket: b, LSN: lsns[i], Rows: rows, Tables: map[string]map[string]any{"kv": tab}}
	}
	set, err := EncodeImageSet(nil, imgs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestChunkRecordRecovers: a chunk is one record of its partition and image
// set, and everything that reads the log back hands it out bucket by bucket at
// the LSN its frame carries — the recovered heads and tails, and LoadTails —
// in log order with the commands around it; an empty bucket's frame too.
func TestChunkRecordRecovers(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	if err := l.Append(Record{Bucket: 3, LSN: 1, Txn: "put", Key: "a", Args: 1}); err != nil {
		t.Fatal(err)
	}
	set := chunkSet(t, []int{3, 5}, []uint64{2, 7}, 4, func(i int) any { return i })
	empty := chunkSet(t, []int{5}, []uint64{8}, 0, nil)
	for _, s := range [][]byte{set, empty} {
		ticket, err := l.EnqueueChunk(6, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Wait(ticket); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(Record{Bucket: 3, LSN: 3, Txn: "put", Key: "a", Args: 2}); err != nil {
		t.Fatal(err)
	}
	live := readTails(t, l)
	l.Close()

	l, rec := openTest(t, fs, DefaultSegmentBytes)
	defer l.Close()
	recovered := readTails(t, l)
	check := func(from string, b int, recs []Record, head uint64, want []string) {
		t.Helper()
		if br := rec.Buckets[b]; br == nil || br.Head != head {
			t.Fatalf("bucket %d recovered %+v, want head %d", b, br, head)
		}
		var got []string
		for _, r := range recs {
			if !r.IsChunk() {
				got = append(got, fmt.Sprintf("%s@%d", r.Txn, r.LSN))
				continue
			}
			imgs, err := DecodeImages(r.Images)
			if err != nil || len(imgs) != 1 || imgs[0].Bucket != b || imgs[0].LSN != r.LSN || r.Bucket != b || r.Part != 6 {
				t.Fatalf("%s: bucket %d's chunk record %+v holds %v (%v), want its own frame alone", from, b, r, imgs, err)
			}
			got = append(got, fmt.Sprintf("chunk@%d/%d", r.LSN, imgs[0].Rows))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: bucket %d holds %v, want %v", from, b, got, want)
		}
	}
	for _, from := range []string{"reopened", "live"} {
		recs3, recs5 := recovered[3], recovered[5]
		if from == "live" {
			recs3, recs5 = live[3], live[5]
		}
		check(from, 3, recs3, 3, []string{"put@1", "chunk@2/4", "put@3"})
		check(from, 5, recs5, 8, []string{"chunk@7/4", "chunk@8/0"})
	}
}

// TestChunkCutAtRecordLimit: a chunk larger than one record is cut at frame
// boundaries into records that each fit a ship batch, and they ship as the
// whole chunk, in order. A bucket whose frame alone is over the limit refuses
// the chunk before anything is logged.
func TestChunkCutAtRecordLimit(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l.Close()
	big := func(int) any { return strings.Repeat("x", 10<<10) }
	buckets := []int{0, 1, 2, 3, 4, 5}
	set := chunkSet(t, buckets, []uint64{1, 1, 1, 1, 1, 1}, 30, big) // ≈ 300 KiB a bucket
	ticket, err := l.EnqueueChunk(1, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(ticket); err != nil {
		t.Fatal(err)
	}
	var shipped []byte
	records := 0
	for cur := (ShipCursor{}); ; {
		frames, next, _, err := l.ReadShip(cur, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) == 0 {
			break
		}
		for _, f := range frames {
			r, _, err := DecodeRecord(f)
			if err != nil || !r.IsChunk() || r.Part != 1 || len(f) > MaxShipBytes {
				t.Fatalf("shipped record %+v of %d bytes (%v), want a chunk of partition 1 that fits a batch", r, len(f), err)
			}
			shipped = append(shipped, r.Images...)
			records++
		}
		cur = next
	}
	if records < 2 || string(shipped) != string(set) {
		t.Fatalf("a %d-byte chunk shipped as %d records of %d bytes in all, want it cut into several that add up to it", len(set), records, len(shipped))
	}

	appends := l.Stats().Appends
	huge := chunkSet(t, []int{7, 8}, []uint64{1, 1}, 110, big) // bucket 7 alone ≈ 1.1 MiB
	if _, err := l.EnqueueChunk(1, huge); !errors.Is(err, ErrRecordRefused) {
		t.Fatalf("a chunk with a bucket over the record limit: %v, want ErrRecordRefused", err)
	}
	if got := l.Stats().Appends; got != appends {
		t.Fatalf("the refused chunk logged %d records", got-appends)
	}
}

// TestSegmentBoundUnderHeldSyncs: a segment rotates at the first record
// boundary past SegmentBytes even while appends keep arriving during held
// fsyncs, so no sealed segment is larger than the threshold plus one record.
// Rotating only with nothing buffered and no sync in flight let a busy log's
// segment grow without bound.
func TestSegmentBoundUnderHeldSyncs(t *testing.T) {
	const segBytes, writers, perWriter = 16 << 10, 8, 60
	fs := NewMemFS(1)
	fs.SetSyncHook(func(name string) error {
		if strings.Contains(name, "seg-") {
			time.Sleep(2 * time.Millisecond) // appends pile up behind the held fsync
		}
		return nil
	})
	l, _ := openTest(t, fs, segBytes)
	val := strings.Repeat("v", 900)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for lsn := uint64(1); lsn <= perWriter; lsn++ {
				if err := l.Append(Record{Bucket: b, LSN: lsn, Txn: "put", Key: "k", Args: val}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	frame, err := appendRecord(nil, &Record{Bucket: writers - 1, LSN: perWriter, Txn: "put", Key: "k", Args: val})
	if err != nil {
		t.Fatal(err)
	}
	sealed := l.segs
	if len(sealed) < 5 {
		t.Fatalf("%d sealed segments; the test needs the log to rotate under load", len(sealed))
	}
	for _, s := range sealed {
		size, err := fs.Size(filepath.Join("data", s.name))
		if err != nil {
			t.Fatal(err)
		}
		if size > segBytes+int64(len(frame)) {
			t.Fatalf("sealed segment %s holds %d bytes, bound is %d + one %d-byte record", s.name, size, segBytes, len(frame))
		}
	}
	l.Close()
}
