package wal

import (
	"errors"
	"testing"
	"time"
)

// appendN appends n command records to the bucket, continuing its LSN
// sequence from *lsn.
func appendN(t *testing.T, l *Log, bucket int, lsn *uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		*lsn++
		if err := l.Append(Record{Bucket: bucket, LSN: *lsn, Txn: "put", Key: "k", Args: int(*lsn)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

// shipTo consumes n records from the start of the retained log and returns
// the cursor after them.
func shipTo(t *testing.T, l *Log, n int) ShipCursor {
	t.Helper()
	recs, cur, _, err := l.ReadShip(ShipCursor{}, n)
	if err != nil {
		t.Fatalf("ReadShip: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("ReadShip returned %d records, want %d", len(recs), n)
	}
	return cur
}

func TestTruncateToMidSegment(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, 512) // small segments force rotations
	var lsn uint64
	appendN(t, l, 3, &lsn, 40)
	cur := shipTo(t, l, 25) // divergence point: records 26..40 are unshipped

	res, err := l.TruncateTo(cur)
	if err != nil {
		t.Fatalf("TruncateTo: %v", err)
	}
	if res.DiscardedRecords != 15 {
		t.Fatalf("discarded %d records, want 15", res.DiscardedRecords)
	}
	if head, ok := res.Heads[3]; !ok || head != 25 {
		t.Fatalf("new head for bucket 3 = %d (present %v), want 25", head, ok)
	}
	tails, err := l.LoadTails([]int{3})
	if err != nil {
		t.Fatalf("LoadTails: %v", err)
	}
	if got := len(tails[3]); got != 25 {
		t.Fatalf("retained tail holds %d records, want 25", got)
	}
	for i, r := range tails[3] {
		if r.LSN != uint64(i+1) {
			t.Fatalf("tail record %d has lsn %d", i, r.LSN)
		}
	}
	// Shipping from the divergence cursor finds nothing until new appends.
	if recs, _, _, err := l.ReadShip(cur, 10); err != nil || len(recs) != 0 {
		t.Fatalf("ReadShip after truncation: %d records, err %v", len(recs), err)
	}
	// The log accepts appends continuing the truncated sequence.
	lsn = 25
	appendN(t, l, 3, &lsn, 5)
	if recs, _, _, err := l.ReadShip(cur, 10); err != nil || len(recs) != 5 {
		t.Fatalf("ReadShip of post-truncation appends: %d records, err %v", len(recs), err)
	}

	// A reopen must decode the truncated layout cleanly and see exactly the
	// retained history.
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec := openTest(t, fs, 512)
	defer l2.Close()
	br := rec.Buckets[3]
	if br == nil || br.Head != 30 || len(readTails(t, l2)[3]) != 30 {
		t.Fatalf("reopen recovered %+v, want head 30 with 30 tail records", br)
	}
}

func TestTruncateToZeroCursor(t *testing.T) {
	l, _ := openTest(t, NewMemFS(1), 512)
	defer l.Close()
	var lsn uint64
	appendN(t, l, 0, &lsn, 10)
	res, err := l.TruncateTo(ShipCursor{})
	if err != nil {
		t.Fatalf("TruncateTo zero: %v", err)
	}
	if res.DiscardedRecords != 10 || res.Heads[0] != 0 {
		t.Fatalf("zero-cursor truncation: %+v", res)
	}
	tails, err := l.LoadTails([]int{0})
	if err != nil || len(tails[0]) != 0 {
		t.Fatalf("retained tail %d records, err %v", len(tails[0]), err)
	}
}

func TestTruncateToRefusals(t *testing.T) {
	// An image whose LSN reaches into the discarded suffix forces a resync.
	l, _ := openTest(t, NewMemFS(1), DefaultSegmentBytes)
	var lsn uint64
	appendN(t, l, 2, &lsn, 20)
	cur := shipTo(t, l, 10)
	if err := l.WriteImages([]*Image{{Bucket: 2, LSN: 15}}); err != nil {
		t.Fatalf("WriteImages: %v", err)
	}
	if _, err := l.TruncateTo(cur); !errors.Is(err, ErrNeedResync) {
		t.Fatalf("image beyond cursor: err %v, want ErrNeedResync", err)
	}
	l.Close()

	// A plan record in the suffix forces a resync too: the manifest and the
	// in-memory plan would disagree with the truncated log.
	l2, _ := openTest(t, NewMemFS(2), DefaultSegmentBytes)
	lsn = 0
	appendN(t, l2, 1, &lsn, 5)
	cur = shipTo(t, l2, 5)
	plan := make([]int32, testGeometry().Buckets)
	if err := l2.LogPlan(plan, 2); err != nil {
		t.Fatalf("LogPlan: %v", err)
	}
	if _, err := l2.TruncateTo(cur); !errors.Is(err, ErrNeedResync) {
		t.Fatalf("plan record in suffix: err %v, want ErrNeedResync", err)
	}
	l2.Close()

	// A cursor below retention (its segment compacted) forces a resync.
	l3, _ := openTest(t, NewMemFS(3), 256)
	lsn = 0
	appendN(t, l3, 4, &lsn, 30)
	cur = shipTo(t, l3, 5)
	if err := l3.WriteImages([]*Image{{Bucket: 4, LSN: 30}}); err != nil {
		t.Fatalf("WriteImages: %v", err)
	}
	if err := l3.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := l3.TruncateTo(cur); !errors.Is(err, ErrNeedResync) {
		t.Fatalf("cursor below retention: err %v, want ErrNeedResync", err)
	}
	l3.Close()
}

func TestSyncCommitBarrier(t *testing.T) {
	l, _ := openTest(t, NewMemFS(1), DefaultSegmentBytes)
	defer l.Close()
	l.SetSyncCommit(true)

	done := make(chan error, 1)
	go func() {
		done <- l.Append(Record{Bucket: 1, LSN: 1, Txn: "put", Key: "k"})
	}()
	select {
	case err := <-done:
		t.Fatalf("append returned %v before the remote ack", err)
	case <-time.After(50 * time.Millisecond):
	}
	// The record is locally durable while its submitter waits.
	if end := l.ShipEnd(); end.Rec != 1 {
		t.Fatalf("durable end %+v, want 1 record", end)
	}
	l.SetRemoteAck(l.ShipEnd())
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("acked append failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("append still blocked after the remote ack")
	}

	// Disarming releases waiters without an ack.
	go func() {
		done <- l.Append(Record{Bucket: 1, LSN: 2, Txn: "put", Key: "k"})
	}()
	select {
	case err := <-done:
		t.Fatalf("append returned %v before disarm", err)
	case <-time.After(50 * time.Millisecond):
	}
	l.SetSyncCommit(false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append after disarm failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("append still blocked after disarm")
	}
}

func TestSyncCommitStaleLifeAckCoversNothing(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	var lsn uint64
	appendN(t, l, 0, &lsn, 3)
	old := l.ShipEnd()
	l.Close()

	// A new life: an ack cursor into the previous life's segments must not
	// release records appended in this one.
	l2, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l2.Close()
	l2.SetSyncCommit(true)
	done := make(chan error, 1)
	go func() {
		done <- l2.Append(Record{Bucket: 0, LSN: 4, Txn: "put", Key: "k"})
	}()
	l2.SetRemoteAck(old)
	select {
	case err := <-done:
		t.Fatalf("append released (%v) by a previous life's ack", err)
	case <-time.After(100 * time.Millisecond):
	}
	l2.SetRemoteAck(l2.ShipEnd())
	if err := <-done; err != nil {
		t.Fatalf("append: %v", err)
	}
}

func TestReset(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, 512)
	var lsn uint64
	appendN(t, l, 5, &lsn, 30)
	if err := l.WriteImages([]*Image{{Bucket: 5, LSN: 10}}); err != nil {
		t.Fatalf("WriteImages: %v", err)
	}
	if err := l.SetEpoch(7); err != nil {
		t.Fatalf("SetEpoch: %v", err)
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if l.DiskBytes() != 0 {
		t.Fatalf("DiskBytes %d after reset", l.DiskBytes())
	}
	tails, err := l.LoadTails([]int{5})
	if err != nil || len(tails[5]) != 0 {
		t.Fatalf("tails after reset: %d records, err %v", len(tails[5]), err)
	}
	if imgs, err := l.LoadImages([]int{5}); len(imgs) != 0 || err != nil {
		t.Fatalf("image survived reset (%v, err %v)", imgs, err)
	}
	if sets, _ := fs.ReadDir("data/img"); len(sets) != 0 {
		t.Fatalf("image sets %v survived reset", sets)
	}
	// Identity survives: the epoch is still fenced after a reopen.
	lsn = 0
	appendN(t, l, 5, &lsn, 2)
	l.Close()
	l2, rec := openTest(t, fs, 512)
	defer l2.Close()
	if l2.Epoch() != 7 {
		t.Fatalf("epoch %d after reset+reopen, want 7", l2.Epoch())
	}
	if br := rec.Buckets[5]; br == nil || hasImage(l2, 5) || br.Head != 2 || len(readTails(t, l2)[5]) != 2 {
		t.Fatalf("post-reset appends recovered as %+v", br)
	}
}
