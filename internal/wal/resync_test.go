package wal

import (
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
