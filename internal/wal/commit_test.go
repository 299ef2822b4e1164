package wal

import (
	"errors"
	"strings"
	"testing"
)

// syncGate holds every segment fsync open until released: entered reports
// each Sync as it arrives, and the Sync returns once release yields (or is
// closed).
type syncGate struct {
	entered chan struct{}
	release chan struct{}
}

func gateSegmentSyncs(fs *MemFS) *syncGate {
	g := &syncGate{entered: make(chan struct{}, 64), release: make(chan struct{})}
	fs.SetSyncHook(func(name string) error {
		if !strings.Contains(name, "seg-") {
			return nil // manifest and image writes are not the commit path
		}
		g.entered <- struct{}{}
		<-g.release
		return nil
	})
	return g
}

// TestCommitTicketsShareOneSync pins the split the partition pipeline rests
// on: Enqueue fixes a record's place in the log without any I/O, nothing is
// durable until someone waits, one wait syncs everything enqueued before it,
// and waits on earlier tickets then return without another fsync.
func TestCommitTicketsShareOneSync(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l.Close()
	gate := gateSegmentSyncs(fs)

	var tickets []uint64
	for i := 1; i <= 5; i++ {
		seq, err := l.Enqueue(Record{Bucket: 3, LSN: uint64(i), Txn: "put", Key: "k", Args: i})
		if err != nil {
			t.Fatalf("Enqueue %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("ticket %d for record %d: tickets must number records in enqueue order", seq, i)
		}
		tickets = append(tickets, seq)
	}
	if s := l.Stats(); s.Appends != 5 || s.Syncs != 0 {
		t.Fatalf("after enqueue only: %d appends, %d syncs; want 5 and 0", s.Appends, s.Syncs)
	}
	if tails, err := l.LoadTails([]int{3}); err != nil || len(tails[3]) != 0 {
		t.Fatalf("un-synced records visible to recovery: %d (err %v)", len(tails[3]), err)
	}

	done := make(chan error, 1)
	go func() { done <- l.Wait(tickets[4]) }()
	<-gate.entered
	select {
	case err := <-done:
		t.Fatalf("Wait returned (%v) while its fsync was still held", err)
	default:
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for _, seq := range tickets {
		if err := l.Wait(seq); err != nil {
			t.Fatalf("Wait(%d) after the batch synced: %v", seq, err)
		}
	}
	if err := l.Wait(0); err != nil {
		t.Fatalf("Wait(0): %v", err)
	}
	if s := l.Stats(); s.Syncs != 1 {
		t.Fatalf("%d syncs for five records enqueued before one wait, want 1", s.Syncs)
	}
	tails, err := l.LoadTails([]int{3})
	if err != nil || len(tails[3]) != 5 {
		t.Fatalf("durable tail: %d records (err %v), want 5", len(tails[3]), err)
	}
	for i, r := range tails[3] {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d on disk has lsn %d: disk order must be enqueue order", i, r.LSN)
		}
	}
	if err := l.Wait(6); err == nil {
		t.Fatal("Wait on a ticket never issued returned nil")
	}
}

// TestCommitAbortCoversUnwaitedTickets: with waiting split from enqueueing, a
// record can be enqueued under the armed barrier and first waited on after
// the shipper has died and disarmed it. It must still fail — the follower
// never confirmed it — while records enqueued after the abort, and any
// record when the barrier was never armed, are untouched.
func TestCommitAbortCoversUnwaitedTickets(t *testing.T) {
	l, _ := openTest(t, NewMemFS(1), DefaultSegmentBytes)
	defer l.Close()

	free, err := l.Enqueue(Record{Bucket: 0, LSN: 1, Txn: "put", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	l.AbortSync() // barrier not armed: nothing to abort
	if err := l.Wait(free); err != nil {
		t.Fatalf("abort without an armed barrier failed a local commit: %v", err)
	}

	l.SetRemoteAck(l.ShipEnd())
	l.SetSyncCommit(true)
	var held []uint64
	for i := 2; i <= 4; i++ {
		seq, err := l.Enqueue(Record{Bucket: 0, LSN: uint64(i), Txn: "put", Key: "k"})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, seq)
	}
	l.AbortSync()
	l.SetSyncCommit(false)
	for _, seq := range held {
		if err := l.Wait(seq); !errors.Is(err, ErrSyncAborted) {
			t.Fatalf("Wait(%d) after abort+disarm: %v, want ErrSyncAborted", seq, err)
		}
	}
	if err := l.Append(Record{Bucket: 0, LSN: 5, Txn: "put", Key: "k"}); err != nil {
		t.Fatalf("append after the abort: %v", err)
	}
	tails, err := l.LoadTails([]int{0})
	if err != nil || len(tails[0]) != 5 {
		t.Fatalf("durable tail: %d records (err %v), want 5 — aborted records are still locally durable", len(tails[0]), err)
	}
}

// TestCommitWaitOnFailedSync: a failed fsync latches the log, so the wait
// that led it, every wait behind it and every later enqueue report it.
func TestCommitWaitOnFailedSync(t *testing.T) {
	fs := NewMemFS(1)
	l, _ := openTest(t, fs, DefaultSegmentBytes)
	defer l.Close()
	boom := errors.New("disk on fire")
	fs.SetSyncHook(func(string) error { return boom })

	var tickets []uint64
	for i := 1; i <= 3; i++ {
		seq, err := l.Enqueue(Record{Bucket: 1, LSN: uint64(i), Txn: "put", Key: "k"})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, seq)
	}
	for _, seq := range tickets {
		if err := l.Wait(seq); !errors.Is(err, boom) {
			t.Fatalf("Wait(%d): %v, want the sync error", seq, err)
		}
	}
	if _, err := l.Enqueue(Record{Bucket: 1, LSN: 4, Txn: "put", Key: "k"}); !errors.Is(err, boom) {
		t.Fatalf("Enqueue on a latched log: %v", err)
	}
}
