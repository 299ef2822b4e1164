package transport_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/store/storetest"
	"pstore/internal/transport"
	"pstore/internal/wal"
)

// runShipper starts sh.Run and stops it, and waits for it, when the test ends.
func runShipper(t testing.TB, sh *transport.Shipper) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = sh.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
}

// eventually polls cond until it holds; the polling is the test's, not the
// shipper's.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// shipReads is every ReadShip call the primary's log has answered.
func shipReads(n *replNode) int64 {
	s := n.rm.WALStats()
	return s.ShipTailReads + s.ShipFileReads + s.ShipEmptyReads
}

// TestShipWakeOnDurable: a caught-up Shipper.Run sleeps on the log instead of
// polling it — no read at all while nothing is appended — and the fsync that
// makes a record durable is what starts that record's delivery. Then the race
// a wake-up protocol can lose: writes timed so that each one's fsync lands
// around the shipper's empty read after the previous delivery. Nothing but
// the wake-up restarts a caught-up shipper, so a lost one would leave the
// follower behind for good.
func TestShipWakeOnDurable(t *testing.T) {
	fs := wal.NewMemFS(1)
	primary := startReplNodeOn(t, 4, 1, "", storetest.Args[int], decodeKVRow, recovery.Config{DataDir: "data", FS: fs}, registerKV)
	follower := startReplNode(t, 4, 1, primary.url)
	meta := syncFollower(t, primary, follower)
	sh := newTestShipper(t, primary, follower, meta.Cursor, 0, nil)
	runShipper(t, sh)

	eventually(t, "the shipper has found itself caught up", func() bool { return primary.rm.WALStats().ShipEmptyReads >= 1 })
	idle := shipReads(primary)
	time.Sleep(100 * time.Millisecond)
	if got := shipReads(primary); got != idle {
		t.Fatalf("%d ship reads in 100ms with nothing to ship: the shipper polls", got-idle)
	}

	// Hold the record's fsync: enqueued is not durable, and nothing ships.
	entered, release := make(chan struct{}, 1), make(chan struct{})
	fs.SetSyncHook(func(name string) error {
		if strings.Contains(name, "seg-") {
			entered <- struct{}{}
			<-release
		}
		return nil
	})
	put := make(chan error, 1)
	go func() { _, err := primary.eng.Execute("put", "k-0", 7); put <- err }()
	<-entered
	time.Sleep(20 * time.Millisecond)
	if n := sh.Shipped(); n != 0 {
		t.Fatalf("%d batches shipped while the record's fsync was still held", n)
	}
	fs.SetSyncHook(nil)
	close(release)
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	eventually(t, "the fsync's wake-up delivered the record", func() bool { return sh.Shipped() == 1 && sh.Lag() == 0 })
	if s := primary.rm.WALStats(); s.ShipTailReads != 1 || s.ShipFileReads != 0 {
		t.Fatalf("one record shipped by %d tail reads and %d file reads, want one read from memory", s.ShipTailReads, s.ShipFileReads)
	}

	// The first hundred pile up behind a delivery; the rest each go out the
	// moment the previous one is acknowledged, which is the moment the shipper
	// reads again and finds nothing.
	for i := 1; i <= 300; i++ {
		if _, err := primary.eng.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
		if i >= 100 {
			eventually(t, fmt.Sprintf("write %d reached the follower", i), func() bool { return sh.Lag() == 0 })
		}
	}
	waitApplied(t, follower)
	if rows := follower.eng.TotalRows(); rows != 301 {
		t.Fatalf("follower holds %d rows, want 301", rows)
	}
	if s := primary.rm.WALStats(); s.ShipFileReads != 0 {
		t.Fatalf("%d batches were decoded from the segment files for a follower that kept up", s.ShipFileReads)
	}
}

// TestLogBeforeRunFollowerFirst: under synchronous commit the record of a
// transaction is fsynced, shipped, acknowledged by the follower and applied
// there while the primary's own procedure is still running; the submitter
// hears nothing until that procedure returns.
func TestLogBeforeRunFollowerFirst(t *testing.T) {
	running, hold := make(chan struct{}, 1), make(chan struct{})
	var letGo sync.Once
	release := func() { letGo.Do(func() { close(hold) }) }
	t.Cleanup(release)
	heldPut := func(eng *store.Engine) error {
		if err := eng.Register("put", func(tx *store.Tx) (any, error) {
			running <- struct{}{}
			<-hold
			return nil, tx.Put("kv", tx.Key, tx.Args)
		}); err != nil {
			return err
		}
		return eng.Register("get", func(tx *store.Tx) (any, error) { return nil, nil })
	}
	primary := startReplNodeOn(t, 4, 1, "", storetest.Args[int], decodeKVRow, recovery.Config{DataDir: t.TempDir()}, heldPut)
	follower := startReplNode(t, 4, 1, primary.url)
	meta := syncFollower(t, primary, follower)
	sh, err := transport.NewShipper(transport.ShipperConfig{
		RM: primary.rm, Follower: follower.peer, FromNode: 0, ToNode: -1,
		Start: meta.Cursor, SyncCommit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	runShipper(t, sh)

	put := make(chan error, 1)
	go func() { _, err := primary.eng.Execute("put", "k-0", 7); put <- err }()
	<-running
	eventually(t, "the follower acknowledged the record", func() bool { return sh.Shipped() == 1 && sh.Lag() == 0 })
	waitApplied(t, follower)
	if rows := follower.eng.TotalRows(); rows != 1 {
		t.Fatalf("follower holds %d rows after acknowledging the record, want 1", rows)
	}
	if rows := primary.eng.TotalRows(); rows != 0 {
		t.Fatalf("primary holds %d rows while its procedure is still blocked", rows)
	}
	select {
	case err := <-put:
		t.Fatalf("reply (%v) delivered before the procedure returned", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-put; err != nil {
		t.Fatalf("put: %v", err)
	}
}
