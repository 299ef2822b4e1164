package recovery_test

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/store/storetest"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// The execute→commit pipeline on the real durable path: one partition over a
// wal.MemFS whose segment fsyncs the test holds open. The three promises —
// overlap, order, control drain — and what a sync-commit abort now means.

// syncGate holds every segment fsync open until released: entered reports a
// Sync as it arrives; a send on release lets exactly one through, open opens
// the gate for good. fail, when set, is what the held Sync returns.
type syncGate struct {
	entered chan struct{}
	release chan struct{}
	opened  sync.Once
	fail    atomic.Pointer[error]
}

func (g *syncGate) open() { g.opened.Do(func() { close(g.release) }) }

// gateSegmentSyncs gates fs until the test opens the gate — or ends: a failed
// test must not leave the commit stage, and so Engine.Stop, parked on it.
func gateSegmentSyncs(t *testing.T, fs *wal.MemFS) *syncGate {
	g := &syncGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	t.Cleanup(g.open)
	fs.SetSyncHook(func(name string) error {
		if !strings.Contains(name, "seg-") {
			return nil // manifest and image writes are not the commit path
		}
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.release
		if errp := g.fail.Load(); errp != nil {
			return *errp
		}
		return nil
	})
	return g
}

func (g *syncGate) awaitSync(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no fsync was started: nobody is leading the group commit")
	}
}

// pipeNode is one engine with a single hosted partition (partition 1 exists
// only as a migration destination), so execution order is one total order,
// reported by the procedures themselves on executed. While hold is set, a put
// reports itself on entered and then blocks until the channel is closed.
type pipeNode struct {
	e        *store.Engine
	m        *recovery.Manager
	executed chan string
	entered  chan string
	hold     atomic.Pointer[chan struct{}]
}

func newPipeNode(tb testing.TB, rcfg recovery.Config) *pipeNode {
	tb.Helper()
	e, err := store.NewEngine(store.Config{
		MaxMachines: 2, InitialMachines: 1, PartitionsPerMachine: 1,
		Buckets: 16, QueueCapacity: 256,
	})
	if err != nil {
		tb.Fatal(err)
	}
	n := &pipeNode{e: e, executed: make(chan string, 4096), entered: make(chan string, 16)}
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(e.Register("put", func(tx *store.Tx) (any, error) {
		if hold := n.hold.Load(); hold != nil {
			n.entered <- tx.Key
			<-*hold
		}
		err := tx.Put("T", tx.Key, tx.Args)
		n.executed <- tx.Key
		return nil, err
	}))
	must(e.Register("get", func(tx *store.Tx) (any, error) {
		v, _, err := tx.Get("T", tx.Key)
		return v, err
	}))
	must(e.SetArgsDecoder(storetest.Args[int]))
	n.m, err = recovery.New(e, rcfg)
	must(err)
	tb.Cleanup(func() { n.m.Close() })
	e.Start()
	tb.Cleanup(e.Stop)
	return n
}

type pipeReply struct {
	key string
	err error
}

// burst submits one put per key, each on its own goroutine and each only
// after the previous one executed, so keys is the execution order. The
// replies arrive on the returned channels.
func (n *pipeNode) burst(t *testing.T, keys []string, val int) []chan pipeReply {
	t.Helper()
	replies := make([]chan pipeReply, len(keys))
	for i, k := range keys {
		replies[i] = make(chan pipeReply, 1)
		go func(c chan pipeReply, k string) {
			_, err := n.e.Execute("put", k, val)
			c <- pipeReply{k, err}
		}(replies[i], k)
		select {
		case got := <-n.executed:
			if got != k {
				t.Fatalf("executed %q, submitted %q", got, k)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("put %s never executed: the partition is held by an earlier transaction's fsync", k)
		}
	}
	return replies
}

func (n *pipeNode) fingerprint(t *testing.T, keys int) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "rows=%d", n.e.TotalRows())
	for i := 0; i < keys; i++ {
		v, err := n.e.Execute("get", fmt.Sprintf("k-%d", i), nil)
		if err != nil {
			t.Fatalf("fingerprint get k-%d: %v", i, err)
		}
		fmt.Fprintf(&b, " %v", v)
	}
	return b.String()
}

// durableCommands decodes the durable log from its start and returns the
// command records in disk order.
func (n *pipeNode) durableCommands(t *testing.T) []wal.Record {
	t.Helper()
	frames, _, _, err := n.m.ReadShip(wal.ShipCursor{}, 1<<20)
	if err != nil {
		t.Fatalf("reading the durable log: %v", err)
	}
	var cmds []wal.Record
	for _, f := range frames {
		r, _, err := wal.DecodeRecord(f)
		if err != nil {
			t.Fatalf("decoding the durable log: %v", err)
		}
		if !r.IsPlan() {
			cmds = append(cmds, r)
		}
	}
	return cmds
}

func noneDelivered(t *testing.T, replies []chan pipeReply, why string) {
	t.Helper()
	// Give a wrongly released reply time to show up; a correct run is
	// unaffected by how long this is.
	time.Sleep(20 * time.Millisecond)
	for _, c := range replies {
		select {
		case r := <-c:
			t.Fatalf("reply for %s delivered (%v) %s", r.key, r.err, why)
		default:
		}
	}
}

func delivered(t *testing.T, c chan pipeReply) pipeReply {
	t.Helper()
	select {
	case r := <-c:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("reply never delivered")
		return pipeReply{}
	}
}

func burstKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%d", i)
	}
	return keys
}

// TestPipelineOverlap: while the first record's fsync is held, the partition
// executes further transactions, and none of their replies — nor the first
// one's — is delivered.
func TestPipelineOverlap(t *testing.T) {
	fs := wal.NewMemFS(1)
	n := newPipeNode(t, recovery.Config{DataDir: "data", FS: fs})
	gate := gateSegmentSyncs(t, fs)

	keys := burstKeys(6)
	replies := n.burst(t, keys[:1], 1)
	gate.awaitSync(t) // the first record's fsync is now in flight, and held
	replies = append(replies, n.burst(t, keys[1:], 1)...)

	// burst saw each put run; none ran twice.
	if extra := len(n.executed); extra != 0 {
		t.Fatalf("partition executed %d transactions during one held fsync, want %d", len(keys)+extra, len(keys))
	}
	noneDelivered(t, replies, "while the first record's fsync was still held")
	if c := n.e.Counters(); c.Completed+c.Errored != 0 {
		t.Fatalf("%d transactions acknowledged with nothing on disk", c.Completed+c.Errored)
	}
	if got := n.durableCommands(t); len(got) != 0 {
		t.Fatalf("%d records durable behind a held fsync", len(got))
	}

	gate.open()
	for _, c := range replies {
		if r := delivered(t, c); r.err != nil {
			t.Fatalf("put %s: %v", r.key, r.err)
		}
	}
	if c := n.e.Counters(); c.CommitWaits != int64(len(keys)) || c.CommitWaitNs <= 0 {
		t.Fatalf("CommitWaits = %d, CommitWaitNs = %d after %d held replies", c.CommitWaits, c.CommitWaitNs, len(keys))
	}
}

// TestPipelineOrder: a reply is released by the fsync that covers its record
// and not by an earlier one; on disk each bucket's LSNs are contiguous and
// the records sit in execution order; and a failed fsync fails every reply
// held behind it.
func TestPipelineOrder(t *testing.T) {
	fs := wal.NewMemFS(1)
	n := newPipeNode(t, recovery.Config{DataDir: "data", FS: fs})
	gate := gateSegmentSyncs(t, fs)

	keys := burstKeys(8)
	replies := n.burst(t, keys[:1], 7)
	gate.awaitSync(t)
	replies = append(replies, n.burst(t, keys[1:], 7)...)

	gate.release <- struct{}{} // the first fsync covers the first record only
	if r := delivered(t, replies[0]); r.err != nil {
		t.Fatalf("put %s: %v", r.key, r.err)
	}
	gate.awaitSync(t) // the commit stage leads the next one itself
	noneDelivered(t, replies[1:], "by an fsync that does not cover its record")
	if got := n.durableCommands(t); len(got) != 1 || got[0].Key != keys[0] {
		t.Fatalf("durable after the first fsync: %d records, want exactly %s", len(got), keys[0])
	}
	gate.open()
	for _, c := range replies[1:] {
		if r := delivered(t, c); r.err != nil {
			t.Fatalf("put %s: %v", r.key, r.err)
		}
	}

	cmds := n.durableCommands(t)
	if len(cmds) != len(keys) {
		t.Fatalf("%d records on disk, want %d", len(cmds), len(keys))
	}
	heads := make(map[int]uint64)
	for i, r := range cmds {
		if r.Key != keys[i] {
			t.Fatalf("record %d on disk is %s, executed %s: log order must be execution order", i, r.Key, keys[i])
		}
		heads[r.Bucket]++
		if r.LSN != heads[r.Bucket] {
			t.Fatalf("record %d: bucket %d lsn %d, want %d (contiguous per bucket)", i, r.Bucket, r.LSN, heads[r.Bucket])
		}
	}

	t.Run("failed-sync", func(t *testing.T) {
		fs := wal.NewMemFS(2)
		n := newPipeNode(t, recovery.Config{DataDir: "data", FS: fs})
		gate := gateSegmentSyncs(t, fs)
		replies := n.burst(t, keys[:1], 7)
		gate.awaitSync(t)
		replies = append(replies, n.burst(t, keys[1:4], 7)...)
		boom := errors.New("disk on fire")
		gate.fail.Store(&boom)
		gate.open()
		for _, c := range replies {
			r := delivered(t, c)
			if !errors.Is(r.err, store.ErrCommitFailed) || !errors.Is(r.err, boom) {
				t.Fatalf("put %s behind a failed fsync: %v, want a commit failure wrapping the disk error", r.key, r.err)
			}
		}
		if n.m.Err() == nil {
			t.Fatal("a failed fsync did not latch the store")
		}
		if _, err := n.e.Execute("put", "late", 1); !errors.Is(err, store.ErrCommitFailed) {
			t.Fatalf("put on a dead log: %v, want a commit failure (fail-stop)", err)
		}
	})
}

// TestPipelineControlDrain: a control request issued into a burst of
// un-synced transactions runs only after the burst is durable, so crash +
// restore, a checkpoint followed by the death of the process, and a chunk
// extraction all see exactly what an engine that never pipelined would.
func TestPipelineControlDrain(t *testing.T) {
	const loaded, burstN = 24, 8
	script := func(t *testing.T, n *pipeNode, gate func() *syncGate, control func(n *pipeNode) error) {
		t.Helper()
		for i := 0; i < loaded; i++ {
			if _, err := n.e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
				t.Fatal(err)
			}
			<-n.executed
		}
		g := gate()
		replies := n.burst(t, burstKeys(burstN), 1000)
		done := make(chan error, 1)
		go func() { done <- control(n) }()
		if g != nil {
			noneDelivered(t, replies, "before the burst was durable")
			select {
			case err := <-done:
				t.Fatalf("control request ran (%v) into a burst that is not durable", err)
			default:
			}
			g.open()
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("control request: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("control request never ran after the burst became durable")
		}
		for _, c := range replies {
			if r := delivered(t, c); r.err != nil {
				t.Fatalf("put %s, executed before the control request: %v", r.key, r.err)
			}
		}
	}
	noGate := func() *syncGate { return nil }

	crashRestore := func(n *pipeNode) error {
		if err := n.m.Crash(0); err != nil {
			return err
		}
		_, err := n.m.Restore(0)
		return err
	}
	t.Run("crash-restore", func(t *testing.T) {
		oracle := newPipeNode(t, recovery.Config{})
		script(t, oracle, noGate, func(*pipeNode) error { return nil })

		fs := wal.NewMemFS(1)
		n := newPipeNode(t, recovery.Config{DataDir: "data", FS: fs})
		script(t, n, func() *syncGate { return gateSegmentSyncs(t, fs) }, crashRestore)
		if got, want := n.fingerprint(t, loaded), oracle.fingerprint(t, loaded); got != want {
			t.Fatalf("restored after a crash into the burst:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		oracle := newPipeNode(t, recovery.Config{})
		script(t, oracle, noGate, func(*pipeNode) error { return nil })

		fs := wal.NewMemFS(1)
		n := newPipeNode(t, recovery.Config{DataDir: "data", FS: fs})
		script(t, n, func() *syncGate { return gateSegmentSyncs(t, fs) }, func(n *pipeNode) error {
			_, err := n.m.Checkpoint()
			return err
		})
		// The process dies right after the checkpoint; a second life must
		// rebuild the oracle's state from the images and the log alone.
		n.e.Stop()
		n.m.Close()
		n2 := newPipeNode(t, recovery.Config{DataDir: "data", FS: fs})
		if _, err := n2.m.ColdStart(); err != nil {
			t.Fatalf("cold start: %v", err)
		}
		if got, want := n2.fingerprint(t, loaded), oracle.fingerprint(t, loaded); got != want {
			t.Fatalf("recovered from a checkpoint taken into the burst:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("extract", func(t *testing.T) {
		fs := wal.NewMemFS(1)
		n := newPipeNode(t, recovery.Config{DataDir: "data", FS: fs})
		var data store.BucketData
		script(t, n, func() *syncGate { return gateSegmentSyncs(t, fs) }, func(n *pipeNode) error {
			var err error
			data, err = n.e.ExtractBuckets(n.e.OwnedBuckets(0), 0, 1, 0, 0, false)
			if err != nil {
				return err
			}
			// The chunk is on its way to another node: everything it carries
			// must already be in this node's durable log (which by now also
			// holds the extraction's own plan record).
			recs, _, _, err := n.m.ReadShip(wal.ShipCursor{}, 1<<20)
			if err != nil {
				return err
			}
			if got := len(recs) - 1; got != loaded+burstN {
				return fmt.Errorf("chunk left with %d of %d commands durable", got, loaded+burstN)
			}
			return nil
		})
		if data.Rows() != loaded {
			t.Fatalf("extracted %d rows, want %d", data.Rows(), loaded)
		}
	})
}

// TestLogBeforeRun on the real log: while a procedure is still running, its
// record is fsynced, the caught-up reader of the ship stream is woken and
// reads it — from memory — and the reply is held; it goes out once the
// procedure returns. (The other order — procedure done, fsync held, no reply —
// is TestPipelineOverlap.)
func TestLogBeforeRun(t *testing.T) {
	n := newPipeNode(t, recovery.Config{DataDir: "data", FS: wal.NewMemFS(1)})
	end, err := n.m.ShipEnd()
	if err != nil {
		t.Fatal(err)
	}
	recs, _, wake, err := n.m.ReadShip(end, 10)
	if err != nil || len(recs) != 0 || wake == nil {
		t.Fatalf("caught-up read: %d records, wake %v, err %v", len(recs), wake, err)
	}

	hold := make(chan struct{})
	var letGo sync.Once
	release := func() { letGo.Do(func() { close(hold) }) }
	t.Cleanup(release)
	n.hold.Store(&hold)
	reply := make(chan pipeReply, 1)
	go func() {
		_, err := n.e.Execute("put", "k-0", 1)
		reply <- pipeReply{"k-0", err}
	}()
	select {
	case <-n.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("put never started")
	}
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("the record was not made durable while its procedure ran: the ship stream was never woken")
	}
	recs, _, _, err = n.m.ReadShip(end, 10)
	if err != nil || len(recs) != 1 {
		t.Fatalf("ship read while the procedure runs: %d records, err %v; want its record", len(recs), err)
	}
	if r, _, err := wal.DecodeRecord(recs[0]); err != nil || r.Key != "k-0" || r.LSN != 1 {
		t.Fatalf("ship read while the procedure runs: %+v, err %v; want its record", r, err)
	}
	if s := n.m.WALStats(); s.ShipTailReads != 1 || s.ShipFileReads != 0 {
		t.Fatalf("the record was read from the files (%d tail reads, %d file reads)", s.ShipTailReads, s.ShipFileReads)
	}
	noneDelivered(t, []chan pipeReply{reply}, "while its procedure was still running")
	if rows := n.e.TotalRows(); rows != 0 {
		t.Fatalf("%d rows before the procedure wrote any", rows)
	}
	release()
	if r := delivered(t, reply); r.err != nil {
		t.Fatalf("put: %v", r.err)
	}
	if got := n.durableCommands(t); len(got) != 1 {
		t.Fatalf("%d commands on disk, want 1", len(got))
	}
}

// TestLogBeforeRunFailedAppend: a command that cannot be logged is not run.
// The first transaction to hit the dying disk was logged and ran before the
// write failed — it fails at commit and its effect stays in memory, outcome
// unknown; every one after it is refused at the append and leaves nothing
// behind.
func TestLogBeforeRunFailedAppend(t *testing.T) {
	fs := wal.NewMemFS(1)
	n := newPipeNode(t, recovery.Config{DataDir: "data", FS: fs})
	for _, k := range burstKeys(3) {
		if _, err := n.e.Execute("put", k, 1); err != nil {
			t.Fatal(err)
		}
		<-n.executed
	}
	fs.CrashAfterWrites(1)
	if _, err := n.e.Execute("put", "doomed", 1); !errors.Is(err, store.ErrCommitFailed) || !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("put into a failing write: %v, want a commit failure wrapping the disk's error", err)
	}
	<-n.executed // it was logged, so it ran
	if n.m.Err() == nil {
		t.Fatal("a failed write did not latch the store")
	}

	rows, counted := n.e.TotalRows(), n.e.Counters()
	_, err := n.e.Execute("put", "never", 1)
	if !errors.Is(err, store.ErrCommitFailed) || !strings.Contains(err.Error(), "did not run") {
		t.Fatalf("put on a dead log: %v, want a commit failure that says the transaction did not run", err)
	}
	select {
	case k := <-n.executed:
		t.Fatalf("%s ran although its command could not be logged", k)
	default:
	}
	if got := n.e.TotalRows(); got != rows {
		t.Fatalf("rows %d -> %d across a refused transaction", rows, got)
	}
	if c := n.e.Counters(); c.Errored != counted.Errored+1 || c.CommitWaits != counted.CommitWaits {
		t.Fatalf("Errored %d -> %d, CommitWaits %d -> %d; want one more error and nothing staged",
			counted.Errored, c.Errored, counted.CommitWaits, c.CommitWaits)
	}
}

// TestCommitSyncAbort: a sync-commit abort is the outcome of the records it
// covers, not the death of the log. The submitters in flight get a retryable
// commit failure, nothing latches, and the next append is durable and logged.
func TestCommitSyncAbort(t *testing.T) {
	fs := wal.NewMemFS(1)
	n := newPipeNode(t, recovery.Config{DataDir: "data", FS: fs})
	end, err := n.m.ShipEnd()
	if err != nil {
		t.Fatal(err)
	}
	n.m.SetRemoteAck(end)
	n.m.SetSyncCommit(true)

	keys := burstKeys(3)
	replies := n.burst(t, keys, 5)
	noneDelivered(t, replies, "with the follower's ack outstanding")

	// The shipper dies: no confirmation is coming.
	n.m.AbortSync()
	n.m.SetSyncCommit(false)
	for _, c := range replies {
		r := delivered(t, c)
		if !errors.Is(r.err, store.ErrCommitFailed) || !errors.Is(r.err, wal.ErrSyncAborted) {
			t.Fatalf("put %s across the abort: %v, want a commit failure wrapping ErrSyncAborted", r.key, r.err)
		}
		if code := wire.CodeOf(r.err); wire.StatusOf(code) != http.StatusServiceUnavailable {
			t.Fatalf("abort travels as %q (%d), want a retryable 503", code, wire.StatusOf(code))
		}
	}
	if err := n.m.Err(); err != nil {
		t.Fatalf("a sync abort latched the store: %v", err)
	}
	if _, err := n.e.Execute("put", "after", 9); err != nil {
		t.Fatalf("put after the abort: %v", err)
	}
	cmds := n.durableCommands(t)
	if len(cmds) != len(keys)+1 || cmds[len(cmds)-1].Key != "after" {
		t.Fatalf("%d commands durable after the abort, want %d ending in the new put", len(cmds), len(keys)+1)
	}
	if got := n.m.LogSize(); got != len(keys)+1 {
		t.Fatalf("LogSize = %d, want %d: aborted records are still locally durable", got, len(keys)+1)
	}
}

// BenchmarkPartitionDurable shows the pipeline's mechanism in isolation: one
// partition, zero service time, a disk whose fsync takes 1 ms, many
// submitters. A partition held for its own fsync commits one transaction per
// sync period; a pipelined one executes on while the log syncs, so every
// fsync carries whatever the submitters offered meanwhile.
func BenchmarkPartitionDurable(b *testing.B) {
	const submitters = 64
	fs := wal.NewMemFS(1)
	var syncs atomic.Int64
	fs.SetSyncHook(func(name string) error {
		if strings.Contains(name, "seg-") {
			syncs.Add(1)
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	n := newPipeNode(b, recovery.Config{DataDir: "data", FS: fs})
	put, _ := n.e.Handle("put")
	keys := burstKeys(submitters)
	go func() { // nobody reads execution order here
		for range n.executed {
		}
	}()
	defer close(n.executed)

	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				if _, err := n.e.ExecuteID(put, key, int(i)); err != nil {
					b.Error(err)
					return
				}
			}
		}(keys[s])
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txns/s")
	b.ReportMetric(float64(b.N)/float64(syncs.Load()), "records/fsync")
}
