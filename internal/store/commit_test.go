package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// gateLogger is a CommandLogger whose records become durable one ticket at a
// time, when the test says so: AppendCommand hands out tickets 1, 2, 3… in
// call (= execution) order and announces each on appended; WaitDurable blocks
// until the test releases that ticket with an outcome — or ends: a failed test
// must not leave the commit stage, and so Engine.Stop, parked on a gate.
type gateLogger struct {
	mu       sync.Mutex
	gates    map[uint64]chan error
	next     uint64
	appended chan uint64
	over     chan struct{}
}

func newGateLogger(t *testing.T) *gateLogger {
	g := &gateLogger{gates: make(map[uint64]chan error), appended: make(chan uint64, 64), over: make(chan struct{})}
	t.Cleanup(func() { close(g.over) })
	return g
}

func (g *gateLogger) gate(ticket uint64) chan error {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.gates[ticket]
	if c == nil {
		c = make(chan error, 1)
		g.gates[ticket] = c
	}
	return c
}

func (g *gateLogger) AppendCommand(int, TxnID, string, any) (uint64, error) {
	g.mu.Lock()
	g.next++
	ticket := g.next
	g.mu.Unlock()
	g.appended <- ticket
	return ticket, nil
}

func (g *gateLogger) WaitDurable(ticket uint64) error {
	select {
	case err := <-g.gate(ticket):
		return err
	case <-g.over:
		return nil
	}
}

func (g *gateLogger) LogHead(int) uint64 { return 0 }

// appends is how many records the partitions have logged, and so run.
func (g *gateLogger) appends() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.next
}

func (g *gateLogger) release(ticket uint64, err error) {
	g.gate(ticket) <- err
}

// partitionKeys returns n keys owned by one partition.
func partitionKeys(e *Engine, part, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("commit-%d", i)
		if e.ownerOf(e.bucketOf(k)) == part {
			keys = append(keys, k)
		}
	}
	return keys
}

// submitHeld executes one transaction per key on its own goroutine, each
// started only after the previous one's record was appended, so ticket i+1
// belongs to keys[i]. The returned channels carry the replies.
func submitHeld(t *testing.T, e *Engine, g *gateLogger, txn string, keys []string) []chan txnResult {
	t.Helper()
	replies := make([]chan txnResult, len(keys))
	for i, k := range keys {
		replies[i] = make(chan txnResult, 1)
		go func(i int, k string) {
			v, err := e.Execute(txn, k, i)
			replies[i] <- txnResult{value: v, err: err}
		}(i, k)
		select {
		case <-g.appended:
		case <-time.After(5 * time.Second):
			t.Fatalf("transaction %d never executed: the partition is waiting on an earlier commit", i)
		}
	}
	return replies
}

func noneReplied(t *testing.T, replies []chan txnResult, why string) {
	t.Helper()
	// Give a wrongly released reply time to show up; a correct run is
	// unaffected by how long this is.
	time.Sleep(20 * time.Millisecond)
	for i, c := range replies {
		select {
		case r := <-c:
			t.Fatalf("reply %d delivered (%v, %v) %s", i, r.value, r.err, why)
		default:
		}
	}
}

func mustReply(t *testing.T, c chan txnResult, what string) txnResult {
	t.Helper()
	select {
	case r := <-c:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no reply", what)
		return txnResult{}
	}
}

// TestCommitStagePipelinesExecution: a partition keeps executing while
// earlier transactions' records are not yet durable (a later one even reads
// what an earlier one wrote), holds every reply until its own record is, and
// delivers replies in execution order whatever order durability is reported
// in. A commit failure replaces the reply it belongs to, and only that one.
func TestCommitStagePipelinesExecution(t *testing.T) {
	e := testEngine(t, smallConfig())
	registerKV(t, e)
	g := newGateLogger(t)
	e.SetCommandLog(g)
	e.Start()

	keys := partitionKeys(e, 0, 3)
	replies := submitHeld(t, e, g, "put", keys)
	// The fourth reads the first one's un-durable write.
	replies = append(replies, submitHeld(t, e, g, "get", keys[:1])...)
	if got := g.appends(); got != 4 {
		t.Fatalf("partition logged %d transactions with commits outstanding, want 4", got)
	}
	if c := e.Counters(); c.Completed+c.Errored != 0 {
		t.Fatalf("%d replies counted before anything was durable", c.Completed+c.Errored)
	}
	noneReplied(t, replies, "before any record was durable")

	g.release(3, nil)
	noneReplied(t, replies, "ahead of two earlier records that are not durable")
	g.release(1, nil)
	if r := mustReply(t, replies[0], "first"); r.err != nil {
		t.Fatalf("first reply: %v", r.err)
	}
	noneReplied(t, replies[1:], "although the second record is still not durable")
	boom := errors.New("disk on fire")
	g.release(2, boom)
	r := mustReply(t, replies[1], "second")
	if !errors.Is(r.err, ErrCommitFailed) || !errors.Is(r.err, boom) {
		t.Fatalf("second reply: %v, want ErrCommitFailed wrapping the logger's error", r.err)
	}
	if r := mustReply(t, replies[2], "third"); r.err != nil {
		t.Fatalf("third reply: %v (one record's commit failure is not its successor's)", r.err)
	}
	g.release(4, nil)
	if r := mustReply(t, replies[3], "fourth"); r.err != nil || r.value != 0 {
		t.Fatalf("read of the first write: (%v, %v), want (0, nil)", r.value, r.err)
	}
	c := e.Counters()
	if c.CommitWaits != 4 || c.CommitWaitNs <= 0 {
		t.Fatalf("CommitWaits = %d, CommitWaitNs = %d after four held replies", c.CommitWaits, c.CommitWaitNs)
	}
	if c.Completed != 3 || c.Errored != 1 {
		t.Fatalf("Completed = %d, Errored = %d, want 3 and 1", c.Completed, c.Errored)
	}
}

// TestCommitStageDrainsBeforeControl: whatever the control request, the
// executor first waits out every reply it owes, so the request observes a
// partition with nothing awaiting durability — and the transactions executed
// before it keep their own outcome rather than the control request's.
func TestCommitStageDrainsBeforeControl(t *testing.T) {
	ops := map[string]func(e *Engine, buckets []int) error{
		"crash": func(e *Engine, _ []int) error { return e.Crash(0) },
		"snapshot": func(e *Engine, _ []int) error {
			_, err := e.SnapshotPartition(0)
			return err
		},
		"move": func(e *Engine, b []int) error {
			_, err := e.MoveBuckets(b, 0, 1, 0, 0)
			return err
		},
		"extract": func(e *Engine, b []int) error {
			_, err := e.ExtractBuckets(b, 0, 2, 0, 0, false)
			return err
		},
		"install": func(e *Engine, _ []int) error {
			_, err := e.InstallBuckets(nil, BucketData{}, 0, 0, 0)
			return err
		},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			e := testEngine(t, smallConfig())
			registerKV(t, e)
			g := newGateLogger(t)
			e.SetCommandLog(g)
			e.Start()
			keys := partitionKeys(e, 0, 3)
			replies := submitHeld(t, e, g, "put", keys)

			done := make(chan error, 1)
			go func() { done <- op(e, []int{e.bucketOf(keys[0])}) }()
			time.Sleep(20 * time.Millisecond)
			select {
			case err := <-done:
				t.Fatalf("%s ran (%v) with three commits outstanding", name, err)
			default:
			}
			g.release(1, nil)
			g.release(2, nil)
			noneReplied(t, replies[2:], "while its record is not durable")
			select {
			case err := <-done:
				t.Fatalf("%s ran (%v) with one commit outstanding", name, err)
			default:
			}
			g.release(3, nil)
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s after the drain: %v", name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s never ran after the commit stage drained", name)
			}
			for i, c := range replies {
				if r := mustReply(t, c, name); r.err != nil {
					t.Fatalf("reply %d, executed before the %s: %v", i, name, r.err)
				}
			}
		})
	}
}

// TestCommitStageStopDeliversHeldReplies: stopping the engine does not strand
// a submitter whose reply the commit stage holds, and Stop returns only once
// the stage has exited.
func TestCommitStageStopDeliversHeldReplies(t *testing.T) {
	e := testEngine(t, smallConfig())
	registerKV(t, e)
	g := newGateLogger(t)
	e.SetCommandLog(g)
	e.Start()
	replies := submitHeld(t, e, g, "put", partitionKeys(e, 0, 2))

	stopped := make(chan struct{})
	go func() { e.Stop(); close(stopped) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-stopped:
		t.Fatal("Stop returned while the commit stage still held replies")
	default:
	}
	g.release(1, nil)
	g.release(2, nil)
	for i, c := range replies {
		if r := mustReply(t, c, "held reply"); r.err != nil {
			t.Fatalf("reply %d across Stop: %v", i, r.err)
		}
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop never returned after the commit stage drained")
	}
}

// durableLogger reports every record durable at append (ticket 0), or fails
// the append outright.
type durableLogger struct{ err error }

func (d durableLogger) AppendCommand(int, TxnID, string, any) (uint64, error) { return 0, d.err }
func (d durableLogger) WaitDurable(uint64) error                              { return errors.New("never called") }
func (d durableLogger) LogHead(int) uint64                                    { return 0 }

// TestCommitStageBypassedWhenDurable: a logger that reports the record
// already durable (the in-memory command log) keeps the reply on the
// executor — nothing is held, nothing is counted — and an append failure is
// a commit failure delivered the same way.
func TestCommitStageBypassedWhenDurable(t *testing.T) {
	e := testEngine(t, smallConfig())
	registerKV(t, e)
	e.SetCommandLog(durableLogger{})
	e.Start()
	if _, err := e.Execute("put", "k", 1); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("log is gone")
	e.SetCommandLog(durableLogger{err: boom})
	if _, err := e.Execute("put", "k", 2); !errors.Is(err, ErrCommitFailed) || !errors.Is(err, boom) {
		t.Fatalf("append failure surfaced as %v", err)
	}
	if c := e.Counters(); c.CommitWaits != 0 || c.CommitWaitNs != 0 {
		t.Fatalf("commit stage used (%d waits) by a logger that is durable at append", c.CommitWaits)
	}
	// The command that could not be logged was not run either.
	e.SetCommandLog(durableLogger{})
	if v, err := e.Execute("get", "k", nil); err != nil || v != 1 {
		t.Fatalf("after a put whose append failed the row reads (%v, %v), want the earlier 1", v, err)
	}
}

// TestLogBeforeRun: a command is in the log before its procedure starts, its
// record can become durable while the procedure is still running, and the
// reply waits for both — whichever finishes last. The commit wait counted is
// only the part after the procedure returned. Outcomes reach the submitters
// they belong to, in order, and a control request still finds nothing owed.
func TestLogBeforeRun(t *testing.T) {
	e := testEngine(t, smallConfig())
	g := newGateLogger(t)
	// echo reports how many commands were logged when it started, then blocks
	// until the test lets procedures through, and returns its key.
	loggedAtStart := make(chan uint64, 16)
	hold := make(chan struct{})
	var letThrough sync.Once
	release := func() { letThrough.Do(func() { close(hold) }) }
	t.Cleanup(release)
	if err := e.Register("echo", func(tx *Tx) (any, error) {
		g.mu.Lock()
		logged := g.next
		g.mu.Unlock()
		loggedAtStart <- logged
		<-hold
		return tx.Key, nil
	}); err != nil {
		t.Fatal(err)
	}
	e.SetCommandLog(g)
	e.Start()
	keys := partitionKeys(e, 0, 4)
	started := func() uint64 {
		t.Helper()
		select {
		case n := <-loggedAtStart:
			return n
		case <-time.After(5 * time.Second):
			t.Fatal("procedure never started")
			return 0
		}
	}

	// The log wins: the record is durable while the procedure is blocked.
	replies := submitHeld(t, e, g, "echo", keys[:1])
	if n := started(); n != 1 {
		t.Fatalf("procedure started with %d commands logged, want its own already there", n)
	}
	g.release(1, nil)
	blockedSince := time.Now()
	noneReplied(t, replies, "with its record durable but its procedure still running")
	release()
	if r := mustReply(t, replies[0], "first"); r.err != nil || r.value != keys[0] {
		t.Fatalf("first reply (%v, %v), want its key", r.value, r.err)
	}
	blocked := time.Since(blockedSince)
	c := e.Counters()
	if c.CommitWaits != 1 || time.Duration(c.CommitWaitNs) > blocked/2 {
		t.Fatalf("CommitWaits = %d, CommitWaitNs = %v for a reply the procedure held for %v and the log for nothing",
			c.CommitWaits, time.Duration(c.CommitWaitNs), blocked)
	}

	// The procedure wins: it has returned, the record is not durable, and a
	// control request waits for the reply that is owed.
	replies = submitHeld(t, e, g, "echo", keys[1:2])
	started()
	snapshot := make(chan error, 1)
	go func() { _, err := e.SnapshotPartition(0); snapshot <- err }()
	noneReplied(t, replies, "with its procedure done but its record not durable")
	select {
	case err := <-snapshot:
		t.Fatalf("snapshot ran (%v) with a reply owed", err)
	default:
	}
	g.release(2, nil)
	if r := mustReply(t, replies[0], "second"); r.err != nil || r.value != keys[1] {
		t.Fatalf("second reply (%v, %v), want its key", r.value, r.err)
	}
	select {
	case err := <-snapshot:
		if err != nil {
			t.Fatalf("snapshot after the drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot never ran after the commit stage drained")
	}
	if held := time.Duration(e.Counters().CommitWaitNs - c.CommitWaitNs); held < 20*time.Millisecond {
		t.Fatalf("CommitWaitNs grew by %v for a finished transaction held at least 20ms", held)
	}

	// Durability reported out of order: replies stay in log order, each with
	// its own procedure's outcome.
	replies = submitHeld(t, e, g, "echo", keys[2:])
	started()
	started()
	g.release(4, nil)
	noneReplied(t, replies, "ahead of an earlier record that is not durable")
	g.release(3, nil)
	for i, c := range replies {
		if r := mustReply(t, c, "ordered reply"); r.err != nil || r.value != keys[2+i] {
			t.Fatalf("reply %d (%v, %v), want key %s", 2+i, r.value, r.err, keys[2+i])
		}
	}
}
