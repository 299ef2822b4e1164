package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// overloadConfig is a single-partition engine so every key routes to
// partition 0 and queue state is fully controlled by the test.
func overloadConfig(deadline time.Duration) Config {
	return Config{
		MaxMachines:          1,
		PartitionsPerMachine: 1,
		Buckets:              16,
		ServiceTime:          0,
		QueueCapacity:        1024,
		InitialMachines:      1,
		Deadline:             deadline,
	}
}

// registerGate registers a transaction that blocks its executor until the
// returned release channel is closed (or a value is sent per call).
func registerGate(t *testing.T, e *Engine) chan struct{} {
	t.Helper()
	gate := make(chan struct{})
	if err := e.Register("gate", Proc(func(*Tx, NoArgs) (any, error) {
		<-gate
		return nil, nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("noop", Proc(func(*Tx, NoArgs) (any, error) { return nil, nil })); err != nil {
		t.Fatal(err)
	}
	return gate
}

func TestDeadlineExceededInQueue(t *testing.T) {
	e := testEngine(t, overloadConfig(10*time.Millisecond))
	gate := registerGate(t, e)
	e.Start()

	// Hold the executor, queue a victim, and let it age past its deadline.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e.Execute("gate", "k", nil)
	}()
	time.Sleep(5 * time.Millisecond) // executor now inside the gate
	var victimErr error
	go func() {
		defer wg.Done()
		_, victimErr = e.Execute("noop", "k", nil)
	}()
	time.Sleep(30 * time.Millisecond)
	close(gate)
	wg.Wait()

	if !errors.Is(victimErr, ErrDeadlineExceeded) {
		t.Fatalf("victim err = %v, want ErrDeadlineExceeded", victimErr)
	}
	cnt := e.Counters()
	if cnt.DeadlineExceeded == 0 {
		t.Error("DeadlineExceeded counter not incremented")
	}
	if cnt.Errored == 0 {
		t.Error("deadline-expired request not counted as errored")
	}
}

func TestAdmissionControlRejectsAndRecovers(t *testing.T) {
	e := testEngine(t, overloadConfig(5*time.Millisecond))
	gate := registerGate(t, e)
	e.Start()

	// Hold the executor so a queued request keeps the data queue non-empty,
	// then plant a high sojourn estimate: the next submission must be
	// refused at enqueue without ever joining the queue.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e.Execute("gate", "k", nil)
	}()
	time.Sleep(5 * time.Millisecond)
	go func() {
		defer wg.Done()
		e.Execute("noop", "k", nil) // queued behind the gate
	}()
	deadlineWait(t, func() bool { return e.parts[0].q.dataLen() > 0 })
	e.parts[0].sojournEWMA.Store(int64(time.Second))

	_, err := e.ExecuteID(mustHandle(t, e, "noop"), "k", nil)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", err)
	}
	if got := e.Counters().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	if e.Counters().Errored != 0 {
		t.Error("admission rejection counted as errored")
	}

	// Drain the queue: with no backlog the same stale estimate must not
	// keep rejecting (the livelock guard), and execution updates the EWMA.
	close(gate)
	wg.Wait()
	deadlineWait(t, func() bool { return e.parts[0].q.dataLen() == 0 })
	e.parts[0].sojournEWMA.Store(int64(time.Second))
	if _, err := e.Execute("noop", "k", nil); err != nil {
		t.Fatalf("post-drain submit refused: %v", err)
	}
}

// TestSojournTrackedWithoutDeadline: the executors keep the sojourn EWMA
// whether or not a deadline is set, so an engine with no deadline still
// reports the queueing delay a backlog built up once it has drained.
func TestSojournTrackedWithoutDeadline(t *testing.T) {
	e := testEngine(t, overloadConfig(0))
	gate := registerGate(t, e)
	e.Start()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Execute("gate", "k", nil)
	}()
	time.Sleep(5 * time.Millisecond) // executor now inside the gate
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.Execute("noop", fmt.Sprintf("k%d", i), nil)
		}(i)
	}
	deadlineWait(t, func() bool { return e.parts[0].q.dataLen() == 8 })
	time.Sleep(10 * time.Millisecond) // the backlog ages in the queue
	close(gate)
	wg.Wait()
	if got := e.MaxQueueSojourn(); got <= 0 {
		t.Fatalf("MaxQueueSojourn = %v after a backlog drained, want > 0", got)
	}
	if c := e.Counters(); c.Rejected+c.DeadlineExceeded != 0 || c.Errored != 0 {
		t.Errorf("an engine with no deadline refused work: %+v", c)
	}
}

func TestExecuteIDContextBoundedWait(t *testing.T) {
	cfg := overloadConfig(0)
	cfg.QueueCapacity = 1
	e := testEngine(t, cfg)
	gate := registerGate(t, e)
	e.Start()
	id := mustHandle(t, e, "noop")

	// Saturate: the executor is inside the gate and the 1-slot queue is
	// full, so a plain ExecuteID would block indefinitely.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e.Execute("gate", "k", nil)
	}()
	time.Sleep(5 * time.Millisecond)
	go func() {
		defer wg.Done()
		e.ExecuteID(id, "k", nil)
	}()
	deadlineWait(t, func() bool { return e.parts[0].q.dataLen() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.ExecuteIDContext(ctx, id, "k", nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverload) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrOverload wrapping context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("bounded wait took %v", elapsed)
	}
	if got := e.Counters().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	close(gate)
	wg.Wait()

	// An unsaturated queue admits normally through the context path.
	if _, err := e.ExecuteIDContext(context.Background(), id, "k", nil); err != nil {
		t.Fatalf("context submit on idle engine: %v", err)
	}
}

// TestCtlLaneBypassesDataBacklog proves the priority lane: a control request
// submitted behind a deep data backlog completes while the backlog is still
// queued.
func TestCtlLaneBypassesDataBacklog(t *testing.T) {
	const backlog = 50
	cfg := overloadConfig(0)
	cfg.ServiceTime = 2 * time.Millisecond
	e := testEngine(t, cfg)
	if err := e.Register("noop", Proc(func(*Tx, NoArgs) (any, error) { return nil, nil })); err != nil {
		t.Fatal(err)
	}
	e.Start()
	id := mustHandle(t, e, "noop")
	var wg sync.WaitGroup
	for i := 0; i < backlog; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.ExecuteID(id, fmt.Sprintf("k%d", i), nil)
		}(i)
	}
	defer wg.Wait()
	deadlineWait(t, func() bool { return e.parts[0].q.dataLen() >= backlog-5 })
	if _, err := e.SnapshotPartition(0); err != nil {
		t.Fatal(err)
	}
	queued, done := e.parts[0].q.dataLen(), e.Counters().Completed
	if queued == 0 || done >= backlog-5 {
		t.Errorf("snapshot returned with %d data requests still queued and %d/%d done — the lane did not bypass the backlog", queued, done, backlog)
	}
}

func mustHandle(t *testing.T, e *Engine, name string) TxnID {
	t.Helper()
	id, ok := e.Handle(name)
	if !ok {
		t.Fatalf("handle %q not found", name)
	}
	return id
}

// deadlineWait polls cond until it holds or the test deadline approaches.
func deadlineWait(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
