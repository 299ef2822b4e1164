package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLaneFIFO: each lane gives its requests back in put order, control lane
// first, across the ring's wrap-around and its growth.
func TestLaneFIFO(t *testing.T) {
	q := &queue{limit: 100, wake: make(chan struct{}, 1)}
	reqs := make([]*txnRequest, 110)
	for i := range reqs {
		reqs[i] = &txnRequest{id: TxnID(i)}
	}
	put := func(i int, ctl bool) {
		t.Helper()
		if err := q.put(request{txn: reqs[i]}, ctl, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := func(i int) {
		t.Helper()
		req, ok := q.take()
		if !ok || req.txn != reqs[i] {
			t.Fatalf("took %v (ok %v), want request %d", req.txn, ok, i)
		}
	}
	// Wrap the data lane's first buffer before it has to grow.
	for i := 0; i < 10; i++ {
		put(i, false)
	}
	for i := 0; i < 5; i++ {
		want(i)
	}
	for i := 10; i < 60; i++ {
		put(i, false)
		put(i+50, true)
	}
	for i := 60; i < 110; i++ {
		want(i)
	}
	for i := 5; i < 60; i++ {
		want(i)
	}
	if req, ok := q.take(); ok {
		t.Fatalf("took %v from an empty queue", req.txn)
	}

	// Puts blocked at a full lane go in in arrival order, and a put that
	// arrives as a slot frees does not overtake them.
	q = &queue{limit: 1, wake: make(chan struct{}, 1)}
	put(0, false)
	parked := func(n int) bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return len(q.data.waiters) == n
	}
	for i := 1; i <= 2; i++ {
		go func() {
			if err := q.put(request{txn: reqs[i]}, false, nil); err != nil {
				t.Error(err)
			}
		}()
		deadlineWait(t, func() bool { return parked(i) })
	}
	want(0)
	if q.offer(request{txn: reqs[3]}) {
		t.Fatal("an offer overtook a put waiting at the full lane")
	}
	want(1)
	want(2)

	// The same holds for transactions through the engine: submitted one at a
	// time behind a held executor, they run in submission order.
	const n = 40
	var mu sync.Mutex
	var ran []int
	e, _, gate, _, wg := laneEngine(t, n, func(e *Engine) {
		if err := e.Register("note", Proc(func(tx *Tx, args int) (any, error) {
			mu.Lock()
			ran = append(ran, args)
			mu.Unlock()
			return nil, nil
		})); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); e.Execute("note", "k", i) }()
		deadlineWait(t, func() bool { return e.parts[0].q.dataLen() == i+1 })
	}
	close(gate)
	wg.Wait()
	if len(ran) != n {
		t.Fatalf("executed %d of %d", len(ran), n)
	}
	for i, v := range ran {
		if v != i {
			t.Fatalf("executed %v, want submission order", ran)
		}
	}
}

// TestLaneCtlRunsFirst: a control request put before a data request is
// handled before it, every time, whether the executor is idle or busy.
func TestLaneCtlRunsFirst(t *testing.T) {
	e := testEngine(t, overloadConfig(0))
	var snapDone atomic.Pointer[chan moveResult]
	if err := e.Register("probe", Proc(func(*Tx, NoArgs) (any, error) {
		if len(*snapDone.Load()) != 1 {
			return nil, errors.New("ran before the control request put ahead of it")
		}
		return nil, nil
	})); err != nil {
		t.Fatal(err)
	}
	e.Start()
	id := mustHandle(t, e, "probe")
	p := e.parts[0]
	for i := 0; i < 5000; i++ {
		done := make(chan moveResult, 1)
		snapDone.Store(&done)
		if err := p.q.put(request{ctl: &ctlRequest{kind: ctlSnapshot, buckets: []int{}, done: done}}, true, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ExecuteID(id, "k", nil); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// laneEngine is a one-partition engine with lanes of capacity slots whose
// executor is held inside a gate transaction until gate is closed; fill
// submits n noop transactions behind it. register adds procedures first.
func laneEngine(t *testing.T, capacity int, register func(*Engine)) (e *Engine, id TxnID, gate chan struct{}, fill func(n int), wg *sync.WaitGroup) {
	t.Helper()
	cfg := overloadConfig(0)
	cfg.QueueCapacity = capacity
	e = testEngine(t, cfg)
	gate = registerGate(t, e)
	entered := make(chan struct{})
	if err := e.Register("enter", Proc(func(*Tx, NoArgs) (any, error) { close(entered); <-gate; return nil, nil })); err != nil {
		t.Fatal(err)
	}
	if register != nil {
		register(e)
	}
	e.Start()
	id = mustHandle(t, e, "noop")
	wg = &sync.WaitGroup{}
	wg.Add(1)
	go func() { defer wg.Done(); e.Execute("enter", "k", nil) }()
	<-entered
	fill = func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.ExecuteID(id, "k", nil); err != nil && !errors.Is(err, ErrStopped) {
					t.Error(err)
				}
			}()
		}
	}
	return e, id, gate, fill, wg
}

// TestLaneBlocksAtCapacity: ExecuteID waits while the lane holds
// QueueCapacity requests and goes in when a slot frees; the lane never holds
// more, nor allocates more slots.
func TestLaneBlocksAtCapacity(t *testing.T) {
	const capacity = 40
	e, _, gate, fill, wg := laneEngine(t, capacity, nil)
	fill(3 * capacity)
	deadlineWait(t, func() bool { return e.Counters().Submitted == 1+3*capacity })
	p := e.parts[0]
	for i := 0; i < 20; i++ {
		if n := p.q.dataLen(); n > capacity {
			t.Fatalf("data lane holds %d, bound %d", n, capacity)
		}
		time.Sleep(time.Millisecond)
	}
	if n := p.q.dataLen(); n != capacity {
		t.Fatalf("data lane holds %d with %d submitters waiting, want %d", n, 2*capacity, capacity)
	}
	if c := e.Counters(); c.Completed != 0 {
		t.Fatalf("%d completed while the executor was held", c.Completed)
	}
	close(gate)
	wg.Wait()
	if c := e.Counters(); c.Completed != 1+3*capacity {
		t.Fatalf("Completed = %d, want %d", c.Completed, 1+3*capacity)
	}
	p.q.mu.Lock()
	defer p.q.mu.Unlock()
	if len(p.q.data.buf) != capacity || p.q.ctl.buf != nil {
		t.Fatalf("lanes allocated %d/%d slots, want %d and none", len(p.q.data.buf), len(p.q.ctl.buf), capacity)
	}
}

// TestLaneContextCanceledWhileBlocked: a submission whose context expires
// while its lane is full fails with ErrOverload wrapping the context's error,
// counts as rejected and never executes.
func TestLaneContextCanceledWhileBlocked(t *testing.T) {
	e, id, gate, fill, wg := laneEngine(t, 1, nil)
	fill(1)
	deadlineWait(t, func() bool { return e.parts[0].q.dataLen() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.ExecuteIDContext(ctx, id, "k", nil); !errors.Is(err, ErrOverload) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrOverload wrapping context.DeadlineExceeded", err)
	}
	close(gate)
	wg.Wait()
	want := Counters{Submitted: 3, Completed: 2, Rejected: 1}
	if c := e.Counters(); c.Submitted != want.Submitted || c.Completed != want.Completed || c.Errored != 0 || c.Rejected != want.Rejected {
		t.Fatalf("counters %+v, want %+v", c, want)
	}
}

// TestLaneStopWhileBlocked: Stop answers a submission waiting for a slot with
// ErrStopped, and the one queued ahead of it too.
func TestLaneStopWhileBlocked(t *testing.T) {
	e, id, gate, fill, wg := laneEngine(t, 1, nil)
	fill(1)
	deadlineWait(t, func() bool { return e.parts[0].q.dataLen() == 1 })
	blocked := make(chan error, 1)
	go func() {
		_, err := e.ExecuteID(id, "k", nil)
		blocked <- err
	}()
	deadlineWait(t, func() bool { return e.Counters().Submitted == 3 })
	stopped := make(chan struct{})
	go func() { e.Stop(); close(stopped) }()
	deadlineWait(t, e.stopped.Load)
	close(gate)
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("blocked submission: %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked submission not answered by Stop")
	}
	<-stopped
	wg.Wait()
	if c := e.Counters(); c.Completed != 1 {
		t.Fatalf("Completed = %d, want only the gate", c.Completed)
	}
}

// TestStopRaceAnswersEverySubmission: submitters and a control caller that
// keep calling while Stop runs are all answered — a put either lands before
// the executor's final drain, which answers it, or fails with ErrStopped.
func TestStopRaceAnswersEverySubmission(t *testing.T) {
	const submitters = 8
	for round := 0; round < 50; round++ {
		cfg := smallConfig()
		cfg.InitialMachines = 2
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		registerKV(t, e)
		e.Start()
		id := mustHandle(t, e, "put")
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					if _, err := e.ExecuteID(id, fmt.Sprintf("k%d-%d", s, i%32), i); errors.Is(err, ErrStopped) {
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if _, err := e.SnapshotPartition(i % 4); errors.Is(err, ErrStopped) {
					return
				}
			}
		}()
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		e.Stop()
		returned := make(chan struct{})
		go func() { wg.Wait(); close(returned) }()
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a call was stranded by Stop", round)
		}
	}
}

// BenchmarkNewEngine builds the deployed node's engine: 4 machines of 4
// partitions, 640 buckets, lanes bounded at 2¹⁵, two machines hosted.
func BenchmarkNewEngine(b *testing.B) {
	cfg := Config{
		MaxMachines:          4,
		PartitionsPerMachine: 4,
		Buckets:              640,
		ServiceTime:          3 * time.Millisecond,
		QueueCapacity:        1 << 15,
		InitialMachines:      2,
		HostedMachines:       []int{0, 2},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
