package squall

import (
	"fmt"
	"testing"
	"time"

	"pstore/internal/hash"
	"pstore/internal/store"
)

// overloadEngine builds a 2-machine, 1-partition-per-machine engine whose
// every data request costs svc of executor time, so a bounded queue plus a
// flood of gets produces a standing backlog on partition 0.
func overloadEngine(t *testing.T, svc time.Duration) *store.Engine {
	t.Helper()
	cfg := store.Config{
		MaxMachines:          2,
		PartitionsPerMachine: 1,
		Buckets:              64,
		ServiceTime:          svc,
		QueueCapacity:        128,
		InitialMachines:      1,
	}
	e, err := store.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register("put", store.Proc(func(tx *store.Tx, args int) (any, error) {
		return nil, tx.Put("kv", tx.Key, args)
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("get", store.Proc(func(tx *store.Tx, _ store.NoArgs) (any, error) {
		v, ok, err := tx.Get("kv", tx.Key)
		if err != nil || !ok {
			return nil, fmt.Errorf("missing %q: %v", tx.Key, err)
		}
		return v, nil
	})); err != nil {
		t.Fatal(err)
	}
	e.Start()
	t.Cleanup(e.Stop)
	return e
}

// retainedKeys returns keys that hash into buckets partition 0 keeps across
// a 1 -> 2 scale-out (planBuckets sheds the upper half of the sorted owned
// list), so flooding them saturates the source partition without touching
// any bucket the move is transferring.
func retainedKeys(e *store.Engine, keys, want int) []string {
	owned := e.OwnedBuckets(0)
	retained := make(map[int]bool, len(owned)/2)
	for _, b := range owned[:len(owned)/2] {
		retained[b] = true
	}
	var out []string
	for i := 0; i < keys && len(out) < want; i++ {
		k := fmt.Sprintf("k-%d", i)
		if retained[hash.Partition(k, e.Config().Buckets)] {
			out = append(out, k)
		}
	}
	return out
}

// inFlight estimates the standing backlog: submissions not yet completed or
// errored are either queued or blocked at the channel send.
func inFlight(e *store.Engine) int64 {
	c := e.Counters()
	return c.Submitted - c.Completed - c.Errored
}

// floodRetained launches workers that keep partition 0's data queue full
// with gets on retained-bucket keys until stop is closed. Submission is
// synchronous (Execute blocks through completion), so the worker count must
// exceed the queue capacity for the queue itself to pin at capacity; the
// surplus workers sit blocked at the channel send. The returned wait
// function blocks until every worker has drained out and reports any
// worker-side failure.
func floodRetained(t *testing.T, e *store.Engine, keys []string, stop chan struct{}) (wait func()) {
	t.Helper()
	workers := 2 * e.Config().QueueCapacity
	done := make(chan struct{}, workers)
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := w; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[i%len(keys)]
				if v, err := e.Execute("get", key, nil); err != nil {
					errCh <- fmt.Errorf("flood get %s: %v", key, err)
					return
				} else if v == nil {
					errCh <- fmt.Errorf("flood get %s returned nil", key)
					return
				}
			}
		}(w)
	}
	wait = func() {
		for w := 0; w < workers; w++ {
			<-done
		}
		select {
		case err := <-errCh:
			t.Error(err)
		default:
		}
	}
	// The queue is saturated once the standing backlog exceeds its capacity
	// (everything beyond it is a worker blocked at the send).
	cap := int64(e.Config().QueueCapacity)
	deadline := time.Now().Add(10 * time.Second)
	for inFlight(e) < cap && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := inFlight(e); got < cap {
		close(stop)
		wait()
		t.Fatalf("flood never saturated the queue: %d in flight, capacity %d", got, cap)
	}
	return wait
}

// TestOverloadScaleOutThroughSaturation is the overload chaos scenario: with
// partition 0's data queue pinned at capacity by a flood of reads, a 1 -> 2
// scale-out must still complete promptly — its control requests ride the
// priority lane past the backlog — and goodput must recover once the new
// machine takes its half of the buckets.
func TestOverloadScaleOutThroughSaturation(t *testing.T) {
	const svc = time.Millisecond
	const keys = 192
	e := overloadEngine(t, svc)
	load(t, e, keys)
	flood := retainedKeys(e, keys, 24)
	if len(flood) < 8 {
		t.Fatalf("only %d retained-bucket keys out of %d", len(flood), keys)
	}

	stop := make(chan struct{})
	wait := floodRetained(t, e, flood, stop)
	ex, err := NewExecutor(e, fastConfig())
	if err != nil {
		t.Fatal(err)
	}

	moveDone := make(chan error, 1)
	go func() { moveDone <- ex.Reconfigure(1, 2, 0) }()
	select {
	case err := <-moveDone:
		if err != nil {
			t.Fatalf("scale-out under saturation: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scale-out starved behind the data backlog despite the ctl lane")
	}
	// The move overtook a backlog that is still standing: the flood kept the
	// queue at capacity the whole time.
	if got := inFlight(e); got < int64(e.Config().QueueCapacity)/2 {
		t.Errorf("backlog collapsed to %d during the move; the bypass was not exercised", got)
	}
	if got := e.ActiveMachines(); got != 2 {
		t.Errorf("machines = %d after scale-out, want 2", got)
	}

	close(stop)
	wait()
	// Goodput recovery: once the backlog drains, a fresh request completes in
	// queue-empty time, and every key (moved or retained) is still readable.
	drainDeadline := time.Now().Add(10 * time.Second)
	for inFlight(e) > 0 && time.Now().Before(drainDeadline) {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if _, err := e.Execute("get", flood[0], nil); err != nil {
		t.Fatalf("post-move get: %v", err)
	}
	if lat := time.Since(start); lat > 100*time.Millisecond {
		t.Errorf("post-move latency %v; goodput did not recover", lat)
	}
	checkBalanced(t, e, 2)
	checkAllReadable(t, e, keys)
	if got := e.TotalRows(); got != keys {
		t.Errorf("TotalRows = %d, want %d", got, keys)
	}
}
