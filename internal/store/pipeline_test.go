package store

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// explodingTxn is a named top-level procedure so its symbol must appear in
// the stack trace attached to the panic error.
func explodingTxn(*Tx) (any, error) {
	panic("deliberate test explosion")
}

func TestEnginePanicReportsStack(t *testing.T) {
	e := testEngine(t, smallConfig())
	registerKV(t, e)
	if err := e.Register("explode", explodingTxn); err != nil {
		t.Fatal(err)
	}
	e.Start()
	_, err := e.Execute("explode", "k", nil)
	if err == nil {
		t.Fatal("panicking transaction returned no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "deliberate test explosion") {
		t.Errorf("error does not carry the panic value: %q", msg)
	}
	// The stack must identify the procedure that panicked, not just the
	// executor's recover site.
	if !strings.Contains(msg, "explodingTxn") {
		t.Errorf("error does not carry the panicking procedure's stack:\n%s", msg)
	}
	// The executor survives.
	if _, err := e.Execute("put", "k", 1); err != nil {
		t.Fatalf("partition dead after panic: %v", err)
	}
}

// TestEngineForwardsMidMove submits transactions while their buckets are
// being migrated and asserts they are forwarded to the new owner (counted in
// Counters().Forwarded) and still return correct results.
func TestEngineForwardsMidMove(t *testing.T) {
	e := testEngine(t, smallConfig())
	registerKV(t, e)
	e.Start()

	// Find keys that all route to partition 0.
	var keys []string
	for i := 0; len(keys) < 32; i++ {
		k := fmt.Sprintf("fwd-%d", i)
		if e.ownerOf(e.bucketOf(k)) == 0 {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		if _, err := e.Execute("put", k, i); err != nil {
			t.Fatal(err)
		}
	}

	// Migrate all of partition 0's buckets with a large fixed overhead: the
	// move-out occupies the source executor long enough for the gets below
	// to queue behind it, see the flipped ownership, and be forwarded.
	buckets := e.OwnedBuckets(0)
	moveDone := make(chan error, 1)
	go func() {
		_, err := e.MoveBuckets(buckets, 0, 2, 0, 100*time.Millisecond)
		moveDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the move-out start

	var wg sync.WaitGroup
	errs := make([]error, len(keys))
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k string) {
			defer wg.Done()
			v, err := e.Execute("get", k, nil)
			if err != nil {
				errs[i] = err
				return
			}
			if v != i {
				errs[i] = fmt.Errorf("key %s = %v, want %d", k, v, i)
			}
		}(i, k)
	}
	wg.Wait()
	if err := <-moveDone; err != nil {
		t.Fatal(err)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if fwd := e.Counters().Forwarded; fwd == 0 {
		t.Error("no transactions were forwarded during the move")
	}
}

func BenchmarkEngineExecute(b *testing.B) {
	cfg := Config{
		MaxMachines:          2,
		PartitionsPerMachine: 2,
		Buckets:              64,
		ServiceTime:          0,
		QueueCapacity:        1 << 14,
		InitialMachines:      2,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Register("noop", func(*Tx) (any, error) { return nil, nil }); err != nil {
		b.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	id, ok := e.Handle("noop")
	if !ok {
		b.Fatal("handle not found")
	}
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%04d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteID(id, keys[i&255], nil); err != nil {
			b.Fatal(err)
		}
	}
}
