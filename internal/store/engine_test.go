package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

func smallConfig() Config {
	return Config{
		MaxMachines:          4,
		PartitionsPerMachine: 2,
		Buckets:              64,
		ServiceTime:          0,
		QueueCapacity:        1024,
		InitialMachines:      1,
	}
}

// registerKV registers a tiny key-value transaction set used across tests.
func registerKV(t *testing.T, e *Engine) {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.Register("put", Proc(func(tx *Tx, args any) (any, error) {
		return nil, tx.Put("kv", tx.Key, args)
	})))
	must(e.Register("get", Proc(func(tx *Tx, _ NoArgs) (any, error) {
		v, ok, err := tx.Get("kv", tx.Key)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		return v, nil
	})))
	must(e.Register("del", Proc(func(tx *Tx, _ NoArgs) (any, error) {
		return nil, tx.Delete("kv", tx.Key)
	})))
}

func TestEngineConfigValidation(t *testing.T) {
	bad := []Config{
		{MaxMachines: 0, PartitionsPerMachine: 1, Buckets: 1, QueueCapacity: 1, InitialMachines: 1},
		{MaxMachines: 1, PartitionsPerMachine: 0, Buckets: 1, QueueCapacity: 1, InitialMachines: 1},
		{MaxMachines: 2, PartitionsPerMachine: 2, Buckets: 3, QueueCapacity: 1, InitialMachines: 1},
		{MaxMachines: 1, PartitionsPerMachine: 1, Buckets: 1, QueueCapacity: 0, InitialMachines: 1},
		{MaxMachines: 1, PartitionsPerMachine: 1, Buckets: 1, QueueCapacity: 1, InitialMachines: 0},
		{MaxMachines: 1, PartitionsPerMachine: 1, Buckets: 1, QueueCapacity: 1, InitialMachines: 2},
		{MaxMachines: 1, PartitionsPerMachine: 1, Buckets: 1, QueueCapacity: 1, InitialMachines: 1, ServiceTime: -1},
		{MaxMachines: 1, PartitionsPerMachine: 1, Buckets: 1, QueueCapacity: 1, InitialMachines: 1, Deadline: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestEngineBasicPutGet(t *testing.T) {
	e := testEngine(t, smallConfig())
	registerKV(t, e)
	e.Start()

	if _, err := e.Execute("put", "cart-1", "hello"); err != nil {
		t.Fatal(err)
	}
	v, err := e.Execute("get", "cart-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != "hello" {
		t.Fatalf("get = %v, want hello", v)
	}
	if _, err := e.Execute("del", "cart-1", nil); err != nil {
		t.Fatal(err)
	}
	v, err = e.Execute("get", "cart-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("get after delete = %v, want nil", v)
	}
}

func TestEngineUnknownTxn(t *testing.T) {
	e := testEngine(t, smallConfig())
	e.Start()
	if _, err := e.Execute("nope", "k", nil); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("err = %v, want ErrUnknownTxn", err)
	}
}

func TestEngineRegisterErrors(t *testing.T) {
	e := testEngine(t, smallConfig())
	if err := e.Register("a", Proc(func(*Tx, NoArgs) (any, error) { return nil, nil })); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("a", Proc(func(*Tx, NoArgs) (any, error) { return nil, nil })); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := e.Register("z", Procedure{}); err == nil {
		t.Error("procedure not built by Proc accepted")
	}
	e.Start()
	if err := e.Register("b", Proc(func(*Tx, NoArgs) (any, error) { return nil, nil })); err == nil {
		t.Error("registration after start accepted")
	}
	if err := e.SetServiceTime("a", time.Millisecond); err == nil {
		t.Error("SetServiceTime after start accepted")
	}
}

// lineArgs stands in for a workload's argument struct.
type lineArgs struct{ SKU string }

// A procedure registered with NoArgs runs on nil args only: a typed value
// handed to it in process is refused with both types named, and of encoded
// args it takes absent, null and {} only, each decoded to nil. A typed
// procedure's args decode into its type and refuse unknown fields.
func TestProcArgsTypes(t *testing.T) {
	e := testEngine(t, smallConfig())
	registerKV(t, e)
	if err := e.Register("line", Proc(func(_ *Tx, a lineArgs) (any, error) { return a.SKU, nil })); err != nil {
		t.Fatal(err)
	}
	e.Start()
	if _, err := e.Execute("get", "k", nil); err != nil {
		t.Fatalf("get with nil args: %v", err)
	}
	_, err := e.Execute("get", "k", lineArgs{SKU: "x"})
	if err == nil || !strings.Contains(err.Error(), "store.NoArgs") || !strings.Contains(err.Error(), "store.lineArgs") {
		t.Fatalf("get with a lineArgs: %v, want a refusal naming store.NoArgs and store.lineArgs", err)
	}
	if _, err := e.Execute("line", "k", 7); err == nil || !strings.Contains(err.Error(), "store.lineArgs") || !strings.Contains(err.Error(), "int") {
		t.Fatalf("line with an int: %v, want a refusal naming store.lineArgs and int", err)
	}
	if v, err := e.Execute("line", "k", lineArgs{SKU: "x"}); err != nil || v != "x" {
		t.Fatalf("line = (%v, %v), want (x, nil)", v, err)
	}

	get, line := mustHandle(t, e, "get"), mustHandle(t, e, "line")
	for _, raw := range []string{"", "null", "{}", " { } "} {
		if v, err := e.DecodeArgs(get, json.RawMessage(raw)); v != nil || err != nil {
			t.Errorf("get args %q decode to (%v, %v), want (nil, nil)", raw, v, err)
		}
	}
	for _, raw := range []string{`{"sku":"x"}`, "7", `"x"`, "[]"} {
		if v, err := e.DecodeArgs(get, json.RawMessage(raw)); err == nil {
			t.Errorf("get args %s decode to %v, want an error", raw, v)
		}
	}
	if v, err := e.DecodeArgs(line, json.RawMessage(`{"SKU":"x"}`)); err != nil || v != (lineArgs{SKU: "x"}) {
		t.Errorf("line args decode to (%#v, %v), want lineArgs{SKU: x}", v, err)
	}
	if v, err := e.DecodeArgs(line, json.RawMessage(`{"SKU":"x","Qty":1}`)); err == nil {
		t.Errorf("line args with an unknown field decode to %#v, want an error", v)
	}
	if _, err := e.DecodeArgs(NoTxn, json.RawMessage("{}")); !errors.Is(err, ErrUnknownTxn) {
		t.Errorf("DecodeArgs(NoTxn) = %v, want ErrUnknownTxn", err)
	}
}

func TestEngineExecuteBeforeStartAndAfterStop(t *testing.T) {
	e, err := NewEngine(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	registerKV(t, e)
	if _, err := e.Execute("put", "k", 1); err == nil {
		t.Error("execute before start accepted")
	}
	e.Start()
	if _, err := e.Execute("put", "k", 1); err != nil {
		t.Fatal(err)
	}
	e.Stop()
	if _, err := e.Execute("put", "k", 2); !errors.Is(err, ErrStopped) {
		t.Errorf("err after stop = %v, want ErrStopped", err)
	}
}

func TestEngineCrossPartitionRejected(t *testing.T) {
	e := testEngine(t, smallConfig())
	if err := e.Register("bad", Proc(func(tx *Tx, _ NoArgs) (any, error) {
		// Touch a key that almost surely hashes to a different bucket.
		for i := 0; i < 200; i++ {
			other := fmt.Sprintf("other-%d", i)
			if e.bucketOf(other) != tx.bucket {
				return nil, tx.Put("kv", other, 1)
			}
		}
		return nil, nil
	})); err != nil {
		t.Fatal(err)
	}
	e.Start()
	if _, err := e.Execute("bad", "k", nil); !errors.Is(err, ErrCrossPartition) {
		t.Fatalf("err = %v, want ErrCrossPartition", err)
	}
}

func TestEngineConcurrentClients(t *testing.T) {
	e := testEngine(t, smallConfig())
	registerKV(t, e)
	if err := e.Register("incr", Proc(func(tx *Tx, _ NoArgs) (any, error) {
		v, _, err := tx.Get("kv", tx.Key)
		if err != nil {
			return nil, err
		}
		n, _ := v.(int)
		return n + 1, tx.Put("kv", tx.Key, n+1)
	})); err != nil {
		t.Fatal(err)
	}
	e.Start()

	const clients = 16
	const perClient = 100
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := e.Execute("incr", "counter", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Serial per-partition execution must make the counter exact.
	v, err := e.Execute("get", "counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != clients*perClient {
		t.Fatalf("counter = %v, want %d (lost updates!)", v, clients*perClient)
	}
	c := e.Counters()
	if c.Completed != clients*perClient+1 || c.Errored != 0 || c.Submitted != c.Completed {
		t.Errorf("counters = %d submitted, %d completed, %d errored", c.Submitted, c.Completed, c.Errored)
	}
}

func TestEngineRowCount(t *testing.T) {
	e := testEngine(t, smallConfig())
	registerKV(t, e)
	e.Start()
	for i := 0; i < 50; i++ {
		if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.TotalRows(); got != 50 {
		t.Fatalf("TotalRows = %d, want 50", got)
	}
	// Overwrites do not change the count.
	if _, err := e.Execute("put", "k-0", 99); err != nil {
		t.Fatal(err)
	}
	if got := e.TotalRows(); got != 50 {
		t.Fatalf("TotalRows after overwrite = %d, want 50", got)
	}
	if _, err := e.Execute("del", "k-0", nil); err != nil {
		t.Fatal(err)
	}
	if got := e.TotalRows(); got != 49 {
		t.Fatalf("TotalRows after delete = %d, want 49", got)
	}
}

func TestEngineServiceTimeThrottles(t *testing.T) {
	cfg := smallConfig()
	cfg.ServiceTime = 5 * time.Millisecond
	e := testEngine(t, cfg)
	registerKV(t, e)
	e.Start()
	start := time.Now()
	const n = 10
	// Same key -> same partition -> serial execution: at least n*5ms.
	for i := 0; i < n; i++ {
		if _, err := e.Execute("put", "hot", i); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < n*5*time.Millisecond {
		t.Errorf("serial execution took %v, want >= %v", elapsed, n*5*time.Millisecond)
	}
}

func TestEngineMoveBucketsPreservesData(t *testing.T) {
	cfg := smallConfig()
	cfg.InitialMachines = 1
	e := testEngine(t, cfg)
	registerKV(t, e)
	e.Start()
	const keys = 200
	for i := 0; i < keys; i++ {
		if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	// Move all buckets owned by partition 0 to partition 2 (machine 1).
	buckets := e.OwnedBuckets(0)
	if len(buckets) == 0 {
		t.Fatal("partition 0 owns no buckets")
	}
	moved, err := e.MoveBuckets(buckets, 0, 2, time.Millisecond, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if moved <= 0 {
		t.Fatalf("MoveBuckets reported %d rows moved, want > 0", moved)
	}
	if got := e.OwnedBuckets(0); len(got) != 0 {
		t.Fatalf("partition 0 still owns %d buckets", len(got))
	}
	// All rows still readable, transparently routed to the new owner.
	for i := 0; i < keys; i++ {
		v, err := e.Execute("get", fmt.Sprintf("k-%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("k-%d = %v after migration, want %d", i, v, i)
		}
	}
	if got := e.TotalRows(); got != keys {
		t.Fatalf("TotalRows = %d, want %d", got, keys)
	}
}

// TestEngineMoveBucketsFlipVisibleOnReturn: a free move's install can finish
// before the source flips ownership, and MoveBuckets must still not return
// until the plan shows the new owner — a follower replaying shipped plan
// records plans each move from the plan the previous one left.
func TestEngineMoveBucketsFlipVisibleOnReturn(t *testing.T) {
	cfg := smallConfig()
	cfg.InitialMachines = 1
	e := testEngine(t, cfg)
	registerKV(t, e)
	e.Start()
	from, to := 0, 2
	for i := 0; i < 5000; i++ {
		if _, err := e.MoveBuckets([]int{0}, from, to, 0, 0); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		if got := e.OwnerOf(0); got != to {
			t.Fatalf("move %d returned with bucket 0 owned by partition %d, want %d", i, got, to)
		}
		from, to = to, from
	}
}

func TestEngineMoveBucketsValidation(t *testing.T) {
	e := testEngine(t, smallConfig())
	e.Start()
	if _, err := e.MoveBuckets([]int{0}, 0, 99, 0, 0); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := e.MoveBuckets([]int{0}, 1, 2, 0, 0); err == nil {
		t.Error("moving unowned bucket accepted")
	}
	if _, err := e.MoveBuckets([]int{0}, 3, 3, 0, 0); err != nil {
		t.Errorf("no-op move rejected: %v", err)
	}
}

// TestEngineLiveMigrationUnderLoad runs clients continuously while buckets
// move and verifies no transaction fails or observes missing data.
func TestEngineLiveMigrationUnderLoad(t *testing.T) {
	cfg := smallConfig()
	e := testEngine(t, cfg)
	registerKV(t, e)
	if err := e.Register("check", Proc(func(tx *Tx, _ NoArgs) (any, error) {
		v, ok, err := tx.Get("kv", tx.Key)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("row %q missing", tx.Key)
		}
		return v, nil
	})); err != nil {
		t.Fatal(err)
	}
	e.Start()
	const keys = 300
	for i := 0; i < keys; i++ {
		if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}

	stopLoad := make(chan struct{})
	var loadErr error
	var loadMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := c
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				key := fmt.Sprintf("k-%d", i%keys)
				if v, err := e.Execute("check", key, nil); err != nil || v != i%keys {
					loadMu.Lock()
					if loadErr == nil {
						loadErr = fmt.Errorf("key %s: v=%v err=%v", key, v, err)
					}
					loadMu.Unlock()
					return
				}
				i += 7
			}
		}(c)
	}

	// Shuffle buckets around while the load runs: 0 -> 2 -> 4 -> 0.
	route := []struct{ from, to int }{{0, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 0}, {5, 1}}
	for _, mv := range route {
		buckets := e.OwnedBuckets(mv.from)
		for lo := 0; lo < len(buckets); lo += 4 {
			hi := min(lo+4, len(buckets))
			if _, err := e.MoveBuckets(buckets[lo:hi], mv.from, mv.to, 200*time.Microsecond, 100*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stopLoad)
	wg.Wait()
	if loadErr != nil {
		t.Fatalf("load failed during migration: %v", loadErr)
	}
	if got := e.TotalRows(); got != keys {
		t.Fatalf("TotalRows = %d, want %d", got, keys)
	}
}

func TestEngineActiveMachines(t *testing.T) {
	e := testEngine(t, smallConfig())
	if got := e.ActiveMachines(); got != 1 {
		t.Fatalf("initial ActiveMachines = %d, want 1", got)
	}
	if err := e.SetActiveMachines(3); err != nil {
		t.Fatal(err)
	}
	if got := e.ActiveMachines(); got != 3 {
		t.Fatalf("ActiveMachines = %d, want 3", got)
	}
	if err := e.SetActiveMachines(0); err == nil {
		t.Error("SetActiveMachines(0) accepted")
	}
	if err := e.SetActiveMachines(5); err == nil {
		t.Error("SetActiveMachines beyond max accepted")
	}
}

func TestEngineInitialPlanBalanced(t *testing.T) {
	cfg := smallConfig()
	cfg.InitialMachines = 2
	e := testEngine(t, cfg)
	counts := map[int]int{}
	for b := 0; b < cfg.Buckets; b++ {
		counts[e.ownerOf(b)]++
	}
	if len(counts) != cfg.InitialMachines*cfg.PartitionsPerMachine {
		t.Fatalf("buckets spread over %d partitions, want %d", len(counts), 4)
	}
	for part, c := range counts {
		if c != cfg.Buckets/4 {
			t.Errorf("partition %d owns %d buckets, want %d", part, c, cfg.Buckets/4)
		}
	}
}

func TestEnginePanickingTxnSurvives(t *testing.T) {
	e := testEngine(t, smallConfig())
	registerKV(t, e)
	if err := e.Register("boom", Proc(func(*Tx, NoArgs) (any, error) {
		panic("kaboom")
	})); err != nil {
		t.Fatal(err)
	}
	e.Start()
	if _, err := e.Execute("boom", "k", nil); err == nil {
		t.Fatal("panicking transaction returned no error")
	}
	// The partition executor must still be alive and serving.
	if _, err := e.Execute("put", "k", 42); err != nil {
		t.Fatalf("partition dead after panic: %v", err)
	}
	v, err := e.Execute("get", "k", nil)
	if err != nil || v != 42 {
		t.Fatalf("get after panic = %v, %v", v, err)
	}
}

// planCounter counts the plan records an engine asks for.
type planCounter struct{ n int }

func (p *planCounter) LogPlan([]int32, int) { p.n++ }

// TestHandoffPending follows one bucket through a cross-node move as its source
// sees it: pending from the extract until an ownership update names it again,
// through unrelated updates in between, with the confirmation — which changes
// nothing in the plan — waking the waiters and logging no plan record.
func TestHandoffPending(t *testing.T) {
	cfg := smallConfig()
	cfg.InitialMachines, cfg.HostedMachines = 2, []int{0} // partitions 0, 1 here; 2, 3 on another node
	e := testEngine(t, cfg)
	registerKV(t, e)
	var logged planCounter
	e.SetPlanLog(&logged)
	e.Start()
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	keys := partitionKeys(e, 0, 8)
	moving := keys[0]
	staying := keys[slices.IndexFunc(keys, func(k string) bool { return e.bucketOf(k) != e.bucketOf(moving) })]
	if e.HandoffPending(moving) != nil {
		t.Fatal("a bucket is pending before anything moved")
	}
	// Handing a bucket to a partition hosted here is an in-process affair.
	if _, err := e.ExtractBuckets([]int{e.bucketOf(staying)}, 0, 1, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	if e.HandoffPending(staying) != nil {
		t.Fatal("a bucket extracted for a hosted partition is pending")
	}
	if _, err := e.ExtractBuckets([]int{e.bucketOf(moving)}, 0, 2, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	first := e.HandoffPending(moving)
	if first == nil || closed(first) || e.HandoffPending(staying) != nil {
		t.Fatalf("after the extract: channel %v, want exactly the extracted bucket pending", first)
	}
	if err := e.ApplyOwnership([]int{e.bucketOf(staying)}, 3); err != nil {
		t.Fatal(err)
	}
	second := e.HandoffPending(moving)
	if !closed(first) || second == nil || closed(second) {
		t.Fatal("an update of another bucket must wake the waiters and leave the bucket pending")
	}
	before := logged.n
	if err := e.ApplyOwnership([]int{e.bucketOf(moving)}, 2); err != nil {
		t.Fatal(err)
	}
	if !closed(second) || e.HandoffPending(moving) != nil {
		t.Fatal("the confirmation left the bucket pending")
	}
	if logged.n != before {
		t.Fatalf("the confirmation logged %d plan records for a plan it did not change", logged.n-before)
	}
}

// TestUnhostedPartitionsHaveNoQueues: no partition, hosted or not, holds a
// queue buffer before its first request, and every entry point that would
// send to another node's partition refuses with ErrNotOwned instead.
func TestUnhostedPartitionsHaveNoQueues(t *testing.T) {
	cfg := smallConfig()
	cfg.InitialMachines, cfg.HostedMachines = 2, []int{0, 2} // partitions 0, 1, 4, 5 here
	e := testEngine(t, cfg)
	registerKV(t, e)
	e.Start()
	for _, p := range e.parts {
		if p.q.ctl.buf != nil || p.q.data.buf != nil {
			t.Fatalf("partition %d: lanes of %d/%d slots before any request, want none", p.id, len(p.q.ctl.buf), len(p.q.data.buf))
		}
	}
	far := partitionKeys(e, 2, 1)[0]
	if _, err := e.Execute("put", far, 1); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("put for partition 2: %v", err)
	}
	for name, call := range map[string]func() error{
		"crash":    func() error { return e.Crash(1) },
		"snapshot": func() error { _, err := e.SnapshotPartition(2); return err },
		"restore":  func() error { _, err := e.RestorePartition(3, nil, nil); return err },
		"extract":  func() error { _, err := e.ExtractBuckets(e.OwnedBuckets(2), 2, 0, 0, 0, false); return err },
		"install":  func() error { _, err := e.InstallBuckets(nil, BucketData{}, 6, 0, 0); return err },
		"move":     func() error { _, err := e.MoveBuckets(e.OwnedBuckets(2), 2, 0, 0, 0); return err },
	} {
		if err := call(); !errors.Is(err, ErrNotOwned) {
			t.Errorf("%s on another node's partition: %v, want ErrNotOwned", name, err)
		}
	}
}
