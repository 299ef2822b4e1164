// The recovery tests live in an external package: the crash-chaos suite
// drives migration through internal/squall, whose transport layer imports
// recovery — an in-package test would close an import cycle.
package recovery_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pstore/internal/hash"
	"pstore/internal/metrics"
	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/store/storetest"
)

// testEngine builds a started engine with machines active machines (2
// partitions each), 240 buckets, "put"/"get" procedures and an attached
// in-memory recovery manager. The manager attaches before any data loads,
// as required.
func testEngine(t *testing.T, maxMachines, initial int) (*store.Engine, *recovery.Manager) {
	t.Helper()
	return testEngineCfg(t, maxMachines, initial, recovery.Config{})
}

// testEngineCfg is testEngine with an explicit recovery configuration — the
// data-dir axis: the same scripts run against the in-memory oracle and the
// disk-backed store.
func testEngineCfg(t *testing.T, maxMachines, initial int, rcfg recovery.Config) (*store.Engine, *recovery.Manager) {
	t.Helper()
	cfg := store.Config{
		MaxMachines:          maxMachines,
		InitialMachines:      initial,
		PartitionsPerMachine: 2,
		Buckets:              240,
		QueueCapacity:        256,
	}
	e, err := store.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register("put", func(tx *store.Tx) (any, error) {
		return nil, tx.Put("T", tx.Key, tx.Args)
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("get", func(tx *store.Tx) (any, error) {
		v, _, err := tx.Get("T", tx.Key)
		return v, err
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("del", func(tx *store.Tx) (any, error) {
		return nil, tx.Delete("T", tx.Key)
	}); err != nil {
		t.Fatal(err)
	}
	// The memory store replays the int a put was given; the disk store replays
	// what this decodes from its log. The oracle comparisons need them equal.
	if err := e.SetArgsDecoder(storetest.Args[int]); err != nil {
		t.Fatal(err)
	}
	m, err := recovery.New(e, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	e.Start()
	t.Cleanup(e.Stop)
	return e, m
}

func load(t *testing.T, e *store.Engine, keys int) {
	t.Helper()
	for i := 0; i < keys; i++ {
		if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatalf("loading k-%d: %v", i, err)
		}
	}
}

func checkValues(t *testing.T, e *store.Engine, keys int, val func(int) any) {
	t.Helper()
	for i := 0; i < keys; i++ {
		v, err := e.Execute("get", fmt.Sprintf("k-%d", i), nil)
		if err != nil {
			t.Fatalf("get k-%d: %v", i, err)
		}
		if want := val(i); v != want {
			t.Fatalf("k-%d = %v, want %v", i, v, want)
		}
	}
}

// downKey finds a key (and its bucket) whose bucket lives on the given
// machine.
func downKey(t *testing.T, e *store.Engine, machine, keys int) (string, int) {
	t.Helper()
	parts := map[int]bool{}
	for _, p := range e.PartitionsOfMachine(machine) {
		parts[p] = true
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k-%d", i)
		b := hash.Partition(k, e.Config().Buckets)
		if parts[e.OwnerOf(b)] {
			return k, b
		}
	}
	t.Fatal("no key maps to the machine")
	return "", 0
}

// TestCheckpointReplayExactState is the core tentpole property: checkpoint,
// keep writing, crash, restore — the machine comes back with the exact
// pre-crash state (checkpoint image + replayed tail).
func TestCheckpointReplayExactState(t *testing.T) {
	e, m := testEngine(t, 2, 2)
	const keys = 300
	load(t, e, keys)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes land in the command tail only.
	for i := 0; i < keys; i += 3 {
		if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Crash(1); err != nil {
		t.Fatal(err)
	}
	st, err := m.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed == 0 {
		t.Fatal("restore replayed nothing; the command tail was lost")
	}
	checkValues(t, e, keys, func(i int) any {
		if i%3 == 0 {
			return i * 10
		}
		return i
	})
	if got := e.TotalRows(); got != keys {
		t.Fatalf("TotalRows = %d, want %d", got, keys)
	}
}

// TestRestoreWithoutCheckpoint proves a bucket with no checkpoint image is
// rebuilt from its full command history.
func TestRestoreWithoutCheckpoint(t *testing.T) {
	e, m := testEngine(t, 2, 2)
	const keys = 200
	load(t, e, keys)
	if err := m.Crash(0); err != nil {
		t.Fatal(err)
	}
	st, err := m.Restore(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshots != 0 {
		t.Fatalf("restore used %d snapshots, want 0 (never checkpointed)", st.Snapshots)
	}
	checkValues(t, e, keys, func(i int) any { return i })
	if got := e.TotalRows(); got != keys {
		t.Fatalf("TotalRows = %d, want %d", got, keys)
	}
}

// TestCheckpointTruncatesLog pins the log-reclamation contract: a checkpoint
// covers all prior commands, so they are dropped.
func TestCheckpointTruncatesLog(t *testing.T) {
	e, m := testEngine(t, 2, 1)
	load(t, e, 150)
	if m.LogSize() != 150 {
		t.Fatalf("LogSize = %d, want 150", m.LogSize())
	}
	n, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("checkpoint installed no bucket images")
	}
	if m.LogSize() != 0 {
		t.Fatalf("LogSize = %d after checkpoint, want 0", m.LogSize())
	}
	// Deletions are commands too: they append, not shrink, until the next
	// checkpoint.
	if _, err := e.Execute("del", "k-0", nil); err != nil {
		t.Fatal(err)
	}
	if m.LogSize() != 1 {
		t.Fatalf("LogSize = %d after delete, want 1", m.LogSize())
	}
}

// TestRecoverMigratedBuckets proves a bucket's recovery state travels with
// it: data written while the bucket lived on machine 0, then migrated to
// machine 1, is rebuilt on machine 1 after its crash.
func TestRecoverMigratedBuckets(t *testing.T) {
	e, m := testEngine(t, 2, 1)
	const keys = 200
	load(t, e, keys)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Move partition 0's buckets to partition 2 (machine 1) directly.
	buckets := e.OwnedBuckets(0)
	if _, err := e.MoveBuckets(buckets, 0, 2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.SetActiveMachines(2); err != nil {
		t.Fatal(err)
	}
	// Write on the migrated buckets at their new home.
	for i := 0; i < keys; i++ {
		if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i+1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Crash(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(1); err != nil {
		t.Fatal(err)
	}
	checkValues(t, e, keys, func(i int) any { return i + 1000 })
	if got := e.TotalRows(); got != keys {
		t.Fatalf("TotalRows = %d, want %d", got, keys)
	}
}

// TestDownSemantics pins the fencing contract: transactions against a down
// machine fail with ErrPartitionDown, execute nothing (no access counting),
// and double-crash / restore-of-live are refused.
func TestDownSemantics(t *testing.T) {
	e, m := testEngine(t, 2, 2)
	const keys = 200
	load(t, e, keys)
	key, bucket := downKey(t, e, 1, keys)
	if err := m.Crash(1); err != nil {
		t.Fatal(err)
	}
	before := e.BucketAccesses(false)[bucket]
	for i := 0; i < 5; i++ {
		if _, err := e.Execute("get", key, nil); !errors.Is(err, store.ErrPartitionDown) {
			t.Fatalf("get on down machine: err = %v, want ErrPartitionDown", err)
		}
	}
	if after := e.BucketAccesses(false)[bucket]; after != before {
		t.Fatalf("down machine executed transactions: accesses %d -> %d", before, after)
	}
	if err := m.Crash(1); err == nil {
		t.Fatal("double crash accepted")
	}
	if _, err := m.Restore(0); err == nil {
		t.Fatal("restore of a live machine accepted")
	}
	if !e.MachineDown(1) {
		t.Fatal("machine 1 should be down")
	}
	if got := e.DownMachines(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DownMachines = %v, want [1]", got)
	}
	if _, err := m.Restore(1); err != nil {
		t.Fatal(err)
	}
	if e.MachineDown(1) {
		t.Fatal("machine 1 should be up after restore")
	}
	checkValues(t, e, keys, func(i int) any { return i })
}

// TestStatsAndRecorder checks the manager's counters and their mirror in the
// metrics recorder.
func TestStatsAndRecorder(t *testing.T) {
	e, m := testEngine(t, 2, 2)
	rec, err := metrics.NewRecorder(time.Now(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m.SetRecorder(rec)
	load(t, e, 100)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i += 2 {
		if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Crash(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(0); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Crashes != 1 || st.Recoveries != 1 || st.Checkpoints != 1 {
		t.Fatalf("Stats = %+v, want 1 crash / 1 recovery / 1 checkpoint", st)
	}
	if st.ReplayedCommands == 0 || st.MaxReplayLag == 0 {
		t.Fatalf("Stats = %+v, want replayed commands and max lag > 0", st)
	}
	if st.Downtime <= 0 {
		t.Fatalf("Downtime = %v, want > 0", st.Downtime)
	}
	rc := rec.RecoveryCounters()
	if rc.Crashes != 1 || rc.Recoveries != 1 || rc.Checkpoints != 1 {
		t.Fatalf("RecoveryCounters = %+v, want 1/1/1", rc)
	}
	if rc.ReplayedCommands != st.ReplayedCommands || rc.MaxReplayLag != st.MaxReplayLag {
		t.Fatalf("recorder mirror %+v diverges from manager stats %+v", rc, st)
	}
}
