// The recovery tests live in an external package: the crash-chaos suite
// drives migration through internal/squall, whose transport layer imports
// recovery — an in-package test would close an import cycle.
package recovery_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"pstore/internal/hash"
	"pstore/internal/recovery"
	"pstore/internal/store"
)

// engineConfig is what a test varies about the engine newEngine starts.
type engineConfig struct {
	store    store.Config
	register func(*store.Engine) error
	recovery recovery.Config
}

// newEngine starts an engine with a recovery manager, attached before any
// data loads, as required. By default the engine has 2 machines of 2
// partitions, 1 of them active, over 240 buckets, runs registerKV's
// procedures on int values and logs in memory; each adjust changes that in
// turn. tb's cleanup stops both.
func newEngine(tb testing.TB, adjust ...func(*engineConfig)) (*store.Engine, *recovery.Manager) {
	tb.Helper()
	cfg := engineConfig{
		store:    store.Config{MaxMachines: 2, InitialMachines: 1, PartitionsPerMachine: 2, Buckets: 240, QueueCapacity: 256},
		register: registerKV[int](nil),
	}
	for _, f := range adjust {
		f(&cfg)
	}
	e, err := store.NewEngine(cfg.store)
	if err != nil {
		tb.Fatal(err)
	}
	if err := cfg.register(e); err != nil {
		tb.Fatal(err)
	}
	m, err := recovery.New(e, cfg.recovery)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	e.Start()
	tb.Cleanup(e.Stop)
	return e, m
}

// machines sizes the engine at max machines, initial of them active.
func machines(max, initial int) func(*engineConfig) {
	return func(cfg *engineConfig) { cfg.store.MaxMachines, cfg.store.InitialMachines = max, initial }
}

// logTo gives the engine the log rcfg describes — the data-dir axis: the
// same scripts run against the in-memory oracle and the disk-backed store.
func logTo(rcfg recovery.Config) func(*engineConfig) {
	return func(cfg *engineConfig) { cfg.recovery = rcfg }
}

// counting adds one to executed each time a procedure runs, live or replayed.
func counting(executed *atomic.Int64) func(*engineConfig) {
	return func(cfg *engineConfig) { cfg.register = registerKV[int](executed) }
}

// registerKV registers put of a V, get and del on table T, each counted on
// executed when it is not nil. The memory store replays the V a put was given;
// the disk store replays the V it decodes from its log, so the oracle
// comparisons see the same rows.
func registerKV[V any](executed *atomic.Int64) func(*store.Engine) error {
	count := func() {
		if executed != nil {
			executed.Add(1)
		}
	}
	return func(e *store.Engine) error {
		if err := e.Register("put", store.Proc(func(tx *store.Tx, args V) (any, error) {
			count()
			return nil, tx.Put("T", tx.Key, args)
		})); err != nil {
			return err
		}
		if err := e.Register("get", store.Proc(func(tx *store.Tx, _ store.NoArgs) (any, error) {
			count()
			v, _, err := tx.Get("T", tx.Key)
			return v, err
		})); err != nil {
			return err
		}
		return e.Register("del", store.Proc(func(tx *store.Tx, _ store.NoArgs) (any, error) {
			count()
			return nil, tx.Delete("T", tx.Key)
		}))
	}
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
	e, m := newEngine(t, machines(2, 2))
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
	e, m := newEngine(t, machines(2, 2))
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
	e, m := newEngine(t, machines(2, 1))
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
	e, m := newEngine(t, machines(2, 1))
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
// machine fail with ErrPartitionDown, execute nothing (nothing is logged),
// and double-crash / restore-of-live are refused.
func TestDownSemantics(t *testing.T) {
	e, m := newEngine(t, machines(2, 2))
	const keys = 200
	load(t, e, keys)
	key, bucket := downKey(t, e, 1, keys)
	if err := m.Crash(1); err != nil {
		t.Fatal(err)
	}
	before := m.LogHead(bucket)
	for i := 0; i < 5; i++ {
		if _, err := e.Execute("get", key, nil); !errors.Is(err, store.ErrPartitionDown) {
			t.Fatalf("get on down machine: err = %v, want ErrPartitionDown", err)
		}
	}
	if after := m.LogHead(bucket); after != before {
		t.Fatalf("down machine executed transactions: log head %d -> %d", before, after)
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

// TestStatsAndRecorder checks the manager's counters, the one place its
// checkpoints, crashes and recoveries are counted.
func TestStatsAndRecorder(t *testing.T) {
	e, m := newEngine(t, machines(2, 2))
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
}
