package recovery_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pstore/internal/recovery"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/store/storetest"
	"pstore/internal/wal"
)

// runRestoreScript is a fixed deterministic workload ending in a crash and
// restore: load, checkpoint, overwrite a third of the keys (command tail),
// delete a few, crash machine 1, restore it. Returns the restore stats with
// the wall-clock field zeroed, so two runs compare byte for byte.
func runRestoreScript(t *testing.T, rcfg recovery.Config) (recovery.RestoreStats, *store.Engine) {
	t.Helper()
	e, m := testEngineCfg(t, 2, 2, rcfg)
	const keys = 300
	load(t, e, keys)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i += 3 {
		if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i*10); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < keys; i += 50 {
		if _, err := e.Execute("del", fmt.Sprintf("k-%d", i), nil); err != nil {
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
	st.Downtime = 0
	st.ReplayWall = 0
	return st, e
}

// TestDiskRestoreMatchesOracle runs the restore script against the
// in-memory oracle and against a disk-backed store (real filesystem), and
// requires byte-for-byte identical RestoreStats plus identical recovered
// data. This is the disk path's correctness gate: replaying from segment
// files and image files must be indistinguishable from replaying from
// process memory.
func TestDiskRestoreMatchesOracle(t *testing.T) {
	oracle, eMem := runRestoreScript(t, recovery.Config{})
	disk, eDisk := runRestoreScript(t, recovery.Config{DataDir: t.TempDir()})
	if disk != oracle {
		t.Fatalf("disk RestoreStats %+v != oracle %+v", disk, oracle)
	}
	if got, want := eDisk.TotalRows(), eMem.TotalRows(); got != want {
		t.Fatalf("disk TotalRows = %d, oracle %d", got, want)
	}
	const keys = 300
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k-%d", i)
		vm, errM := eMem.Execute("get", k, nil)
		vd, errD := eDisk.Execute("get", k, nil)
		if (errM == nil) != (errD == nil) || vm != vd {
			t.Fatalf("%s: disk (%v, %v) vs oracle (%v, %v)", k, vd, errD, vm, errM)
		}
	}
}

// TestColdStartRebuildsEngine is the full death-and-rebirth cycle: run a
// workload with migration against a data directory, close the process's
// state, then cold-start a brand-new engine from the directory alone and
// require the exact plan, active-machine count, row counts and values.
func TestColdStartRebuildsEngine(t *testing.T) {
	dir := t.TempDir()
	const keys = 400

	// Life 1: load, checkpoint, migrate (plan change hits the log), keep
	// writing past the checkpoint, then die without any shutdown courtesy.
	e1, m1 := testEngineCfg(t, 3, 2, recovery.Config{DataDir: dir})
	load(t, e1, keys)
	if _, err := m1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ex, err := squall.NewExecutor(e1, chaosSquallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(2, 3, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i += 2 {
		if _, err := e1.Execute("put", fmt.Sprintf("k-%d", i), i+7); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Err(); err != nil {
		t.Fatalf("life 1 latched a log error: %v", err)
	}
	wantPlan := e1.Plan()
	wantActive := e1.ActiveMachines()
	wantRows := e1.TotalRows()
	e1.Stop()
	m1.Close()

	// Life 2: a fresh process over the same directory.
	e2, m2 := testEngineCfg(t, 3, 2, recovery.Config{DataDir: dir})
	if !m2.HasColdState() {
		t.Fatal("HasColdState = false over a populated directory")
	}
	st, err := m2.ColdStart()
	if err != nil {
		t.Fatalf("ColdStart: %v", err)
	}
	if st.Machines != 3 || st.Partitions != 6 {
		t.Fatalf("ColdStart rebuilt %d machines / %d partitions, want 3/6", st.Machines, st.Partitions)
	}
	if !st.PlanRecovered {
		t.Fatal("ColdStart did not recover a plan")
	}
	if st.Replayed == 0 {
		t.Fatal("ColdStart replayed nothing despite a post-checkpoint tail")
	}
	if st.LogBytes == 0 {
		t.Fatal("ColdStart reports zero on-disk log bytes")
	}
	if !planEqual(e2.Plan(), wantPlan) {
		t.Fatal("cold-started plan differs from the plan the process died with")
	}
	if got := e2.ActiveMachines(); got != wantActive {
		t.Fatalf("ActiveMachines = %d, want %d", got, wantActive)
	}
	if got := e2.TotalRows(); got != wantRows {
		t.Fatalf("TotalRows = %d, want %d", got, wantRows)
	}
	checkValues(t, e2, keys, func(i int) any {
		if i%2 == 0 {
			return i + 7
		}
		return i
	})

	// The reborn engine is live: it accepts writes and can checkpoint its
	// recovered state as the new baseline.
	if _, err := e2.Execute("put", "k-0", 12345); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Err(); err != nil {
		t.Fatalf("life 2 latched a log error: %v", err)
	}
}

// TestColdStartSurvivesRestartChain runs three lives back to back, writing
// in each, proving LSN continuity and compaction survive repeated cold
// starts.
func TestColdStartSurvivesRestartChain(t *testing.T) {
	dir := t.TempDir()
	const keys = 120
	want := make(map[int]int, keys)

	for life := 0; life < 3; life++ {
		e, m := testEngineCfg(t, 2, 2, recovery.Config{DataDir: dir})
		if life == 0 {
			load(t, e, keys)
			for i := 0; i < keys; i++ {
				want[i] = i
			}
		} else {
			if !m.HasColdState() {
				t.Fatalf("life %d: no cold state", life)
			}
			if _, err := m.ColdStart(); err != nil {
				t.Fatalf("life %d: ColdStart: %v", life, err)
			}
		}
		checkValues(t, e, keys, func(i int) any { return want[i] })
		// Overwrite a rotating slice of keys; checkpoint on even lives so
		// some lives die with a tail, some with fresh images.
		for i := life; i < keys; i += 3 {
			v := i*100 + life
			if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), v); err != nil {
				t.Fatal(err)
			}
			want[i] = v
		}
		if life%2 == 0 {
			if _, err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Err(); err != nil {
			t.Fatalf("life %d: log error: %v", life, err)
		}
		e.Stop()
		m.Close()
	}

	e, m := testEngineCfg(t, 2, 2, recovery.Config{DataDir: dir})
	if _, err := m.ColdStart(); err != nil {
		t.Fatal(err)
	}
	checkValues(t, e, keys, func(i int) any { return want[i] })
}

// TestLogSizeCounters pins the satellite fix: LogSize and LogBytes read
// atomic counters and track append/checkpoint activity on both stores.
func TestLogSizeCounters(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  recovery.Config
	}{
		{"mem", recovery.Config{}},
		{"disk", recovery.Config{DataDir: ""}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "disk" {
				tc.cfg.DataDir = t.TempDir()
			}
			e, m := testEngineCfg(t, 2, 2, tc.cfg)
			load(t, e, 150)
			if got := m.LogSize(); got != 150 {
				t.Fatalf("LogSize after load = %d, want 150", got)
			}
			if tc.name == "disk" && m.LogBytes() == 0 {
				t.Fatal("disk LogBytes = 0 after 150 appends")
			}
			if _, err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if got := m.LogSize(); got != 0 {
				t.Fatalf("LogSize after checkpoint = %d, want 0", got)
			}
			if _, err := e.Execute("put", "k-0", 1); err != nil {
				t.Fatal(err)
			}
			if got := m.LogSize(); got != 1 {
				t.Fatalf("LogSize after one more put = %d, want 1", got)
			}
		})
	}
}

// TestLogSizeAfterReplicaBaseline: LogSize is what the log holds. A replica's
// baseline stands for records this log never appended — taking them off a
// count that never had them left a follower reporting "-2009 records
// retained" — so a fresh store holds nothing after the install, and then
// exactly the records it accepts on top.
func TestLogSizeAfterReplicaBaseline(t *testing.T) {
	primary, _ := testEngineCfg(t, 2, 2, recovery.Config{})
	load(t, primary, 150)
	var snaps []store.BucketSnapshot
	for part := 0; part < 4; part++ {
		ps, err := primary.SnapshotPartition(part)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, ps...)
	}

	e, m := testEngineCfg(t, 2, 2, recovery.Config{DataDir: t.TempDir()})
	if err := m.InstallReplicaBaseline(snaps); err != nil {
		t.Fatal(err)
	}
	if got := m.LogSize(); got != 0 {
		t.Fatalf("LogSize after a replica baseline on a fresh store = %d, want 0", got)
	}
	put, _ := e.Handle("put")
	const accepted = 25
	var ticket uint64
	for i := 0; i < accepted; i++ {
		var err error
		if ticket, err = m.AppendCommand(snaps[i%len(snaps)].Bucket, put, fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WaitDurable(ticket); err != nil {
		t.Fatal(err)
	}
	if got := m.LogSize(); got != accepted {
		t.Fatalf("LogSize after %d accepted records = %d", accepted, got)
	}
}

// TestDiskReplayWithoutArgsDecoder: the log holds args as JSON, and only the
// engine's decoder can make them the value a procedure asserts again. An
// engine that registered none fails the replay of a record that carries args,
// naming what is missing; it never hands the procedure JSON's generic
// decoding (a float64, a map) in place of the int it was written for.
func TestDiskReplayWithoutArgsDecoder(t *testing.T) {
	e, err := store.NewEngine(store.Config{
		MaxMachines: 1, InitialMachines: 1, PartitionsPerMachine: 1, Buckets: 8, QueueCapacity: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var handed []string
	if err := e.Register("put", func(tx *store.Tx) (any, error) {
		mu.Lock()
		handed = append(handed, fmt.Sprintf("%T", tx.Args))
		mu.Unlock()
		return nil, tx.Put("T", tx.Key, tx.Args)
	}); err != nil {
		t.Fatal(err)
	}
	m, err := recovery.New(e, recovery.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	e.Start()
	defer e.Stop()
	if _, err := e.Execute("put", "k", 7); err != nil {
		t.Fatal(err)
	}
	if err := m.Crash(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(0); err == nil || !strings.Contains(err.Error(), "no args decoder") {
		t.Fatalf("Restore = %v, want a refusal naming the missing args decoder", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(handed) != 1 || handed[0] != "int" {
		t.Fatalf("put was handed %v, want the one int of its live execution", handed)
	}
}

// TestOversizeRecordFailsOnlyItsTransaction: a command too large for any ship
// batch is refused by the log. Its transaction fails unexecuted; the store is
// not latched, the bucket's LSNs stay contiguous, and the next transaction on
// the same key commits and replays.
func TestOversizeRecordFailsOnlyItsTransaction(t *testing.T) {
	e, err := store.NewEngine(store.Config{
		MaxMachines: 1, InitialMachines: 1, PartitionsPerMachine: 1, Buckets: 8, QueueCapacity: 16,
	})
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
	if err := e.SetArgsDecoder(storetest.Args[string]); err != nil {
		t.Fatal(err)
	}
	m, err := recovery.New(e, recovery.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	e.Start()
	defer e.Stop()
	if _, err := e.Execute("put", "k", "small"); err != nil {
		t.Fatal(err)
	}
	_, err = e.Execute("put", "k", strings.Repeat("x", wal.MaxRecordBytes))
	if !errors.Is(err, store.ErrCommitFailed) || !errors.Is(err, wal.ErrRecordRefused) {
		t.Fatalf("oversize put: %v, want a commit failure naming the refused record", err)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("the refusal latched the store: %v", err)
	}
	if v, err := e.Execute("get", "k", nil); err != nil || v != "small" {
		t.Fatalf("after the refusal k = %v (%v): the oversize put ran", v, err)
	}
	if _, err := e.Execute("put", "k", "after"); err != nil {
		t.Fatalf("put after the refusal: %v", err)
	}
	if err := m.Crash(0); err != nil {
		t.Fatal(err)
	}
	if st, err := m.Restore(0); err != nil || st.Replayed != 3 {
		t.Fatalf("Restore replayed %d records (%v), want the 3 that were logged, LSNs contiguous", st.Replayed, err)
	}
	if v, err := e.Execute("get", "k", nil); err != nil || v != "after" {
		t.Fatalf("after replay k = %v (%v), want the last committed put", v, err)
	}
}
