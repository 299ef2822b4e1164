package recovery_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pstore/internal/recovery"
	"pstore/internal/squall"
	"pstore/internal/store"
)

// chaosSquallConfig is fast and deterministic: no timeout (a timeout makes
// the abort point timing-dependent) and no spacing.
func chaosSquallConfig() squall.Config {
	return squall.Config{
		ChunkRows:       50,
		RateFactor:      1,
		MaxChunkRetries: 2,
	}
}

// runCrashChaosScript executes one fixed scripted run of the crash plane
// under live load and returns a fingerprint of everything that must be
// deterministic: each step's outcome, the final bucket plan, row counts and
// a full value checksum. Wall-clock dependent quantities (downtime, worker
// throughput) are asserted per run but kept out of the fingerprint.
func runCrashChaosScript(t *testing.T) string {
	return runCrashChaosScriptCfg(t, recovery.Config{})
}

// runCrashChaosScriptCfg is the script with an explicit recovery
// configuration — the chaos suite's data-dir axis. The fingerprint contains
// nothing medium-dependent, so a disk-backed run must reproduce the
// in-memory run exactly.
func runCrashChaosScriptCfg(t *testing.T, rcfg recovery.Config) string {
	t.Helper()
	const (
		keys    = 600
		workers = 8
	)
	e, m, executed := countingEngine(t, 4, 2, rcfg)
	ex, err := squall.NewExecutor(e, chaosSquallConfig())
	if err != nil {
		t.Fatal(err)
	}
	load(t, e, keys)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Live load: workers hammer reads of existing keys for the whole script.
	// Requests that land on a down machine fail with ErrPartitionDown and
	// execute nothing; anything else must succeed.
	getID, _ := e.Handle("get")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var liveErrs atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i = (i + workers) % keys {
				select {
				case <-stop:
					return
				default:
				}
				_, err := e.ExecuteID(getID, fmt.Sprintf("k-%d", i), nil)
				if err != nil && !errors.Is(err, store.ErrPartitionDown) {
					liveErrs.Add(1)
					return
				}
			}
		}(w)
	}

	var fp strings.Builder
	step := func(name string, err error) {
		// Outcome identity, not error prose: wrapped errors carry partition
		// ids which are deterministic, but keep the fingerprint coarse.
		outcome := "ok"
		if err != nil {
			outcome = "err"
			if errors.Is(err, store.ErrPartitionDown) {
				outcome = "down"
			}
		}
		fmt.Fprintf(&fp, "%s=%s;", name, outcome)
	}

	// The script: grow, lose a machine, grow around the loss, refuse an
	// illegal drain, shrink around the loss, recover, rebalance.
	step("grow-2-3", ex.Reconfigure(2, 3, 0))
	step("crash-1", m.Crash(1))

	// Zero transactions execute on a down machine: probe a key owned by
	// machine 1 and check its bucket's log head stays frozen.
	key, bucket := downKey(t, e, 1, keys)
	before := m.LogHead(bucket)
	for i := 0; i < 3; i++ {
		if _, err := e.ExecuteID(getID, key, nil); !errors.Is(err, store.ErrPartitionDown) {
			t.Fatalf("down-machine get: err = %v, want ErrPartitionDown", err)
		}
	}
	if after := m.LogHead(bucket); after != before {
		t.Fatalf("down machine executed transactions: bucket %d log head %d -> %d", bucket, before, after)
	}

	step("grow-3-4", ex.Reconfigure(3, 4, 0))
	// Draining the dead machine is refused before any chunk moves.
	step("shrink-4-1", ex.Reconfigure(4, 1, 0))
	// Shrinking around it works: machine 1 survives (frozen), 2 and 3 drain.
	step("shrink-4-2", ex.Reconfigure(4, 2, 0))

	st, err := m.Restore(1)
	step("restore-1", err)
	fmt.Fprintf(&fp, "replayed>0=%v;", st.Replayed > 0)
	step("grow-2-3b", ex.Reconfigure(2, 3, 0))

	close(stop)
	wg.Wait()
	if n := liveErrs.Load(); n != 0 {
		t.Fatalf("%d live-load transactions failed with unexpected errors", n)
	}

	// Conservation: every submitted transaction either executed exactly once
	// (one procedure run, counted in Completed) or failed without executing
	// (Errored, no run). The only other runs are the restore's replays. The
	// workers only read existing keys, so no executed transaction errors.
	c := e.Counters()
	if runs := executed.Load(); runs != c.Completed+int64(st.Replayed) {
		t.Fatalf("procedures ran %d times, want %d completed transactions + %d replayed", runs, c.Completed, st.Replayed)
	}
	if c.Submitted != c.Completed+c.Errored {
		t.Fatalf("submitted %d != completed %d + errored %d", c.Submitted, c.Completed, c.Errored)
	}

	// All data is intact and placed per the final plan.
	if rows := e.TotalRows(); rows != keys {
		t.Fatalf("TotalRows = %d, want %d", rows, keys)
	}
	checkValues(t, e, keys, func(i int) any { return i })

	// Final plan + per-bucket placement + value checksum.
	sum := 0
	for i := 0; i < keys; i++ {
		v, err := e.ExecuteID(getID, fmt.Sprintf("k-%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += v.(int) * (i + 1)
	}
	fmt.Fprintf(&fp, "checksum=%d;machines=%d;plan=", sum, e.ActiveMachines())
	for _, p := range e.Plan() {
		fmt.Fprintf(&fp, "%d,", p)
	}
	return fp.String()
}

// TestCrashChaosDeterministic is the acceptance gate of the crash plane: a
// fixed scripted run with machine crashes, recoveries and live load produces
// a byte-identical bucket plan (and data checksum) across three repeats,
// conserves row and access counters after replay, and never executes a
// transaction on a down machine.
func TestCrashChaosDeterministic(t *testing.T) {
	first := runCrashChaosScript(t)
	for rep := 1; rep < 3; rep++ {
		if got := runCrashChaosScript(t); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs first:\n%s", rep+1, got, first)
		}
	}
}

// TestCrashChaosDiskMatchesMemory is the chaos suite's data-dir axis: the
// same scripted run, backed by the on-disk WAL, must produce the exact
// fingerprint of the in-memory oracle — same step outcomes, same restored
// data, same final plan.
func TestCrashChaosDiskMatchesMemory(t *testing.T) {
	mem := runCrashChaosScript(t)
	disk := runCrashChaosScriptCfg(t, recovery.Config{DataDir: t.TempDir()})
	if disk != mem {
		t.Fatalf("disk-backed run diverged from oracle:\n%s\nvs\n%s", disk, mem)
	}
}

// TestCrashDuringMoveAborts pins the interaction between the crash plane and
// the migration journal at engine level: when the receiving machine dies
// mid-move, the move aborts and the rollback path (which down partitions
// must not refuse) restores the exact pre-move plan.
func TestCrashDuringMoveAborts(t *testing.T) {
	e, m := testEngine(t, 2, 1)
	const keys = 400
	load(t, e, keys)
	ex, err := squall.NewExecutor(e, chaosSquallConfig())
	if err != nil {
		t.Fatal(err)
	}
	planBefore := e.Plan()

	// Crash the receiver after the third offered chunk, from the move path
	// itself so the crash lands mid-stream deterministically.
	var offered atomic.Int64
	e.SetFaultInjector(faultFunc(func(op store.MoveOp) error {
		if op.Rollback {
			return nil
		}
		if offered.Add(1) == 3 {
			if err := m.Crash(1); err != nil {
				return err
			}
		}
		return nil
	}))

	err = ex.Reconfigure(1, 2, 0)
	var me *squall.MoveError
	if !errors.As(err, &me) {
		t.Fatalf("Reconfigure = %v, want *squall.MoveError", err)
	}
	if !me.RolledBack {
		t.Fatalf("move not rolled back: %v", me)
	}
	if !errors.Is(err, store.ErrPartitionDown) {
		t.Fatalf("abort cause = %v, want ErrPartitionDown", me.Cause)
	}
	if got := e.Plan(); !planEqual(got, planBefore) {
		t.Fatal("bucket plan not restored exactly after receiver crash")
	}
	if got := e.ActiveMachines(); got != 1 {
		t.Fatalf("ActiveMachines = %d, want 1", got)
	}
	if rows := e.TotalRows(); rows != keys {
		t.Fatalf("TotalRows = %d, want %d", rows, keys)
	}

	// Recovery brings the machine back and the next attempt lands.
	e.SetFaultInjector(nil)
	if _, err := m.Restore(1); err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	checkValues(t, e, keys, func(i int) any { return i })
}

// faultFunc adapts a function to store.FaultInjector.
type faultFunc func(store.MoveOp) error

func (f faultFunc) BeforeMove(op store.MoveOp) error { return f(op) }

func planEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
