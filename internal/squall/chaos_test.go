package squall

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pstore/internal/faults"
	"pstore/internal/store"
)

// chaosConfig is the executor tuning for chaos tests: small chunks so every
// move has many injection points, and fast retries so aborts stay cheap.
func chaosConfig() Config {
	return Config{
		ChunkRows:       30,
		RowCost:         time.Microsecond,
		ChunkOverhead:   20 * time.Microsecond,
		Spacing:         50 * time.Microsecond,
		RateFactor:      1,
		MaxChunkRetries: 3,
		RetryBackoff:    50 * time.Microsecond,
		MaxRetryBackoff: time.Millisecond,
	}
}

// planFingerprint renders the full bucket plan into a comparable string —
// the byte-identity witness of the chaos suite.
func planFingerprint(e *store.Engine) string {
	return fmt.Sprint(e.Plan())
}

// runChaosScript builds a fresh engine + injector at the given seed and
// drives an adaptive reconfiguration script through it: each step starts
// from wherever the previous step (success or rolled-back abort) left the
// cluster. It returns a fingerprint of everything that should be
// deterministic: per-step outcomes, the final plan, and the retry/abort
// counters.
func runChaosScript(t *testing.T, seed int64) string {
	t.Helper()
	e := testEngine(t, 6, 1)
	const keys = 500
	load(t, e, keys)
	inj, err := faults.Parse(fmt.Sprintf("seed=%d,chunk-drop=0.5,chunk-slow=0.05,slow-delay=100us", seed))
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaultInjector(inj)
	ex, err := NewExecutor(e, chaosConfig())
	if err != nil {
		t.Fatal(err)
	}

	fp := ""
	for step, target := range []int{4, 2, 5, 3, 6, 1} {
		from := e.ActiveMachines()
		before := planFingerprint(e)
		err := ex.Reconfigure(from, target, 0)
		if err == nil {
			fp += fmt.Sprintf("step %d: %d->%d ok\n", step, from, target)
		} else {
			var me *MoveError
			if !errors.As(err, &me) {
				t.Fatalf("step %d: error %v is not a *MoveError", step, err)
			}
			if !me.RolledBack {
				t.Fatalf("step %d: abort did not roll back: %v", step, me)
			}
			if got := planFingerprint(e); got != before {
				t.Fatalf("step %d: aborted move did not restore the pre-move plan", step)
			}
			if got := e.ActiveMachines(); got != from {
				t.Fatalf("step %d: machines %d after abort, want %d", step, got, from)
			}
			fp += fmt.Sprintf("step %d: %d->%d abort\n", step, from, target)
		}
		// Conservation invariants hold after every step, success or abort.
		if got := e.TotalRows(); got != keys {
			t.Fatalf("step %d: TotalRows = %d, want %d", step, got, keys)
		}
		sum := 0
		cfg := e.Config()
		for p := 0; p < cfg.MaxMachines*cfg.PartitionsPerMachine; p++ {
			sum += partitionRows(t, e, p)
		}
		if sum != keys {
			t.Fatalf("step %d: sum of partition rows = %d, want %d", step, sum, keys)
		}
	}
	checkAllReadable(t, e, keys)
	st := ex.Stats()
	fp += fmt.Sprintf("final plan %s\nretries %d aborts %d rollback-chunks %d chunks %d\n",
		planFingerprint(e), st.Retries, st.Aborts, st.RollbackChunks, st.ChunksMoved)
	return fp
}

// TestChaosDeterministicFinalPlans is the headline guarantee: three runs of
// the same fault schedule at a fixed seed produce byte-identical outcomes —
// same per-step successes and aborts, same final bucket plan, same retry and
// rollback counters — regardless of goroutine interleaving.
func TestChaosDeterministicFinalPlans(t *testing.T) {
	first := runChaosScript(t, 42)
	if first == "" {
		t.Fatal("empty fingerprint")
	}
	for run := 1; run < 3; run++ {
		if got := runChaosScript(t, 42); got != first {
			t.Fatalf("run %d diverged at seed 42:\n--- run 0:\n%s--- run %d:\n%s", run, first, run, got)
		}
	}
	// The script must actually exercise both outcomes, or the determinism
	// claim is vacuous.
	if !contains(first, "abort") || !contains(first, "ok") {
		t.Fatalf("script exercised only one outcome:\n%s", first)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestChaosCrashedPairCleanAbort is the acceptance scenario: a 100% failure
// rate on one partition pair must end in a clean abort — pre-move plan and
// row counters restored exactly, machine count unchanged, executor reusable.
func TestChaosCrashedPairCleanAbort(t *testing.T) {
	e := testEngine(t, 2, 1)
	const keys = 400
	load(t, e, keys)
	// Scale-out 1 -> 2 with P=2 streams pairs 0->2 and 1->3; pair 0->2 is
	// dead no matter how often a chunk is retried.
	inj, err := faults.Parse("seed=1,crash-pair=0:2")
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaultInjector(inj)
	ex, err := NewExecutor(e, chaosConfig())
	if err != nil {
		t.Fatal(err)
	}

	before := planFingerprint(e)
	rowsBefore := []int{partitionRows(t, e, 0), partitionRows(t, e, 1), partitionRows(t, e, 2), partitionRows(t, e, 3)}
	moveErr := ex.Reconfigure(1, 2, 0)
	if moveErr == nil {
		t.Fatal("reconfiguration over a crashed pair succeeded")
	}
	var me *MoveError
	if !errors.As(moveErr, &me) {
		t.Fatalf("error %v is not a *MoveError", moveErr)
	}
	if !me.RolledBack || me.From != 1 || me.To != 2 {
		t.Fatalf("MoveError %+v, want rolled-back 1->2", me)
	}
	if !errors.Is(moveErr, faults.ErrInjected) {
		t.Errorf("cause does not unwrap to the injected fault: %v", moveErr)
	}
	if got := planFingerprint(e); got != before {
		t.Fatal("pre-move bucket plan not restored exactly")
	}
	for p, want := range rowsBefore {
		if got := partitionRows(t, e, p); got != want {
			t.Errorf("partition %d rows %d after abort, want %d", p, got, want)
		}
	}
	if got := e.ActiveMachines(); got != 1 {
		t.Errorf("machines %d after abort, want 1", got)
	}
	if st := ex.Stats(); st.Aborts != 1 {
		t.Errorf("aborts = %d, want 1", st.Aborts)
	}
	// The surviving pair 1->3 moved chunks that must have been rolled back.
	if st := ex.Stats(); st.ChunksMoved > 0 && st.RollbackChunks != st.ChunksMoved {
		t.Errorf("rollback chunks %d != chunks moved %d", st.RollbackChunks, st.ChunksMoved)
	}
	checkAllReadable(t, e, keys)

	// The executor (and engine) must be immediately reusable: clear the
	// fault plane and run the same move again.
	e.SetFaultInjector(nil)
	if err := ex.Reconfigure(1, 2, 0); err != nil {
		t.Fatalf("reconfiguration after recovered abort: %v", err)
	}
	checkBalanced(t, e, 2)
	checkAllReadable(t, e, keys)
	if got := e.TotalRows(); got != keys {
		t.Errorf("TotalRows = %d, want %d", got, keys)
	}
}

// TestChaosRetryRecovers checks that transient faults are absorbed by the
// retry path: with drops well below the retry budget the move completes,
// retries are counted, and nothing is lost.
func TestChaosRetryRecovers(t *testing.T) {
	e := testEngine(t, 3, 1)
	const keys = 400
	load(t, e, keys)
	cfg := chaosConfig()
	cfg.MaxChunkRetries = 10
	inj, err := faults.Parse("seed=11,chunk-drop=0.4")
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaultInjector(inj)
	ex, err := NewExecutor(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(1, 3, 0); err != nil {
		t.Fatalf("move with drop=0.4 and 10 retries aborted: %v", err)
	}
	st := ex.Stats()
	if st.Retries == 0 {
		t.Error("no retries counted at drop=0.4")
	}
	if st.Aborts != 0 {
		t.Errorf("aborts = %d, want 0", st.Aborts)
	}
	if got := inj.Stats().Fired[faults.ChunkDrop]; got == 0 {
		t.Error("injector reports no drops")
	}
	checkBalanced(t, e, 3)
	checkAllReadable(t, e, keys)
}

// TestChaosMoveTimeout: a stalled fault plane trips the per-move timeout,
// and the abort still rolls back to the pre-move plan.
func TestChaosMoveTimeout(t *testing.T) {
	e := testEngine(t, 2, 1)
	const keys = 300
	load(t, e, keys)
	cfg := chaosConfig()
	cfg.ChunkRows = 10 // many chunks, so the timeout hits a chunk boundary
	cfg.MoveTimeout = 5 * time.Millisecond
	inj, err := faults.Parse("seed=5,stall=1,stall-delay=4ms")
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaultInjector(inj)
	ex, err := NewExecutor(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := planFingerprint(e)
	moveErr := ex.Reconfigure(1, 2, 0)
	if moveErr == nil {
		t.Fatal("stalled move beat a 5ms timeout")
	}
	if !errors.Is(moveErr, ErrMoveTimeout) {
		t.Fatalf("error %v does not unwrap to ErrMoveTimeout", moveErr)
	}
	var me *MoveError
	if !errors.As(moveErr, &me) || !me.RolledBack {
		t.Fatalf("timeout abort not rolled back: %v", moveErr)
	}
	if got := planFingerprint(e); got != before {
		t.Fatal("pre-move plan not restored after timeout abort")
	}
	if got := e.ActiveMachines(); got != 1 {
		t.Errorf("machines %d after timeout abort, want 1", got)
	}
	checkAllReadable(t, e, keys)
	// The aborted move released the executor: the next one is not refused
	// as in progress, whether or not it beats the timeout.
	e.SetFaultInjector(nil)
	if err := ex.Reconfigure(1, 2, 0); errors.Is(err, ErrInProgress) {
		t.Errorf("next move after timeout abort: %v", err)
	}
}

// TestFailedReconfigurationAllowsNext: a reconfiguration that fails on every
// single chunk must leave the executor ready for the next plan — the machine
// count restored and a follow-up move succeeding.
func TestFailedReconfigurationAllowsNext(t *testing.T) {
	e := testEngine(t, 3, 1)
	const keys = 300
	load(t, e, keys)
	inj, err := faults.Parse("seed=2,chunk-drop=1")
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaultInjector(inj)
	ex, err := NewExecutor(e, chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // failing twice in a row must also be fine
		if err := ex.Reconfigure(1, 3, 0); err == nil {
			t.Fatalf("attempt %d: move at drop=1 succeeded", i)
		}
		if got := e.ActiveMachines(); got != 1 {
			t.Fatalf("attempt %d: machines %d, want 1", i, got)
		}
	}
	e.SetFaultInjector(nil)
	if err := ex.Reconfigure(1, 3, 0); err != nil {
		t.Fatalf("subsequent reconfiguration after failures: %v", err)
	}
	checkBalanced(t, e, 3)
	checkAllReadable(t, e, keys)
}

// TestChaosUnderLiveLoad runs faulted reconfigurations (retries and at least
// occasional aborts) under concurrent read traffic and asserts the paper's
// serving invariants hold throughout: no transaction ever observes missing
// data, rows are conserved, and the procedures ran exactly once per
// transaction executed.
func TestChaosUnderLiveLoad(t *testing.T) {
	e, executed := countingEngine(t, 4, 1)
	const keys = 300
	load(t, e, keys)
	cfg := chaosConfig()
	cfg.MaxChunkRetries = 2
	inj, err := faults.Parse("seed=9,chunk-drop=0.45,chunk-slow=0.1,slow-delay=100us")
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaultInjector(inj)
	ex, err := NewExecutor(e, cfg)
	if err != nil {
		t.Fatal(err)
	}

	executed.Store(0) // clear loader traffic
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	counts := make([]int64, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := c
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k-%d", i%keys)
				if v, err := e.Execute("get", key, nil); err != nil || v != i%keys {
					errCh <- fmt.Errorf("key %s: v=%v err=%v", key, v, err)
					return
				}
				counts[c]++
				i += 7
			}
		}(c)
	}

	aborts := 0
	for _, target := range []int{4, 2, 3, 1, 4} {
		from := e.ActiveMachines()
		if from == target {
			continue
		}
		if err := ex.Reconfigure(from, target, 0); err != nil {
			var me *MoveError
			if !errors.As(err, &me) || !me.RolledBack {
				t.Fatalf("move %d->%d: unrecovered failure %v", from, target, err)
			}
			aborts++
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("live load failed during chaos: %v", err)
	default:
	}

	checkAllReadable(t, e, keys)
	if got := e.TotalRows(); got != keys {
		t.Errorf("TotalRows = %d, want %d", got, keys)
	}
	// Execution conservation: the count was reset before the workers
	// started, and the readability sweep above added keys gets of its own.
	var want int64 = keys
	for _, n := range counts {
		want += n
	}
	if got := executed.Load(); got != want {
		t.Errorf("procedures ran %d times, want %d executed transactions", got, want)
	}
	t.Logf("chaos under load: %d aborts, stats %+v, injector %+v", aborts, ex.Stats(), inj.Stats())
}

// partitionRows counts the rows a partition holds, as a checkpoint of it
// would see them.
func partitionRows(t *testing.T, e *store.Engine, part int) int {
	t.Helper()
	snaps, err := e.SnapshotPartition(part)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, s := range snaps {
		rows += s.Rows
	}
	return rows
}
