package squall

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/store"
)

func testEngine(t *testing.T, machines, initial int) *store.Engine {
	t.Helper()
	e, _ := countingEngine(t, machines, initial)
	return e
}

// countingEngine is testEngine plus the number of times its procedures ran.
func countingEngine(t *testing.T, machines, initial int) (*store.Engine, *atomic.Int64) {
	t.Helper()
	executed := new(atomic.Int64)
	cfg := store.Config{
		MaxMachines:          machines,
		PartitionsPerMachine: 2,
		Buckets:              240,
		ServiceTime:          0,
		QueueCapacity:        4096,
		InitialMachines:      initial,
	}
	e, err := store.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register("put", store.Proc(func(tx *store.Tx, args int) (any, error) {
		executed.Add(1)
		return nil, tx.Put("kv", tx.Key, args)
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("get", store.Proc(func(tx *store.Tx, _ store.NoArgs) (any, error) {
		executed.Add(1)
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
	return e, executed
}

func load(t *testing.T, e *store.Engine, keys int) {
	t.Helper()
	for i := 0; i < keys; i++ {
		if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
}

func fastConfig() Config {
	return Config{
		ChunkRows:     50,
		RowCost:       time.Microsecond,
		ChunkOverhead: 50 * time.Microsecond,
		Spacing:       100 * time.Microsecond,
		RateFactor:    1,
	}
}

func checkBalanced(t *testing.T, e *store.Engine, machines int) {
	t.Helper()
	cfg := e.Config()
	parts := machines * cfg.PartitionsPerMachine
	want := cfg.Buckets / parts
	for part := 0; part < cfg.MaxMachines*cfg.PartitionsPerMachine; part++ {
		n := len(e.OwnedBuckets(part))
		if part < parts {
			if n < want-1 || n > want+1 {
				t.Errorf("partition %d owns %d buckets, want ~%d", part, n, want)
			}
		} else if n != 0 {
			t.Errorf("inactive partition %d owns %d buckets", part, n)
		}
	}
}

func checkAllReadable(t *testing.T, e *store.Engine, keys int) {
	t.Helper()
	for i := 0; i < keys; i++ {
		v, err := e.Execute("get", fmt.Sprintf("k-%d", i), nil)
		if err != nil {
			t.Fatalf("key k-%d unreadable after reconfiguration: %v", i, err)
		}
		if v != i {
			t.Fatalf("k-%d = %v, want %d", i, v, i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{ChunkRows: 0},
		{ChunkRows: 1, RowCost: -1},
		{ChunkRows: 1, Spacing: -1},
		{ChunkRows: 1, RateFactor: -1},
		{ChunkRows: 1, RateFactor: math.NaN()},
		{ChunkRows: 1, RateFactor: math.Inf(1)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestReconfigureRefusesNonFiniteRate: a NaN or infinite rate factor would
// turn chunk spacing off; Reconfigure refuses it before anything moves.
func TestReconfigureRefusesNonFiniteRate(t *testing.T) {
	e := testEngine(t, 3, 1)
	load(t, e, 100)
	ex, err := NewExecutor(e, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := ex.Reconfigure(1, 2, rate); err == nil {
			t.Errorf("Reconfigure at rate %v accepted", rate)
		}
	}
	if got := e.ActiveMachines(); got != 1 {
		t.Fatalf("ActiveMachines = %d after refused moves, want 1", got)
	}
}

func TestReconfigureScaleOut(t *testing.T) {
	e := testEngine(t, 5, 1)
	load(t, e, 500)
	ex, err := NewExecutor(e, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(1, 3, 0); err != nil {
		t.Fatal(err)
	}
	if e.ActiveMachines() != 3 {
		t.Fatalf("ActiveMachines = %d, want 3", e.ActiveMachines())
	}
	checkBalanced(t, e, 3)
	checkAllReadable(t, e, 500)
	if got := e.TotalRows(); got != 500 {
		t.Fatalf("TotalRows = %d, want 500", got)
	}
}

func TestReconfigureScaleIn(t *testing.T) {
	e := testEngine(t, 5, 1)
	load(t, e, 400)
	ex, err := NewExecutor(e, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(1, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(4, 2, 0); err != nil {
		t.Fatal(err)
	}
	if e.ActiveMachines() != 2 {
		t.Fatalf("ActiveMachines = %d, want 2", e.ActiveMachines())
	}
	checkBalanced(t, e, 2)
	checkAllReadable(t, e, 400)
}

func TestReconfigureThreePhase(t *testing.T) {
	// 1 -> 5 with delta=4 > B=1 and r = 0; then 3 -> 5 (case 1); then the
	// genuinely three-phase 3 -> 14 shape is covered in migration tests,
	// here exercise 2 -> 5 (delta=3, r=1: three phases at machine level).
	e := testEngine(t, 5, 2)
	load(t, e, 600)
	ex, err := NewExecutor(e, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(2, 5, 0); err != nil {
		t.Fatal(err)
	}
	checkBalanced(t, e, 5)
	checkAllReadable(t, e, 600)
}

func TestReconfigureNoOp(t *testing.T) {
	e := testEngine(t, 3, 2)
	ex, err := NewExecutor(e, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(2, 2, 0); err != nil {
		t.Fatal(err)
	}
	if e.ActiveMachines() != 2 {
		t.Errorf("ActiveMachines changed on no-op")
	}
}

func TestReconfigureValidation(t *testing.T) {
	e := testEngine(t, 3, 2)
	ex, err := NewExecutor(e, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(2, 9, 0); err == nil {
		t.Error("target beyond MaxMachines accepted")
	}
	if err := ex.Reconfigure(3, 2, 0); err == nil {
		t.Error("mismatched current machine count accepted")
	}
	if _, err := NewExecutor(e, Config{ChunkRows: 0}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestReconfigureUnderLiveLoad(t *testing.T) {
	e := testEngine(t, 4, 1)
	const keys = 400
	load(t, e, keys)
	ex, err := NewExecutor(e, fastConfig())
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
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
				i += 3
			}
		}(c)
	}

	if err := ex.Reconfigure(1, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := ex.Reconfigure(4, 2, 0); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("live load failed during reconfiguration: %v", err)
	default:
	}
	checkAllReadable(t, e, keys)
}

func TestRateFactorSpeedsUpMigration(t *testing.T) {
	cfg := fastConfig()
	// Many small chunks with a wide spacing so the inter-chunk gap
	// dominates the migration time and the x8 rate shows unambiguously.
	cfg.ChunkRows = 2
	cfg.Spacing = 10 * time.Millisecond
	run := func(rate float64) time.Duration {
		e := testEngine(t, 2, 1)
		load(t, e, 300)
		ex, err := NewExecutor(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := ex.Reconfigure(1, 2, rate); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	slow := run(1)
	fast := run(8)
	if fast >= slow {
		t.Errorf("rate x8 (%v) not faster than rate x1 (%v)", fast, slow)
	}
}
