package elastic

import (
	"errors"
	"testing"

	"pstore/internal/migration"
	"pstore/internal/predictor"
)

// TestPredictiveFallbackAfterFailedMove pins the misprediction semantics of
// a dead move: the controller discards its plan, hands the next
// fallbackCycles ticks to an eager reactive policy, flags fallback
// scale-outs as emergencies at the rate-R x 8 escape hatch, and returns to
// predictive planning once the window drains.
func TestPredictiveFallbackAfterFailedMove(t *testing.T) {
	m := migration.Model{Q: 100, QMax: 130, D: 4, P: 2}
	trace := make([]float64, 256)
	for i := range trace {
		trace[i] = 150
	}
	online := predictor.NewOnline(predictor.NewOracle(trace), 0, 0)
	if err := online.ObserveAll(nil); err != nil {
		t.Fatal(err)
	}
	ctrl := &Predictive{
		Model: m, Predictor: online,
		Horizon: 12, MaxMachines: 8,
	}

	// Steady state first: the flat forecast needs 2 machines, so nothing to
	// do at 2.
	if dec, err := ctrl.Tick(2, false, 150); err != nil || dec != nil {
		t.Fatalf("steady tick decided %+v, %v", dec, err)
	}
	if ctrl.InFallback() {
		t.Fatal("in fallback before any failure")
	}

	// A scale-out move dies.
	ctrl.MoveResult(4, errors.New("elastic_test: move aborted"))
	if !ctrl.InFallback() {
		t.Fatal("not in fallback after a failed move")
	}
	if got := ctrl.FailedMoves(); got != 1 {
		t.Fatalf("FailedMoves = %d, want 1", got)
	}
	if ctrl.LastPlan() != nil {
		t.Fatal("failed move did not discard the plan")
	}

	// Fallback tick 1 under heavy observed load: the reactive policy must
	// decide immediately (ScaleOutConfirm 1) and the decision must carry the
	// emergency rate override.
	dec, err := ctrl.Tick(2, false, 800)
	if err != nil {
		t.Fatal(err)
	}
	if dec == nil {
		t.Fatal("fallback tick under overload decided nothing")
	}
	if dec.Target != 4 { // MaxStep default 2 caps 2 -> 4
		t.Errorf("fallback target %d, want 4", dec.Target)
	}
	if !dec.Emergency || dec.RateFactor != 8 {
		t.Errorf("fallback scale-out %+v, want Emergency at rate 8", dec)
	}

	// The rest of the window at a load 4 machines fit: no decision, and the
	// window is then drained.
	for i := 1; i < fallbackCycles; i++ {
		if !ctrl.InFallback() {
			t.Fatalf("fallback ended after %d ticks, want %d", i, fallbackCycles)
		}
		if dec, err := ctrl.Tick(4, false, 350); err != nil || dec != nil {
			t.Fatalf("draining fallback tick %d decided %+v, %v", i+1, dec, err)
		}
	}
	if ctrl.InFallback() {
		t.Fatal("still in fallback after fallbackCycles ticks")
	}

	// Back to predictive planning: the flat 150 forecast on 4 machines plans
	// a scale-in, which shows up as a fresh plan (the decision itself waits
	// for ScaleInConfirm).
	if _, err := ctrl.Tick(4, false, 150); err != nil {
		t.Fatal(err)
	}
	if ctrl.LastPlan() == nil {
		t.Fatal("controller did not resume predictive planning after fallback")
	}

	// A successful move must not trigger fallback.
	ctrl.MoveResult(2, nil)
	if ctrl.InFallback() || ctrl.FailedMoves() != 1 {
		t.Fatalf("successful move counted as failure: fallback=%v failed=%d", ctrl.InFallback(), ctrl.FailedMoves())
	}
}
