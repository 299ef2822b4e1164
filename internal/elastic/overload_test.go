package elastic

import (
	"testing"
	"time"

	"pstore/internal/migration"
	"pstore/internal/predictor"
)

func overloadSig() OverloadSignal {
	return OverloadSignal{Rejected: 40, DeadlineExceeded: 3, QueueDelay: 80 * time.Millisecond}
}

func TestOverloadSignalRefused(t *testing.T) {
	if got := (OverloadSignal{}).Refused(); got != 0 {
		t.Errorf("zero signal Refused() = %d", got)
	}
	if got := overloadSig().Refused(); got != 43 {
		t.Errorf("Refused() = %d, want 43", got)
	}
}

// TestReactiveOverloadedEmergency pins the Reactive observer semantics: the
// backpressure signal bypasses both the threshold test and the confirmation
// streak. The load here is far below HighFraction*QMax — measurement alone
// would never trigger — yet one overloaded cycle forces an emergency
// scale-out on the next tick.
func TestReactiveOverloadedEmergency(t *testing.T) {
	m := migration.Model{Q: 100, QMax: 130, D: 4, P: 2}
	r := &Reactive{Model: m, MaxMachines: 8}
	const machines, load = 2, 200 // 100/machine, under the 169 threshold

	if dec, err := r.Tick(machines, false, load); err != nil || dec != nil {
		t.Fatalf("quiet tick: dec=%+v err=%v", dec, err)
	}
	r.Overloaded(overloadSig())
	dec, err := r.Tick(machines, false, load)
	if err != nil {
		t.Fatal(err)
	}
	if dec == nil || !dec.Emergency || dec.RateFactor != 8 {
		t.Fatalf("post-overload tick: %+v, want emergency at rate 8", dec)
	}
	if dec.Target <= machines {
		t.Fatalf("emergency target %d did not add capacity to %d machines", dec.Target, machines)
	}

	// The pending flag is one-shot: the next tick is quiet again.
	if dec, err := r.Tick(dec.Target, false, load); err != nil || dec != nil {
		t.Fatalf("tick after emergency: dec=%+v err=%v", dec, err)
	}
	// A zero signal must not arm it.
	r.Overloaded(OverloadSignal{})
	if dec, err := r.Tick(machines, false, load); err != nil || dec != nil {
		t.Fatalf("tick after zero signal: dec=%+v err=%v", dec, err)
	}
	// A reconfiguring tick consumes the flag: the refusals happened while a
	// move was already adding capacity, so they are not fresh evidence.
	r.Overloaded(overloadSig())
	if dec, err := r.Tick(machines, true, load); err != nil || dec != nil {
		t.Fatalf("reconfiguring tick: dec=%+v err=%v", dec, err)
	}
	if dec, err := r.Tick(machines, false, load); err != nil || dec != nil {
		t.Fatalf("tick after reconfiguring consumed the flag: dec=%+v err=%v", dec, err)
	}
}

// TestPredictiveOverloadedFallback pins the Predictive observer semantics:
// one overloaded cycle is tolerated (the queues absorb transients), two
// consecutive ones discard the horizon plan and enter the reactive fallback;
// while in fallback the signal is forwarded so backpressure keeps working
// even with the load measurement pinned at the throughput ceiling.
func TestPredictiveOverloadedFallback(t *testing.T) {
	m := migration.Model{Q: 100, QMax: 130, D: 4, P: 2}
	trace := make([]float64, 256)
	for i := range trace {
		trace[i] = 250
	}
	online := predictor.NewOnline(predictor.NewOracle(trace), 0, 0)
	if err := online.ObserveAll(nil); err != nil {
		t.Fatal(err)
	}
	p := &Predictive{Model: m, Predictor: online, Horizon: 12, MaxMachines: 8}

	if p.InFallback() {
		t.Fatal("fresh controller in fallback")
	}
	p.Overloaded(overloadSig())
	if p.InFallback() {
		t.Fatal("single overloaded cycle entered fallback")
	}
	p.Overloaded(OverloadSignal{}) // a quiet cycle resets the streak
	p.Overloaded(overloadSig())
	if p.InFallback() {
		t.Fatal("streak survived a quiet cycle")
	}
	p.Overloaded(overloadSig())
	p.Overloaded(overloadSig())
	if !p.InFallback() {
		t.Fatal("two consecutive overloaded cycles did not enter fallback")
	}

	// In fallback with load visibly past the threshold: the decision must be
	// the emergency escape hatch.
	dec, err := p.Tick(3, false, 700)
	if err != nil {
		t.Fatal(err)
	}
	if dec == nil || !dec.Emergency || dec.RateFactor != 8 || dec.Target <= 3 {
		t.Fatalf("fallback tick at load 700: %+v, want emergency scale-out at rate 8", dec)
	}

	// Still in fallback, load pinned below threshold (saturated measurement):
	// only the forwarded signal can drive the next scale-out.
	machines := dec.Target
	p.Overloaded(overloadSig())
	dec, err = p.Tick(machines, false, 250)
	if err != nil {
		t.Fatal(err)
	}
	if dec == nil || !dec.Emergency || dec.Target <= machines {
		t.Fatalf("forwarded-signal tick: %+v, want emergency past %d machines", dec, machines)
	}
}

// TestControllerConformanceUnderOverload is the overload axis of the
// conformance suite: the replay holds the cluster at 2x saturation for a
// sustained window. Saturation is what makes this axis different from the
// load-spike replays — the measured load pins at capacity (throughput cannot
// exceed it), so threshold detection goes blind and only the OverloadSignal
// carries the evidence. The contract:
//
//  1. Tick never errors and never decides while reconfiguring, with the
//     signal delivered every cycle (zero included) the way the runtime does.
//  2. Targets stay within [1, max] no matter how long the refusals persist.
//  3. Every OverloadObserver controller scales out during the window (an
//     observer that ignores sustained backpressure fails the axis).
//  4. The replay returns to steady state: once refusals stop, no controller
//     keeps issuing emergency decisions.
func TestControllerConformanceUnderOverload(t *testing.T) {
	const (
		maxMachines = 8
		steps       = 500
		moveTicks   = 3
		windowStart = 200
		windowEnd   = 280
		quietAfter  = 350 // well past the window: emergencies here are churn
	)
	m := migration.Model{Q: 100, QMax: 130, D: 4, P: 2}
	base := func(int) float64 { return 250 } // what predictors can foresee

	observers := map[string]bool{}
	for name, fresh := range conformanceControllers(t, m, maxMachines, steps, base) {
		t.Run(name, func(t *testing.T) {
			ctrl := fresh()
			_, isObserver := ctrl.(OverloadObserver)
			observers[name] = isObserver
			machines := 2
			inFlight := 0
			pending := 0
			decisions, emergencies, lateEmergencies := 0, 0, 0
			for i := 0; i < steps; i++ {
				overloaded := i >= windowStart && i < windowEnd
				capacity := float64(machines) * m.QMax
				measured := 250.0
				if overloaded {
					// Offered load is 2x whatever the cluster can take, so
					// the measurement saturates and the surplus is refused.
					measured = capacity
				}
				if obs, ok := ctrl.(OverloadObserver); ok {
					sig := OverloadSignal{}
					if overloaded {
						sig = OverloadSignal{Rejected: int64(capacity), QueueDelay: 100 * time.Millisecond}
					}
					obs.Overloaded(sig)
				}
				reconfiguring := inFlight > 0
				dec, err := ctrl.Tick(machines, reconfiguring, measured)
				if err != nil {
					t.Fatalf("tick %d: %v", i, err)
				}
				if dec != nil {
					if reconfiguring {
						t.Fatalf("tick %d: decision %+v returned while reconfiguring", i, dec)
					}
					if dec.Target < 1 || dec.Target > maxMachines {
						t.Fatalf("tick %d: decision target %d outside [1, %d]", i, dec.Target, maxMachines)
					}
					if dec.RateFactor < 0 {
						t.Fatalf("tick %d: negative rate factor %v", i, dec.RateFactor)
					}
					decisions++
					if dec.Emergency {
						emergencies++
						if i >= quietAfter {
							lateEmergencies++
						}
					}
					pending = dec.Target
					inFlight = moveTicks
					continue
				}
				if inFlight > 0 {
					inFlight--
					if inFlight == 0 {
						machines = pending
					}
				}
			}
			if isObserver && emergencies == 0 {
				t.Fatalf("%s observes overload but issued no emergency decision across a %d-tick saturation window",
					name, windowEnd-windowStart)
			}
			if lateEmergencies > 0 {
				t.Fatalf("%s issued %d emergency decisions after tick %d — did not return to steady state",
					name, lateEmergencies, quietAfter)
			}
		})
	}
	// The axis is vacuous unless it actually covered both kinds.
	if !observers["reactive"] || !observers["predictive"] {
		t.Fatalf("reactive/predictive no longer implement OverloadObserver: %+v", observers)
	}
	if observers["static"] {
		t.Fatal("static unexpectedly implements OverloadObserver; the non-observer leg is uncovered")
	}
}
