package elastic

import (
	"errors"
	"math"
	"testing"

	"pstore/internal/migration"
	"pstore/internal/predictor"
)

// conformanceLoad is the shared replay: a diurnal wave with a flash spike
// steep enough to push Predictive into its emergency path and Reactive past
// its thresholds.
func conformanceLoad(i int) float64 {
	day := 1 + 0.9*math.Sin(2*math.Pi*float64(i)/96)
	v := 250 * day
	if i >= 300 && i < 340 { // unforecastable flash crowd
		v *= 3.5
	}
	return v
}

// conformanceControllers builds a fresh instance of every Controller
// implementation, shared by the conformance replays.
func conformanceControllers(t *testing.T, m migration.Model, maxMachines, steps int, load func(int) float64) map[string]func() Controller {
	t.Helper()
	return map[string]func() Controller{
		"static": func() Controller { return Static{} },
		"simple": func() Controller {
			return &Simple{SlotsPerDay: 96, MorningSlot: 32, NightSlot: 80, DayMachines: 6, NightMachines: 2}
		},
		"reactive": func() Controller {
			return &Reactive{Model: m, MaxMachines: maxMachines}
		},
		"predictive": func() Controller {
			trace := make([]float64, steps+64)
			for i := range trace {
				trace[i] = load(i) // oracle of the diurnal part incl. spike
			}
			online := predictor.NewOnline(predictor.NewOracle(trace), 0, 0)
			if err := online.ObserveAll(nil); err != nil {
				t.Fatal(err)
			}
			return &Predictive{
				Model: m, Predictor: online,
				Horizon: 12, Inflation: 0.15, ScaleInConfirm: 3,
				MaxMachines: maxMachines, OnSpike: SpikeFastRate,
			}
		},
		"predictive-surprised": func() Controller {
			// A predictor that never sees the spike coming, to force the
			// emergency path: it forecasts the flat diurnal base only.
			trace := make([]float64, steps+64)
			for i := range trace {
				trace[i] = 250
			}
			online := predictor.NewOnline(predictor.NewOracle(trace), 0, 0)
			if err := online.ObserveAll(nil); err != nil {
				t.Fatal(err)
			}
			return &Predictive{
				Model: m, Predictor: online,
				Horizon: 12, Inflation: 0.15, ScaleInConfirm: 3,
				MaxMachines: maxMachines, OnSpike: SpikeRegularRate,
			}
		},
	}
}

// TestControllerConformance runs every Controller implementation through
// the same varied load replay and asserts the documented contract:
//
//  1. Tick never returns a Decision while reconfiguring is true.
//  2. Every Decision's Target is >= 1 and <= the configured maximum.
//
// Reconfiguring ticks interleave the way the cluster runtime does: a
// decision keeps the cluster "reconfiguring" for the following ticks while
// the move drains.
func TestControllerConformance(t *testing.T) {
	const (
		maxMachines = 8
		steps       = 600
		moveTicks   = 3 // ticks a simulated move stays in flight
	)
	m := migration.Model{Q: 100, QMax: 130, D: 4, P: 2}
	load := conformanceLoad

	for name, fresh := range conformanceControllers(t, m, maxMachines, steps, load) {
		t.Run(name, func(t *testing.T) {
			ctrl := fresh()
			machines := 2
			inFlight := 0 // remaining ticks of a simulated move
			decisions := 0
			for i := 0; i < steps; i++ {
				reconfiguring := inFlight > 0
				dec, err := ctrl.Tick(machines, reconfiguring, load(i))
				if err != nil {
					t.Fatalf("tick %d: %v", i, err)
				}
				if dec == nil {
					if inFlight > 0 {
						inFlight--
						if inFlight == 0 {
							// The move lands; nothing else to do — target
							// was applied when the decision was made.
						}
					}
					continue
				}
				if reconfiguring {
					t.Fatalf("tick %d: decision %+v returned while reconfiguring", i, dec)
				}
				decisions++
				if dec.Target < 1 {
					t.Fatalf("tick %d: decision target %d below 1", i, dec.Target)
				}
				if dec.Target > maxMachines {
					t.Fatalf("tick %d: decision target %d above max %d", i, dec.Target, maxMachines)
				}
				if dec.RateFactor < 0 {
					t.Fatalf("tick %d: negative rate factor %v", i, dec.RateFactor)
				}
				machines = dec.Target
				inFlight = moveTicks
			}
			// Every non-static strategy must actually have exercised the
			// contract; a replay with zero decisions proves nothing.
			if name != "static" && decisions == 0 {
				t.Fatalf("%s made no decisions over %d steps", name, steps)
			}
		})
	}
}

// TestControllerConformanceUnderMoveFailures is the fault axis of the
// conformance suite: the same replay, but every other move the controller
// starts fails and rolls back — the machine count stays where it was, and
// controllers that implement MoveObserver are told, exactly the way the
// cluster runtime delivers outcomes. The contract under faults:
//
//  1. Tick never errors and never decides while reconfiguring, no matter how
//     many moves die.
//  2. Targets stay within [1, max] — failure handling must not panic-scale.
//  3. Every non-static controller keeps emitting decisions after failures
//     (a controller that wedges after its first dead move fails the test,
//     since the replay's spike forces later scale-outs).
func TestControllerConformanceUnderMoveFailures(t *testing.T) {
	const (
		maxMachines = 8
		steps       = 600
		moveTicks   = 3
	)
	m := migration.Model{Q: 100, QMax: 130, D: 4, P: 2}
	load := conformanceLoad

	for name, fresh := range conformanceControllers(t, m, maxMachines, steps, load) {
		t.Run(name, func(t *testing.T) {
			ctrl := fresh()
			machines := 2
			inFlight := 0
			pending := 0 // target of the in-flight move
			moveSeq := 0
			decisions, failures, afterFailure := 0, 0, 0
			for i := 0; i < steps; i++ {
				reconfiguring := inFlight > 0
				dec, err := ctrl.Tick(machines, reconfiguring, load(i))
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
					if failures > 0 {
						afterFailure++
					}
					moveSeq++
					pending = dec.Target
					inFlight = moveTicks
					continue
				}
				if inFlight > 0 {
					inFlight--
					if inFlight == 0 {
						if moveSeq%2 == 1 {
							// The move aborts and rolls back: machines stays.
							failures++
							if obs, ok := ctrl.(MoveObserver); ok {
								obs.MoveResult(pending, errors.New("elastic_test: injected move failure"))
							}
						} else {
							machines = pending
							if obs, ok := ctrl.(MoveObserver); ok {
								obs.MoveResult(pending, nil)
							}
						}
					}
				}
			}
			if name == "static" {
				return
			}
			if decisions == 0 {
				t.Fatalf("%s made no decisions over %d faulted steps", name, steps)
			}
			if failures == 0 {
				t.Fatalf("%s never had a move fail — fault axis not exercised", name)
			}
			if afterFailure == 0 {
				t.Fatalf("%s wedged after its first failed move: no decisions followed %d failures", name, failures)
			}
		})
	}
}

// TestControllerConformanceUnderMachineCrash is the capacity-loss axis of
// the conformance suite: the same replay, but a machine crashes mid-window —
// during a move, and with the flash crowd arriving while the machine is
// still down. The harness mirrors the cluster runtime's contract: Tick sees
// the *effective* cluster size (one less while down), FailureObserver
// controllers get MachineFailed/MachineRecovered on the tick goroutine, and
// the in-flight move at crash time aborts with a rollback. The contract:
//
//  1. Tick never errors and never decides while reconfiguring, before,
//     during or after the crash — no controller may deadlock or wedge.
//  2. Targets stay within [1, max] at every point.
//  3. Every non-static controller keeps emitting decisions after the crash
//     (the spike hits during the outage, so scale-outs are mandatory).
func TestControllerConformanceUnderMachineCrash(t *testing.T) {
	const (
		maxMachines = 8
		steps       = 600
		moveTicks   = 3
		crashTick   = 290 // while the diurnal wave is high, just before the spike
		recoverTick = 350 // the flash crowd (300-340) lands entirely in the outage
	)
	m := migration.Model{Q: 100, QMax: 130, D: 4, P: 2}
	load := conformanceLoad

	for name, fresh := range conformanceControllers(t, m, maxMachines, steps, load) {
		t.Run(name, func(t *testing.T) {
			ctrl := fresh()
			machines := 2 // effective (serving) machines, as the runtime reports
			inFlight := 0
			pending := 0
			down := false
			decisions, afterCrash := 0, 0
			for i := 0; i < steps; i++ {
				switch i {
				case crashTick:
					down = true
					if machines > 1 {
						machines--
					}
					if inFlight > 0 {
						// The move touching the dead machine aborts and
						// rolls back, exactly as the cluster delivers it.
						inFlight = 0
						if obs, ok := ctrl.(MoveObserver); ok {
							obs.MoveResult(pending, errors.New("elastic_test: machine crashed mid-move"))
						}
					}
					if obs, ok := ctrl.(FailureObserver); ok {
						obs.MachineFailed(machines)
					}
				case recoverTick:
					down = false
					if machines < maxMachines {
						machines++
					}
					if obs, ok := ctrl.(FailureObserver); ok {
						obs.MachineRecovered(machines - 1)
					}
				}
				reconfiguring := inFlight > 0
				dec, err := ctrl.Tick(machines, reconfiguring, load(i))
				if err != nil {
					t.Fatalf("tick %d (down=%v): %v", i, down, err)
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
					if i > crashTick {
						afterCrash++
					}
					pending = dec.Target
					inFlight = moveTicks
					continue
				}
				if inFlight > 0 {
					inFlight--
					if inFlight == 0 {
						machines = pending
						if obs, ok := ctrl.(MoveObserver); ok {
							obs.MoveResult(pending, nil)
						}
					}
				}
			}
			if name == "static" {
				return
			}
			if decisions == 0 {
				t.Fatalf("%s made no decisions over %d crashed steps", name, steps)
			}
			if afterCrash == 0 {
				t.Fatalf("%s wedged after the machine crash: no decisions followed tick %d", name, crashTick)
			}
		})
	}
}

// TestControllerConformanceAlwaysReconfiguring pins the first contract rule
// in isolation: a controller that is told a move is running on every single
// tick must never decide, no matter what the load does.
func TestControllerConformanceAlwaysReconfiguring(t *testing.T) {
	m := migration.Model{Q: 100, QMax: 130, D: 4, P: 2}
	online := predictor.NewOnline(predictor.NewOracle(make([]float64, 256)), 0, 0)
	if err := online.ObserveAll(nil); err != nil {
		t.Fatal(err)
	}
	controllers := map[string]Controller{
		"static":     Static{},
		"simple":     &Simple{SlotsPerDay: 24, MorningSlot: 8, NightSlot: 20, DayMachines: 6, NightMachines: 2},
		"reactive":   &Reactive{Model: m, MaxMachines: 8},
		"predictive": &Predictive{Model: m, Predictor: online, Horizon: 12, MaxMachines: 8},
	}
	for name, ctrl := range controllers {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				dec, err := ctrl.Tick(3, true, float64(1000*(i%7)))
				if err != nil {
					t.Fatalf("tick %d: %v", i, err)
				}
				if dec != nil {
					t.Fatalf("tick %d: decision %+v while reconfiguring", i, dec)
				}
			}
		})
	}
}
