package elastic

import (
	"slices"
	"testing"

	"pstore/internal/migration"
	"pstore/internal/predictor"
	"pstore/internal/workload"
)

func model() migration.Model {
	return migration.Model{Q: 285, QMax: 350, D: 15, P: 6}
}

func TestStaticNeverMoves(t *testing.T) {
	var s Static
	for i := 0; i < 10; i++ {
		d, err := s.Tick(4, false, float64(i*1000))
		if err != nil || d != nil {
			t.Fatalf("static decided %v, %v", d, err)
		}
	}
}

func TestSimpleSchedule(t *testing.T) {
	s := &Simple{SlotsPerDay: 24, MorningSlot: 8, NightSlot: 20, DayMachines: 6, NightMachines: 2}
	var targets []int
	for i := 0; i < 48; i++ {
		d, err := s.Tick(currentOf(targets, 2), false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			targets = append(targets, d.Target)
		}
	}
	// Two days: morning up, night down, twice.
	want := []int{6, 2, 6, 2}
	if len(targets) != len(want) {
		t.Fatalf("decisions = %v, want %v", targets, want)
	}
	for i := range want {
		if targets[i] != want[i] {
			t.Fatalf("decisions = %v, want %v", targets, want)
		}
	}
}

// currentOf returns the machine count implied by previously executed
// decisions (instant moves for this unit test).
func currentOf(targets []int, initial int) int {
	if len(targets) == 0 {
		return initial
	}
	return targets[len(targets)-1]
}

func TestSimpleValidation(t *testing.T) {
	bad := &Simple{SlotsPerDay: 0}
	if _, err := bad.Tick(1, false, 0); err == nil {
		t.Error("invalid Simple config accepted")
	}
}

func TestSimpleHoldsDuringReconfig(t *testing.T) {
	s := &Simple{SlotsPerDay: 4, MorningSlot: 1, NightSlot: 3, DayMachines: 5, NightMachines: 1}
	s.tick = 1 // inside the day window
	if d, _ := s.Tick(1, true, 0); d != nil {
		t.Error("Simple decided during reconfiguration")
	}
}

func TestReactiveScaleOutOnOverload(t *testing.T) {
	r := &Reactive{Model: model()}
	// 2 machines, load beyond 1.05*QMax*2 = 735.
	if d, err := r.Tick(2, false, 700); err != nil || d != nil {
		t.Fatalf("decision below the reactive threshold: %v, %v", d, err)
	}
	// Overload must persist for ScaleOutConfirm cycles before the reactive
	// controller notices (E-Store's detection lag).
	for i := 0; i < 2; i++ {
		if d, err := r.Tick(2, false, 950); err != nil || d != nil {
			t.Fatalf("reacted before the overload persisted (cycle %d): %v, %v", i, d, err)
		}
	}
	d, err := r.Tick(2, false, 950)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("no scale-out on sustained overload")
	}
	// target = ceil(950*1.1/285) = 4.
	if d.Target != 4 {
		t.Errorf("target = %d, want 4", d.Target)
	}
}

func TestReactiveScaleInNeedsStreak(t *testing.T) {
	r := &Reactive{Model: model(), ScaleInConfirm: 3}
	for i := 0; i < 2; i++ {
		if d, _ := r.Tick(4, false, 100); d != nil {
			t.Fatalf("scaled in after only %d low intervals", i+1)
		}
	}
	d, err := r.Tick(4, false, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Target >= 4 {
		t.Fatalf("expected scale-in decision, got %v", d)
	}
	// A busy interval resets the streak.
	r2 := &Reactive{Model: model(), ScaleInConfirm: 2}
	if d, _ := r2.Tick(4, false, 100); d != nil {
		t.Fatal("premature scale-in")
	}
	if d, _ := r2.Tick(4, false, 900); d != nil {
		t.Fatal("unexpected decision at normal load")
	}
	if d, _ := r2.Tick(4, false, 100); d != nil {
		t.Fatal("streak should have been reset")
	}
	// Scale-in is considered below 0.5·Q per machine: 4 × 142.5 = 570 here.
	for _, tc := range []struct {
		load float64
		want int // target after the streak; 0 = no decision ever
	}{
		{574, 0}, // 143.5 per machine: never scales in
		{566, 3}, // 141.5 per machine: scales in once the streak completes
	} {
		r := &Reactive{Model: model(), ScaleInConfirm: 3}
		var d *Decision
		for i := 0; i < 10 && d == nil; i++ {
			d, _ = r.Tick(4, false, tc.load)
			if d != nil && i < 2 {
				t.Fatalf("load %v: scaled in after only %d low intervals", tc.load, i+1)
			}
		}
		got := 0
		if d != nil {
			got = d.Target
		}
		if got != tc.want {
			t.Errorf("load %v: scale-in target %d after 10 intervals, want %d (0 = none)", tc.load, got, tc.want)
		}
	}
}

func TestReactiveRespectsMaxMachines(t *testing.T) {
	r := &Reactive{Model: model(), MaxMachines: 3}
	d, err := r.Tick(3, false, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Errorf("reactive exceeded MaxMachines: %+v", d)
	}
}

func TestReactiveInvalidModel(t *testing.T) {
	r := &Reactive{Model: migration.Model{}}
	if _, err := r.Tick(1, false, 10); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestPredictiveValidation(t *testing.T) {
	p := &Predictive{Model: model(), Horizon: 10}
	if _, err := p.Tick(1, false, 10); err == nil {
		t.Error("missing predictor accepted")
	}
	p = &Predictive{Model: model(), Horizon: 1, Predictor: predictor.NewOnline(predictor.NewOracle([]float64{1}), 0, 0)}
	if _, err := p.Tick(1, false, 10); err == nil {
		t.Error("horizon 1 accepted")
	}
}

func TestPredictiveScaleInConfirmation(t *testing.T) {
	// Constant low load on 2 machines: the planner will call for 2 -> 1,
	// but only after ScaleInConfirm cycles may a decision be emitted.
	trace := make([]float64, 200)
	for i := range trace {
		trace[i] = 100
	}
	o := predictor.NewOnline(predictor.NewOracle(trace), 0, 0)
	if err := o.ObserveAll(nil); err != nil {
		t.Fatal(err)
	}
	p := &Predictive{
		Model:          model(),
		Predictor:      o,
		Horizon:        10,
		ScaleInConfirm: 3,
	}
	decisions := 0
	for i := 0; i < 3; i++ {
		d, err := p.Tick(2, false, trace[i])
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			decisions++
			if i < 2 {
				t.Fatalf("scale-in decided on cycle %d, before confirmation", i)
			}
			if d.Target != 1 {
				t.Errorf("target = %d, want 1", d.Target)
			}
		}
	}
	if decisions != 1 {
		t.Errorf("decisions = %d, want exactly 1 after confirmation", decisions)
	}
}

func TestPredictiveScaleOutAheadOfRise(t *testing.T) {
	// Load is flat then doubles. With an oracle predictor the controller
	// must start the scale-out before the rise arrives.
	trace := make([]float64, 60)
	for i := range trace {
		if i < 30 {
			trace[i] = 200
		} else {
			trace[i] = 520
		}
	}
	o := predictor.NewOnline(predictor.NewOracle(trace), 0, 0)
	if err := o.ObserveAll(nil); err != nil {
		t.Fatal(err)
	}
	p := &Predictive{
		Model:     model(),
		Predictor: o,
		Horizon:   20,
		Inflation: 0,
	}
	decidedAt := -1
	for i := 0; i < 30; i++ {
		d, err := p.Tick(1, false, trace[i])
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			decidedAt = i
			if d.Target != 2 {
				t.Errorf("target = %d, want 2", d.Target)
			}
			break
		}
	}
	if decidedAt == -1 {
		t.Fatal("controller never scaled out")
	}
	if decidedAt >= 30 {
		t.Errorf("scale-out at %d, after the rise", decidedAt)
	}
	// Not absurdly early either: T(1,2) = ceil(15/6 * 0.5) = 2 intervals,
	// so the decision should come within the horizon of the rise.
	if decidedAt < 30-20 {
		t.Errorf("scale-out at %d, before the rise was even visible", decidedAt)
	}
}

func TestPredictiveEmergencyOnSpike(t *testing.T) {
	// A spike the planner cannot provision for in time must trigger the
	// emergency path with the configured rate policy: the load jumps to
	// ten machines' worth one interval from now, but any move from one
	// machine needs several intervals and its effective capacity during
	// migration is far below the spike.
	trace := make([]float64, 40)
	for i := range trace {
		if i < 1 {
			trace[i] = 200
		} else {
			trace[i] = 2600 // needs 10 machines immediately
		}
	}
	for _, policy := range []SpikePolicy{SpikeRegularRate, SpikeFastRate} {
		o := predictor.NewOnline(predictor.NewOracle(trace), 0, 0)
		if err := o.ObserveAll(nil); err != nil {
			t.Fatal(err)
		}
		p := &Predictive{
			Model:     model(),
			Predictor: o,
			Horizon:   8,
			OnSpike:   policy,
		}
		var got *Decision
		for i := 0; i < 10 && got == nil; i++ {
			d, err := p.Tick(1, false, trace[i])
			if err != nil {
				t.Fatal(err)
			}
			got = d
		}
		if got == nil {
			t.Fatalf("policy %v: no emergency decision", policy)
		}
		if !got.Emergency {
			t.Errorf("policy %v: decision not marked emergency", policy)
		}
		wantRate := 1.0
		if policy == SpikeFastRate {
			wantRate = 8
		}
		if got.RateFactor != wantRate {
			t.Errorf("policy %v: rate = %v, want %v", policy, got.RateFactor, wantRate)
		}
		if got.Target != 10 {
			t.Errorf("policy %v: target = %d, want 10", policy, got.Target)
		}
	}
}

func TestPredictiveHoldsDuringReconfig(t *testing.T) {
	trace := make([]float64, 50)
	o := predictor.NewOnline(predictor.NewOracle(trace), 0, 0)
	if err := o.ObserveAll(nil); err != nil {
		t.Fatal(err)
	}
	p := &Predictive{Model: model(), Predictor: o, Horizon: 10}
	d, err := p.Tick(2, true, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Error("predictive decided while reconfiguring")
	}
}

// TestNewPStoreConfirmAndRefit pins the P-Store recipe: a scale-in confirmed
// over 6 cycles, and SPAR refit weekly — its forecasts match a never-refit
// twin's until the week's last observation and differ after it.
func TestNewPStoreConfirmAndRefit(t *testing.T) {
	const cycle, period = 5, workload.MinutesPerDay / 5
	full, err := workload.SyntheticB2W(workload.DefaultB2WConfig(1, 35))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPStore(model(), full.Slice(0, 28*workload.MinutesPerDay), cycle, 0, SpikeRegularRate)
	if err != nil {
		t.Fatal(err)
	}
	if p.ScaleInConfirm != 6 {
		t.Errorf("ScaleInConfirm = %d, want 6", p.ScaleInConfirm)
	}
	five, err := full.Resample(cycle)
	if err != nil {
		t.Fatal(err)
	}
	twin := predictor.NewOnline(predictor.NewSPAR(period, 7, 6), 0, 9*period)
	if err := twin.ObserveAll(five.Values[:28*period]); err != nil {
		t.Fatal(err)
	}
	same := func() bool {
		a, err := p.Predictor.Forecast(p.Horizon)
		if err != nil {
			t.Fatal(err)
		}
		b, err := twin.Forecast(p.Horizon)
		if err != nil {
			t.Fatal(err)
		}
		return slices.Equal(a, b)
	}
	week := 7 * period
	for i, v := range five.Values[28*period : 28*period+week] {
		if i == week-1 && !same() {
			t.Fatalf("forecasts differ after %d observations: refit before the week was out", i)
		}
		if err := p.Predictor.Observe(v); err != nil {
			t.Fatal(err)
		}
		if err := twin.Observe(v); err != nil {
			t.Fatal(err)
		}
	}
	if same() {
		t.Fatal("forecasts unchanged after a week of observations: no weekly refit")
	}
}
