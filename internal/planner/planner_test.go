package planner

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pstore/internal/migration"
)

func model(q, d float64) migration.Model {
	return migration.Model{Q: q, QMax: q * 1.2, D: d, P: 1}
}

// verifyPlan checks the feasibility invariant the planner promises: the
// predicted load never exceeds the (effective) capacity implied by the plan,
// moves are contiguous from t=0 to the end of the horizon, and the first
// move starts from n0.
func verifyPlan(t *testing.T, m migration.Model, load []float64, p *Plan, n0 int) {
	t.Helper()
	if len(p.Moves) == 0 {
		t.Fatal("plan has no moves")
	}
	if p.Moves[0].Start != 0 || p.Moves[0].From != n0 {
		t.Fatalf("plan does not start at (0, %d): %+v", n0, p.Moves[0])
	}
	last := p.Moves[len(p.Moves)-1]
	if last.End != len(load)-1 {
		t.Fatalf("plan ends at %d, want %d", last.End, len(load)-1)
	}
	if last.To != p.FinalMachines {
		t.Fatalf("FinalMachines %d != last move target %d", p.FinalMachines, last.To)
	}
	if load[0] > m.Cap(n0)+1e-9 {
		t.Fatalf("initial load %v already exceeds cap(%d)", load[0], n0)
	}
	for i, mv := range p.Moves {
		if i > 0 {
			prev := p.Moves[i-1]
			if mv.Start != prev.End || mv.From != prev.To {
				t.Fatalf("moves not contiguous: %v then %v", prev, mv)
			}
		}
		dur := mv.End - mv.Start
		if dur < 1 {
			t.Fatalf("move %v has non-positive duration", mv)
		}
		for k := 1; k <= dur; k++ {
			f := float64(k) / float64(dur)
			cap := m.EffCap(mv.From, mv.To, f)
			if load[mv.Start+k] > cap+1e-9 {
				t.Fatalf("load %v at interval %d exceeds effective capacity %v during move %v",
					load[mv.Start+k], mv.Start+k, cap, mv)
			}
		}
	}
}

func TestBestMovesHoldsWhenSufficient(t *testing.T) {
	m := model(100, 4)
	load := []float64{80, 80, 80, 80, 80, 80}
	p := Planner{Model: m}
	plan, err := p.BestMoves(load, 1)
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, m, load, plan, 1)
	if plan.FinalMachines != 1 {
		t.Errorf("FinalMachines = %d, want 1", plan.FinalMachines)
	}
	if len(plan.Moves) != 1 || plan.Moves[0].IsReconfiguration() {
		t.Errorf("expected one merged hold, got %+v", plan.Moves)
	}
	if plan.Cost != 6 {
		t.Errorf("cost = %v, want 6 machine-intervals", plan.Cost)
	}
	if _, ok := plan.FirstReconfiguration(); ok {
		t.Error("hold-only plan should have no reconfiguration")
	}
}

func TestBestMovesScalesOutBeforeSpike(t *testing.T) {
	// Load is low, then doubles at t=6. D=4 intervals; the planner must
	// start the 1->2 move early enough to complete before the rise.
	m := model(100, 4)
	load := []float64{50, 50, 50, 50, 50, 50, 180, 180, 180, 180}
	p := Planner{Model: m}
	plan, err := p.BestMoves(load, 1)
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, m, load, plan, 1)
	if plan.FinalMachines != 2 {
		t.Errorf("FinalMachines = %d, want 2", plan.FinalMachines)
	}
	mv, ok := plan.FirstReconfiguration()
	if !ok {
		t.Fatal("expected a scale-out move")
	}
	if mv.To != 2 || mv.From != 1 {
		t.Errorf("first reconfiguration %v, want 1->2", mv)
	}
	// T(1,2) = 4 * (1 - 1/2) = 2 intervals; it must end by t=6 but not
	// before it needs to (cost minimization delays it).
	if mv.End > 6 {
		t.Errorf("scale-out ends at %d, after the spike at 6", mv.End)
	}
	if mv.End < 5 {
		t.Errorf("scale-out ends at %d, earlier than necessary", mv.End)
	}
}

func TestBestMovesScalesInWhenLoadDrops(t *testing.T) {
	m := model(100, 4)
	load := []float64{150, 150, 60, 60, 60, 60, 60, 60, 60, 60}
	p := Planner{Model: m}
	plan, err := p.BestMoves(load, 2)
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, m, load, plan, 2)
	if plan.FinalMachines != 1 {
		t.Errorf("FinalMachines = %d, want 1", plan.FinalMachines)
	}
	mv, ok := plan.FirstReconfiguration()
	if !ok {
		t.Fatal("expected a scale-in move")
	}
	if mv.From != 2 || mv.To != 1 {
		t.Errorf("first reconfiguration %v, want 2->1", mv)
	}
	// Scale-in cannot start while load still needs 2 machines, and during
	// the move effective capacity shrinks toward cap(1).
	if mv.Start < 1 {
		t.Errorf("scale-in starts at %d, while load still high", mv.Start)
	}
}

func TestBestMovesInfeasible(t *testing.T) {
	// Load jumps immediately beyond what one machine plus any migration
	// could serve: the planner must report infeasibility.
	m := model(100, 10)
	load := []float64{90, 1000, 1000, 1000}
	p := Planner{Model: m}
	_, err := p.BestMoves(load, 1)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestBestMovesValidation(t *testing.T) {
	m := model(100, 4)
	p := Planner{Model: m}
	if _, err := p.BestMoves([]float64{1}, 1); err == nil {
		t.Error("single-interval load should fail")
	}
	if _, err := p.BestMoves([]float64{1, 1}, 0); err == nil {
		t.Error("n0 = 0 should fail")
	}
	bad := Planner{Model: migration.Model{Q: -1, QMax: 1, D: 1, P: 1}}
	if _, err := bad.BestMoves([]float64{1, 1}, 1); err == nil {
		t.Error("invalid model should fail")
	}
}

func TestBestMovesMaxMachinesCap(t *testing.T) {
	m := model(100, 2)
	load := []float64{50, 50, 50, 50, 950, 950, 950, 950, 950, 950}
	p := Planner{Model: m, MaxMachines: 3}
	if _, err := p.BestMoves(load, 1); !errors.Is(err, ErrInfeasible) {
		t.Error("capped planner should be infeasible for 10-machine load")
	}
	p.MaxMachines = 0
	plan, err := p.BestMoves(load, 1)
	if err != nil {
		t.Fatal(err)
	}
	verifyPlan(t, m, load, plan, 1)
	if plan.FinalMachines != 10 {
		t.Errorf("FinalMachines = %d, want 10", plan.FinalMachines)
	}
}

// bruteForce computes the optimal cost by exhaustive recursion over every
// possible last move, sharing only the cost model with the planner. It is
// exponential, so keep horizons tiny.
func bruteForce(m migration.Model, load []float64, n0, z, t, nodes int) float64 {
	if t < 0 || nodes < 1 || (t == 0 && nodes != n0) {
		return math.Inf(1)
	}
	if load[t] > m.Cap(nodes)+1e-9 {
		return math.Inf(1)
	}
	if t == 0 {
		return float64(nodes)
	}
	best := math.Inf(1)
	for b := 1; b <= z; b++ {
		tm := m.MoveIntervals(b, nodes)
		cm := float64(tm) * m.AvgMachAlloc(b, nodes)
		if tm == 0 {
			tm, cm = 1, float64(b)
		}
		start := t - tm
		if start < 0 {
			continue
		}
		ok := true
		for i := 1; i <= tm; i++ {
			if load[start+i] > m.EffCap(b, nodes, float64(i)/float64(tm))+1e-9 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if c := bruteForce(m, load, n0, z, start, b) + cm; c < best {
			best = c
		}
	}
	return best
}

// TestBestMovesMatchesBruteForce cross-checks the memoized DP against an
// independent exhaustive search on small random instances.
func TestBestMovesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := model(100, 3)
	for trial := 0; trial < 60; trial++ {
		tlen := 4 + rng.Intn(4)
		load := make([]float64, tlen)
		for i := range load {
			load[i] = 20 + 380*rng.Float64()
		}
		n0 := 1 + rng.Intn(3)
		load[0] = math.Min(load[0], m.Cap(n0)) // keep the start feasible sometimes
		p := Planner{Model: m}
		plan, err := p.BestMoves(load, n0)

		peak := 0.0
		for _, v := range load {
			peak = math.Max(peak, v)
		}
		z := max(m.MachinesFor(peak), n0)
		bfBest := math.Inf(1)
		bfNodes := 0
		for i := 1; i <= z; i++ {
			if c := bruteForce(m, load, n0, z, tlen-1, i); !math.IsInf(c, 1) {
				bfBest = c
				bfNodes = i
				break // smallest feasible final size, like Algorithm 1
			}
		}
		if errors.Is(err, ErrInfeasible) {
			if !math.IsInf(bfBest, 1) {
				t.Fatalf("trial %d: planner infeasible but brute force found cost %v", trial, bfBest)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(bfBest, 1) {
			t.Fatalf("trial %d: planner found plan but brute force infeasible", trial)
		}
		if plan.FinalMachines != bfNodes {
			t.Fatalf("trial %d: final machines %d, brute force %d", trial, plan.FinalMachines, bfNodes)
		}
		if math.Abs(plan.Cost-bfBest) > 1e-6 {
			t.Fatalf("trial %d: cost %v, brute force %v", trial, plan.Cost, bfBest)
		}
		verifyPlan(t, m, load, plan, n0)
	}
}

// TestBestMovesPlanAlwaysFeasible fuzzes larger instances and checks the
// feasibility invariant of any returned plan.
func TestBestMovesPlanAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := model(100, 1+5*rng.Float64())
		tlen := 6 + rng.Intn(30)
		load := make([]float64, tlen)
		level := 50 + 100*rng.Float64()
		for i := range load {
			level += 60 * (rng.Float64() - 0.5)
			if level < 10 {
				level = 10
			}
			load[i] = level
		}
		n0 := 1 + rng.Intn(4)
		if load[0] > m.Cap(n0) {
			load[0] = m.Cap(n0) * rng.Float64()
		}
		p := Planner{Model: m}
		plan, err := p.BestMoves(load, n0)
		if errors.Is(err, ErrInfeasible) {
			return true
		}
		if err != nil {
			return false
		}
		// Re-run verifyPlan's logic without t: return false on violation.
		if plan.Moves[0].Start != 0 || plan.Moves[0].From != n0 {
			return false
		}
		if plan.Moves[len(plan.Moves)-1].End != tlen-1 {
			return false
		}
		for i, mv := range plan.Moves {
			if i > 0 && (mv.Start != plan.Moves[i-1].End || mv.From != plan.Moves[i-1].To) {
				return false
			}
			dur := mv.End - mv.Start
			if dur < 1 {
				return false
			}
			for k := 1; k <= dur; k++ {
				if load[mv.Start+k] > m.EffCap(mv.From, mv.To, float64(k)/float64(dur))+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPlanCostNeverExceedsStaticPeak(t *testing.T) {
	// Starting from the peak-sized cluster, the optimal plan can never
	// cost more than statically holding that cluster.
	m := model(100, 4)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		tlen := 10 + rng.Intn(20)
		load := make([]float64, tlen)
		for i := range load {
			load[i] = 400 * rng.Float64()
		}
		peak := 0.0
		for _, v := range load {
			peak = math.Max(peak, v)
		}
		z := m.MachinesFor(peak)
		p := Planner{Model: m}
		plan, err := p.BestMoves(load, z)
		if err != nil {
			t.Fatal(err)
		}
		static := float64(z * tlen)
		if plan.Cost > static+1e-9 {
			t.Errorf("trial %d: plan cost %v exceeds static cost %v", trial, plan.Cost, static)
		}
	}
}

// BenchmarkPlannerDP measures one full dynamic-programming planning pass
// over a 36-interval horizon with a ten-machine ceiling — the work P-Store's
// controller does every monitoring cycle.
func BenchmarkPlannerDP(b *testing.B) {
	model := migration.Model{Q: 285, QMax: 350, D: 15.4, P: 6}
	rng := rand.New(rand.NewSource(4))
	load := make([]float64, 36)
	for i := range load {
		load[i] = 200 + 2500*rng.Float64()
	}
	load[0] = 100
	pl := Planner{Model: model}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.BestMoves(load, 1); err != nil && !errors.Is(err, ErrInfeasible) {
			b.Fatal(err)
		}
	}
}
