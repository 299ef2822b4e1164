package migration

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func testModel() Model { return Model{Q: 285, QMax: 350, D: 77, P: 6} }

func TestModelValidate(t *testing.T) {
	if err := testModel().Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := []Model{
		{Q: 0, QMax: 1, D: 1, P: 1},
		{Q: 2, QMax: 1, D: 1, P: 1},
		{Q: 1, QMax: 1, D: -1, P: 1},
		{Q: 1, QMax: 1, D: 1, P: 0},
		{Q: math.NaN(), QMax: 1, D: 1, P: 1},
		{Q: 1, QMax: math.NaN(), D: 1, P: 1},
		{Q: 1, QMax: 1, D: math.NaN(), P: 1},
		{Q: math.Inf(1), QMax: math.Inf(1), D: 1, P: 1},
		{Q: 1, QMax: math.Inf(1), D: 1, P: 1},
		{Q: 1, QMax: 1, D: math.Inf(1), P: 1},
		{Q: math.Inf(-1), QMax: 1, D: 1, P: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestMaxParallelEquation2(t *testing.T) {
	m := Model{Q: 1, QMax: 1, D: 1, P: 1}
	cases := []struct{ b, a, want int }{
		{3, 3, 0},
		{3, 5, 2},   // min(3, 2) = 2
		{3, 9, 3},   // min(3, 6) = 3
		{3, 14, 3},  // min(3, 11) = 3
		{14, 3, 3},  // scale-in: min(3, 11) = 3
		{5, 3, 2},   // min(3, 2) = 2
		{10, 11, 1}, // min(10, 1) = 1
	}
	for _, c := range cases {
		if got := m.MaxParallel(c.b, c.a); got != c.want {
			t.Errorf("MaxParallel(%d, %d) = %d, want %d", c.b, c.a, got, c.want)
		}
	}
	m.P = 6
	if got := m.MaxParallel(3, 14); got != 18 {
		t.Errorf("MaxParallel with P=6 = %d, want 18", got)
	}
}

func TestMoveTimeEquation3(t *testing.T) {
	m := Model{Q: 1, QMax: 1, D: 42, P: 1}
	if got := m.MoveTime(3, 3); got != 0 {
		t.Errorf("MoveTime(3,3) = %v, want 0", got)
	}
	// 3 -> 14: D/3 * (1 - 3/14) = 42/3 * 11/14 = 11.
	if got := m.MoveTime(3, 14); !approxEq(got, 11, 1e-12) {
		t.Errorf("MoveTime(3,14) = %v, want 11", got)
	}
	// Scale-in mirrors: 14 -> 3: D/3 * (1 - 3/14) = 11.
	if got := m.MoveTime(14, 3); !approxEq(got, 11, 1e-12) {
		t.Errorf("MoveTime(14,3) = %v, want 11", got)
	}
	// 3 -> 5: D/2 * (1 - 3/5) = 21 * 0.4 = 8.4.
	if got := m.MoveTime(3, 5); !approxEq(got, 8.4, 1e-12) {
		t.Errorf("MoveTime(3,5) = %v, want 8.4", got)
	}
	if got := m.MoveIntervals(3, 5); got != 9 {
		t.Errorf("MoveIntervals(3,5) = %d, want 9", got)
	}
	if got := m.MoveIntervals(3, 3); got != 0 {
		t.Errorf("MoveIntervals(3,3) = %d, want 0", got)
	}
}

func TestMoveTimeSymmetry(t *testing.T) {
	m := testModel()
	f := func(b, a uint8) bool {
		bb, aa := int(b%20)+1, int(a%20)+1
		return approxEq(m.MoveTime(bb, aa), m.MoveTime(aa, bb), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAvgMachAllocAlgorithm4(t *testing.T) {
	m := testModel()
	// Expectations computed by hand from Algorithm 4:
	//   3->5:  delta=2 <= s=3, case 1 -> l = 5.
	//   3->6:  delta=3, r=0, case 2 -> (2*3+6)/2 = 6.
	//   3->9:  delta=6, r=0, case 2 -> (2*3+9)/2 = 7.5.
	//   3->14: delta=11, r=2, case 3:
	//     phase1: N1=floor(11/3)-1=2, T1=3/11, M1=(3+14-2)/2=7.5 -> 45/11
	//     phase2: T2=2/11, M2=14-2=12                            -> 24/11
	//     phase3: T3=3/11, M3=14                                 -> 42/11
	//     total = 111/11 ≈ 10.09.
	cases := []struct {
		b, a int
		want float64
	}{
		{3, 3, 3},
		{3, 5, 5},
		{3, 6, 6},
		{3, 9, 7.5},
		{9, 3, 7.5},
		{3, 14, 111.0 / 11},
		{14, 3, 111.0 / 11},
	}
	for _, c := range cases {
		if got := m.AvgMachAlloc(c.b, c.a); !approxEq(got, c.want, 1e-9) {
			t.Errorf("AvgMachAlloc(%d, %d) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestAvgMachAllocBounds(t *testing.T) {
	m := testModel()
	f := func(b, a uint8) bool {
		bb, aa := int(b%30)+1, int(a%30)+1
		avg := m.AvgMachAlloc(bb, aa)
		lo, hi := float64(min(bb, aa)), float64(max(bb, aa))
		return avg >= lo-1e-9 && avg <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAvgMachAllocSymmetric(t *testing.T) {
	m := testModel()
	f := func(b, a uint8) bool {
		bb, aa := int(b%30)+1, int(a%30)+1
		return approxEq(m.AvgMachAlloc(bb, aa), m.AvgMachAlloc(aa, bb), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoveCost(t *testing.T) {
	m := Model{Q: 1, QMax: 1, D: 42, P: 1}
	// C(3,14) = T * avg = 11 * 111/11 = 111.
	if got := m.MoveCost(3, 14); !approxEq(got, 111, 1e-9) {
		t.Errorf("MoveCost(3,14) = %v, want 111", got)
	}
	if got := m.MoveCost(4, 4); got != 0 {
		t.Errorf("MoveCost(4,4) = %v, want 0", got)
	}
}

func TestEffCapEquation7(t *testing.T) {
	m := Model{Q: 100, QMax: 120, D: 1, P: 1}
	// No move: plain capacity.
	if got := m.EffCap(4, 4, 0.5); got != 400 {
		t.Errorf("EffCap(4,4,.5) = %v, want 400", got)
	}
	// Scale-out start: capacity of B machines.
	if got := m.EffCap(3, 14, 0); !approxEq(got, 300, 1e-9) {
		t.Errorf("EffCap(3,14,0) = %v, want 300", got)
	}
	// Scale-out end: capacity of A machines.
	if got := m.EffCap(3, 14, 1); !approxEq(got, 1400, 1e-9) {
		t.Errorf("EffCap(3,14,1) = %v, want 1400", got)
	}
	// Midpoint 3->5: each of 3 servers holds 1/3 - 0.5*(1/3-1/5) = 4/15;
	// eff-cap = Q * 15/4 = 375.
	if got := m.EffCap(3, 5, 0.5); !approxEq(got, 375, 1e-9) {
		t.Errorf("EffCap(3,5,0.5) = %v, want 375", got)
	}
	// Scale-in start/end.
	if got := m.EffCap(5, 3, 0); !approxEq(got, 500, 1e-9) {
		t.Errorf("EffCap(5,3,0) = %v, want 500", got)
	}
	if got := m.EffCap(5, 3, 1); !approxEq(got, 300, 1e-9) {
		t.Errorf("EffCap(5,3,1) = %v, want 300", got)
	}
	// Clamping.
	if got := m.EffCap(3, 5, -1); !approxEq(got, 300, 1e-9) {
		t.Errorf("EffCap clamp low = %v, want 300", got)
	}
	if got := m.EffCap(3, 5, 2); !approxEq(got, 500, 1e-9) {
		t.Errorf("EffCap clamp high = %v, want 500", got)
	}
}

// TestEffCapMonotone verifies the planning-critical property: effective
// capacity rises monotonically during scale-out and falls during scale-in,
// and always stays between cap(min) and cap(max).
func TestEffCapMonotone(t *testing.T) {
	m := testModel()
	f := func(b, a uint8, steps uint8) bool {
		bb, aa := int(b%20)+1, int(a%20)+1
		n := int(steps%20) + 2
		prev := math.Inf(-1)
		if bb > aa {
			prev = math.Inf(1)
		}
		for i := 0; i <= n; i++ {
			fr := float64(i) / float64(n)
			c := m.EffCap(bb, aa, fr)
			lo := m.Cap(min(bb, aa))
			hi := m.Cap(max(bb, aa))
			if c < lo-1e-6 || c > hi+1e-6 {
				return false
			}
			if bb < aa && c < prev-1e-9 {
				return false
			}
			if bb > aa && c > prev+1e-9 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMachinesFor(t *testing.T) {
	m := Model{Q: 285, QMax: 350, D: 1, P: 1}
	if got := m.MachinesFor(0); got != 1 {
		t.Errorf("MachinesFor(0) = %d, want 1", got)
	}
	if got := m.MachinesFor(285); got != 1 {
		t.Errorf("MachinesFor(285) = %d, want 1", got)
	}
	if got := m.MachinesFor(286); got != 2 {
		t.Errorf("MachinesFor(286) = %d, want 2", got)
	}
	if got := m.MachinesFor(2850); got != 10 {
		t.Errorf("MachinesFor(2850) = %d, want 10", got)
	}
}

// BenchmarkAvgMachAlloc measures the Algorithm 4 cost model across the
// whole (B, A) plane the planner touches.
func BenchmarkAvgMachAlloc(b *testing.B) {
	m := Model{Q: 285, QMax: 350, D: 15.4, P: 6}
	sum := 0.0
	for i := 0; i < b.N; i++ {
		for from := 1; from <= 20; from++ {
			for to := 1; to <= 20; to++ {
				sum += m.AvgMachAlloc(from, to)
			}
		}
	}
	if sum < 0 {
		b.Fatal(sum)
	}
}
