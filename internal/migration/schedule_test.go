package migration

import (
	"testing"
	"testing/quick"
)

func TestBuildScheduleValidation(t *testing.T) {
	if _, err := BuildSchedule(0, 3, 1); err == nil {
		t.Error("B=0 should fail")
	}
	if _, err := BuildSchedule(3, 0, 1); err == nil {
		t.Error("A=0 should fail")
	}
	if _, err := BuildSchedule(3, 4, 0); err == nil {
		t.Error("P=0 should fail")
	}
}

func TestScheduleDoNothing(t *testing.T) {
	s, err := BuildSchedule(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRounds() != 0 {
		t.Errorf("do-nothing move has %d rounds", s.NumRounds())
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	if got := s.MachinesAllocated(0); got != 4 {
		t.Errorf("MachinesAllocated = %d, want 4", got)
	}
	if got := s.FractionMoved(0); got != 1 {
		t.Errorf("FractionMoved = %v, want 1", got)
	}
}

// TestScheduleTable1 reproduces the paper's Table 1: scaling from 3 to 14
// machines with one partition per server completes in exactly 11 rounds
// (two phase-1 steps of 3 rounds, a 2-round phase 2, and a 3-round phase 3),
// and machines are allocated in blocks of 3, 3, 3, then 2.
func TestScheduleTable1(t *testing.T) {
	s, err := BuildSchedule(3, 14, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumRounds() != 11 {
		t.Fatalf("3->14 schedule has %d rounds, want 11", s.NumRounds())
	}
	// Every round keeps all 3 senders busy (the point of the 3 phases).
	for i, r := range s.Rounds {
		if len(r) != 3 {
			t.Errorf("round %d has %d transfers, want 3", i, len(r))
		}
	}
	// Machine allocation profile: phase 1 runs with 6 then 9 machines,
	// phase 2 with 12, phase 3 with all 14.
	wantAlloc := []int{6, 6, 6, 9, 9, 9, 12, 12, 14, 14, 14}
	for i, want := range wantAlloc {
		if got := s.MachinesAllocated(i); got != want {
			t.Errorf("MachinesAllocated(round %d) = %d, want %d", i, got, want)
		}
	}
}

func TestScheduleCase1AllAtOnce(t *testing.T) {
	// 3 -> 5: delta=2 <= B: both new machines allocated from round 0.
	s, err := BuildSchedule(3, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumRounds() != 3 {
		t.Errorf("3->5 has %d rounds, want 3", s.NumRounds())
	}
	for i := 0; i < s.NumRounds(); i++ {
		if got := s.MachinesAllocated(i); got != 5 {
			t.Errorf("MachinesAllocated(%d) = %d, want 5", i, got)
		}
	}
}

func TestScheduleCase2Blocks(t *testing.T) {
	// 3 -> 9: delta=6 = 2*B: two blocks of 3, allocated just in time.
	s, err := BuildSchedule(3, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumRounds() != 6 {
		t.Errorf("3->9 has %d rounds, want 6", s.NumRounds())
	}
	wantAlloc := []int{6, 6, 6, 9, 9, 9}
	for i, want := range wantAlloc {
		if got := s.MachinesAllocated(i); got != want {
			t.Errorf("MachinesAllocated(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestScheduleScaleInMirrors(t *testing.T) {
	// 14 -> 3 drains machines 3..13 into survivors 0..2, releasing the
	// drained machines as early as possible: allocation decreases over time.
	s, err := BuildSchedule(14, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumRounds() != 11 {
		t.Fatalf("14->3 has %d rounds, want 11", s.NumRounds())
	}
	prev := 15
	for i := 0; i < s.NumRounds(); i++ {
		got := s.MachinesAllocated(i)
		if got > prev {
			t.Errorf("allocation increased during scale-in: round %d has %d after %d", i, got, prev)
		}
		prev = got
	}
	if first := s.MachinesAllocated(0); first != 14 {
		t.Errorf("first round allocation = %d, want 14", first)
	}
	// The mirror of just-in-time allocation: by the last rounds only the
	// survivors plus the final draining block remain.
	if last := s.MachinesAllocated(s.NumRounds() - 1); last != 6 {
		t.Errorf("last round allocation = %d, want 6", last)
	}
}

// TestScheduleProperty validates the structural invariants across the whole
// plausible configuration space, including both scale directions and
// multi-partition machines.
func TestScheduleProperty(t *testing.T) {
	f := func(b, a, p uint8) bool {
		bb, aa, pp := int(b%24)+1, int(a%24)+1, int(p%4)+1
		s, err := BuildSchedule(bb, aa, pp)
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestScheduleTimeMatchesModel checks that executing the schedule takes
// exactly the T(B,A) the planner assumes (Equation 3), for every
// configuration: the schedule realizes the maximum parallelism.
func TestScheduleTimeMatchesModel(t *testing.T) {
	f := func(b, a, p uint8) bool {
		bb, aa, pp := int(b%24)+1, int(a%24)+1, int(p%4)+1
		if bb == aa {
			return true
		}
		m := Model{Q: 1, QMax: 1, D: 100, P: pp}
		s, err := BuildSchedule(bb, aa, pp)
		if err != nil {
			return false
		}
		return approxEq(s.TotalTime(m.D), m.MoveTime(bb, aa), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPartitionTransfers(t *testing.T) {
	s, err := BuildSchedule(2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRounds() == 0 {
		t.Fatal("no rounds")
	}
	pts := s.PartitionTransfers(s.Rounds[0])
	if len(pts) != len(s.Rounds[0])*2 {
		t.Fatalf("partition transfers = %d, want %d", len(pts), len(s.Rounds[0])*2)
	}
	for _, pt := range pts {
		if pt.FromPartition/2 >= 2 {
			t.Errorf("sender partition %d not on an original machine", pt.FromPartition)
		}
		if pt.ToPartition/2 < 2 || pt.ToPartition/2 >= 3 {
			t.Errorf("receiver partition %d not on the new machine", pt.ToPartition)
		}
		if !approxEq(pt.Fraction, s.PairFraction/2, 1e-12) {
			t.Errorf("fraction = %v, want %v", pt.Fraction, s.PairFraction/2)
		}
	}
}

func TestFractionMovedProgression(t *testing.T) {
	s, err := BuildSchedule(3, 14, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i := 0; i <= s.NumRounds(); i++ {
		f := s.FractionMoved(i)
		if f < prev {
			t.Errorf("FractionMoved not monotone at %d: %v < %v", i, f, prev)
		}
		prev = f
	}
	if got := s.FractionMoved(0); got != 0 {
		t.Errorf("FractionMoved(0) = %v, want 0", got)
	}
	if got := s.FractionMoved(s.NumRounds()); !approxEq(got, 1, 1e-12) {
		t.Errorf("FractionMoved(end) = %v, want 1", got)
	}
}

// BenchmarkBuildSchedule measures three-phase schedule construction for a
// large scale-out.
func BenchmarkBuildSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := BuildSchedule(7, 30, 6)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
