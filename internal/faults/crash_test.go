package faults

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestConfigStringRoundTrip is a property test over the spec grammar: for
// random schedules of every kind, Parse(String(s)) must reproduce s.
func TestConfigStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s := &Schedule{Seed: rng.Int63n(1 << 32)}
		for k := Kind(0); k < NumKinds; k++ {
			if rng.Intn(2) == 0 {
				continue
			}
			for n := 1 + rng.Intn(2); n > 0; n-- {
				e := Event{Kind: k}
				switch k {
				case CrashPair, LinkDown:
					e.A, e.B = rng.Intn(8), rng.Intn(8)
				case CrashPart:
					e.A = rng.Intn(8)
				case PinnedCrash:
					e.A, e.Tick, e.Down = rng.Intn(8), rng.Intn(100), rng.Intn(3)
				case CrashRate:
					e.P, e.Down = float64(rng.Intn(1000))/1000, rng.Intn(10)
				default:
					e.P = float64(rng.Intn(1000)) / 1000
					if kinds[k].durKey != "" && rng.Intn(2) == 0 {
						e.Dur = time.Duration(rng.Intn(5000)) * time.Microsecond
					}
				}
				s.Events = append(s.Events, e)
				if !k.targeted() {
					break // a rolled kind has one event
				}
			}
		}
		got, err := Parse(s.String())
		if err != nil {
			t.Fatalf("case %d: Parse(%q): %v", i, s, err)
		}
		if got.Seed != s.Seed || !reflect.DeepEqual(got.Events, s.Events) {
			t.Fatalf("case %d: round trip of %q changed the schedule:\n  %+v\nvs\n  %+v", i, s, got.Events, s.Events)
		}
	}
}

// TestCrashScheduleStringRoundTrip is the same property for the crash keys
// alone: random crash-rate, crash-downtime and pinned crashes round-trip.
func TestCrashScheduleStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		s := &Schedule{Seed: rng.Int63n(1 << 32)}
		if rng.Intn(2) == 0 {
			e := Event{Kind: CrashRate, P: float64(rng.Intn(1000)) / 1000}
			if rng.Intn(2) == 0 {
				e.Down = 1 + rng.Intn(10)
			}
			s.Events = append(s.Events, e)
		}
		for n := rng.Intn(4); n > 0; n-- {
			e := Event{Kind: PinnedCrash, A: rng.Intn(8), Tick: rng.Intn(100)}
			if rng.Intn(2) == 0 {
				e.Down = 1 + rng.Intn(10)
			}
			s.Events = append(s.Events, e)
		}
		got := mustRoundTrip(t, s.String())
		if got.Seed != s.Seed || !reflect.DeepEqual(got.Events, s.Events) {
			t.Fatalf("case %d: String dropped fields: %+v -> %q -> %+v", i, s.Events, s, got.Events)
		}
	}
}

func TestParseCrashSpec(t *testing.T) {
	s := mustParse(t, "seed=42,crash-rate=0.05,crash-downtime=4,crash=1@10+5,crash=0@3")
	want := []Event{
		{Kind: CrashRate, P: 0.05, Down: 4},
		{Kind: PinnedCrash, A: 1, Tick: 10, Down: 5},
		{Kind: PinnedCrash, A: 0, Tick: 3},
	}
	if s.Seed != 42 || !reflect.DeepEqual(s.Events, want) {
		t.Errorf("parsed seed %d, events %+v; want 42, %+v", s.Seed, s.Events, want)
	}
	if !s.Arms(CrashPlane) {
		t.Error("a crash schedule does not arm the crash plane")
	}
	if mustParse(t, "seed=42,crash-rate=0,crash-downtime=4").Arms(CrashPlane) {
		t.Error("a crash schedule that can never crash arms the crash plane")
	}
}

// TestCrashesAtDeterministic: hashed crash decisions are a pure function of
// (seed, machine, tick) and planned entries override the hash.
func TestCrashesAtDeterministic(t *testing.T) {
	s := mustParse(t, "seed=42,crash-rate=0.1,crash-downtime=3")
	var a, b []Crash
	for tick := 0; tick < 200; tick++ {
		a = append(a, s.CrashesAt(tick, 8)...)
		b = append(b, s.CrashesAt(tick, 8)...)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical schedules diverged across calls")
	}
	if len(a) == 0 {
		t.Fatal("rate=0.1 over 1600 machine-ticks produced no crashes")
	}
	// ~160 expected; accept a wide band.
	if len(a) < 60 || len(a) > 400 {
		t.Errorf("crash count implausible: %d/1600 at rate=0.1", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].Tick == a[i-1].Tick && a[i].Machine <= a[i-1].Machine {
			t.Fatalf("output not sorted/deduped by machine: %+v then %+v", a[i-1], a[i])
		}
	}
	other := mustParse(t, "seed=43,crash-rate=0.1,crash-downtime=3")
	var c []Crash
	for tick := 0; tick < 200; tick++ {
		c = append(c, other.CrashesAt(tick, 8)...)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 42 and 43 produced identical crash schedules")
	}
}

func TestCrashesAtPlanned(t *testing.T) {
	// A duplicate machine at the same tick is dropped, and so is a machine
	// beyond the machine count.
	s := mustParse(t, "seed=1,crash-downtime=2,crash=2@5+7,crash=2@5,crash=9@5,crash=0@5")
	got := s.CrashesAt(5, 4)
	want := []Crash{{Machine: 0, Tick: 5, Down: 2}, {Machine: 2, Tick: 5, Down: 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CrashesAt(5, 4) = %+v, want %+v", got, want)
	}
	if got := s.CrashesAt(6, 4); len(got) != 0 {
		t.Fatalf("CrashesAt(6, 4) = %+v, want none", got)
	}
	if got := mustParse(t, "crash=1@3").CrashesAt(3, 4); len(got) != 1 || got[0].Down != 1 {
		t.Errorf("downtime floor: %+v, want one crash down 1 cycle", got)
	}
}
