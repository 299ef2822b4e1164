package faults

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pstore/internal/store"
)

func mustParse(t testing.TB, spec string) *Schedule {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return s
}

// mustRoundTrip parses spec and checks its String parses back to an equal
// schedule.
func mustRoundTrip(t testing.TB, spec string) *Schedule {
	t.Helper()
	s := mustParse(t, spec)
	again, err := Parse(s.String())
	if err != nil {
		t.Fatalf("reparse of %q -> %q: %v", spec, s, err)
	}
	if again.Seed != s.Seed || !reflect.DeepEqual(again.Events, s.Events) {
		t.Fatalf("round trip of %q through %q changed the schedule:\n  %+v\nvs\n  %+v", spec, s, s.Events, again.Events)
	}
	return s
}

func op(from, to int, buckets ...int) store.MoveOp {
	return store.MoveOp{From: from, To: to, Buckets: buckets}
}

// TestInjectorDeterministic is the property the chaos suite stands on: two
// schedules with the same seed must make identical decisions for the same
// sequence of moves, and a different seed must (for a schedule this dense)
// produce a different decision sequence.
func TestInjectorDeterministic(t *testing.T) {
	script := func(s *Schedule) []bool {
		var out []bool
		for from := 0; from < 4; from++ {
			for b := 0; b < 16; b++ {
				for attempt := 0; attempt < 3; attempt++ {
					out = append(out, s.BeforeMove(op(from, from+4, b, b+100)) != nil)
				}
			}
		}
		return out
	}
	a, b := script(mustParse(t, "seed=42,chunk-drop=0.3")), script(mustParse(t, "seed=42,chunk-drop=0.3"))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("decisions differ between identical seeds")
	}
	if reflect.DeepEqual(a, script(mustParse(t, "seed=43,chunk-drop=0.3"))) {
		t.Error("seeds 42 and 43 produced identical 192-decision schedules")
	}
	// ~30% of 192 decisions should be drops; allow a wide band.
	drops := 0
	for _, d := range a {
		if d {
			drops++
		}
	}
	if drops < 20 || drops > 120 {
		t.Errorf("drop rate implausible: %d/192 at p=0.3", drops)
	}
}

// TestInjectorRetryRerolls: the same chunk's successive attempts must get
// fresh decisions, so a retry loop can eventually get through a p<1 drop.
func TestInjectorRetryRerolls(t *testing.T) {
	s := mustParse(t, "seed=7,chunk-drop=0.5")
	// With p=0.5, 64 attempts at the same chunk succeed at least once with
	// probability 1 - 2^-64.
	for attempt := 0; attempt < 64; attempt++ {
		if s.BeforeMove(op(1, 2, 9)) == nil {
			return
		}
	}
	t.Error("64 retries of one chunk never passed at drop=0.5: attempts are not re-rolled")
}

func TestInjectorCrashesAndExemptions(t *testing.T) {
	s := mustParse(t, "seed=1,crash-pair=2:5,crash-part=7")
	if err := s.BeforeMove(op(2, 5, 0)); !errors.Is(err, ErrInjected) {
		t.Errorf("crashed pair 2->5 not injected: %v", err)
	}
	if err := s.BeforeMove(op(5, 2, 0)); err != nil {
		t.Errorf("reverse direction of crashed pair failed: %v", err)
	}
	if err := s.BeforeMove(op(7, 3, 0)); !errors.Is(err, ErrInjected) {
		t.Errorf("crashed partition 7 as source not injected: %v", err)
	}
	if err := s.BeforeMove(op(3, 7, 0)); !errors.Is(err, ErrInjected) {
		t.Errorf("crashed partition 7 as destination not injected: %v", err)
	}
	// Rollback ops are exempt even on crashed paths.
	rb := store.MoveOp{From: 2, To: 5, Buckets: []int{0}, Rollback: true}
	if err := s.BeforeMove(rb); err != nil {
		t.Errorf("rollback on crashed pair injected: %v", err)
	}
	st := s.Stats()
	if st.Fired[CrashPair] != 1 || st.Fired[CrashPart] != 2 {
		t.Errorf("crash-pair hits %d, crash-part hits %d, want 1 and 2", st.Fired[CrashPair], st.Fired[CrashPart])
	}
}

func TestInjectorFullDrop(t *testing.T) {
	s := mustParse(t, "seed=3,chunk-drop=1")
	for i := 0; i < 32; i++ {
		if err := s.BeforeMove(op(0, 1, i)); !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d passed at drop=1", i)
		}
	}
}

// TestParseRoundTrip: the chunk plane's keys parse to their events and
// round-trip through String.
func TestParseRoundTrip(t *testing.T) {
	s := mustRoundTrip(t, "seed=42,chunk-drop=0.05,chunk-slow=0.1,slow-delay=3ms,stall=0.01,stall-delay=80ms,crash-pair=3:7,crash-pair=1:2,crash-part=4")
	want := []Event{
		{Kind: ChunkDrop, P: 0.05},
		{Kind: ChunkSlow, P: 0.1, Dur: 3 * time.Millisecond},
		{Kind: Stall, P: 0.01, Dur: 80 * time.Millisecond},
		{Kind: CrashPair, A: 3, B: 7},
		{Kind: CrashPair, A: 1, B: 2},
		{Kind: CrashPart, A: 4},
	}
	if s.Seed != 42 || !reflect.DeepEqual(s.Events, want) {
		t.Errorf("parsed seed %d, events %+v; want 42, %+v", s.Seed, s.Events, want)
	}
	if s := mustRoundTrip(t, ""); len(s.Events) != 0 {
		t.Errorf("empty spec parsed to %+v", s.Events)
	}
	for _, bad := range []string{"chunk-drop", "chunk-drop=2", "nope=1", "crash-pair=3", "seed=x", "stall=-0.1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestParseErrors: every malformed spec is refused, naming the problem.
func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"chunk-drop", "not key=value"},
		{"nope=1", "unknown key"},
		{"seed=x", "invalid syntax"},
		{"chunk-drop=2", "outside [0, 1]"},
		{"stall=-0.1", "outside [0, 1]"},
		{"link-drop=2", "outside [0, 1]"},
		{"ship-drop=1.5", "outside [0, 1]"},
		{"crash-rate=2", "outside [0, 1]"},
		{"crash-rate=-0.1", "outside [0, 1]"},
		{"chunk-drop=NaN", "outside [0, 1]"},
		{"ship-dup=nan", "outside [0, 1]"},
		{"link-dup=Inf", "outside [0, 1]"},
		{"crash-rate=-Inf", "outside [0, 1]"},
		{"crash-part=-3", "negative id"},
		{"crash-pair=-1:99", "negative id"},
		{"link-down=0:-2", "negative id"},
		{"crash=-1@4", "negative id"},
		{"crash=1@-4", "negative tick"},
		{"crash=1@4+-2", "negative tick or duration"},
		{"crash-downtime=-1", "negative tick or duration"},
		{"heal-after=-1s", "negative tick or duration"},
		{"slow-delay=-2ms", "negative tick or duration"},
		{"crash-pair=3", `lacks ":"`},
		{"link-down=1", `lacks ":"`},
		{"crash=3", `lacks "@"`},
		{"crash=x@1", "invalid syntax"},
		{"crash=1@x", "invalid syntax"},
		{"crash=1@2+x", "invalid syntax"},
		{"stall-delay=fast", "invalid duration"},
		{"rate=0.5", "unknown key"},
		{"downtime=4", "unknown key"},
		{"at=1@2", "unknown key"},
		{"partition=0:1", "unknown key"},
	} {
		if _, err := Parse(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", tc.spec, err, tc.want)
		}
	}
	for _, spec := range []string{"", "  ", "seed=0"} {
		if s, err := Parse(spec); err != nil || len(s.Events) != 0 {
			t.Errorf("Parse(%q) = %+v, %v; want an empty schedule", spec, s, err)
		}
	}
}

// FuzzParse: Parse never panics, and every accepted spec's String parses
// back to an equal schedule.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		// The specs the CI workflow, README.md and the verify skill run.
		"seed=42,chunk-drop=0.05",
		"seed=42,chunk-drop=0.15",
		"seed=42,chunk-drop=0.15,crash=1@2",
		"seed=42,chunk-drop=0.15,link-dup=0.25,crash=3@2",
		"seed=7,crash-part=0",
		"seed=42,ship-drop=0.05,ship-dup=0.1",
		"seed=42,ship-drop=0.05,ship-dup=0.1,ship-reorder=0.05",
		"seed=42,ship-drop=0.05,ship-dup=0.1,ship-partition=0.2,heal-after=300ms",
		"seed=42,crash=1@8+6",
		"crash=1@10+5,seed=42,crash-rate=0.01,crash-downtime=4",
		// The cases of the per-plane round-trip tests.
		"",
		"  ",
		"seed=42",
		"seed=42,chunk-drop=0.05,chunk-slow=0.1,slow-delay=3ms,stall=0.01,stall-delay=80ms,crash-pair=3:7,crash-pair=1:2,crash-part=4",
		"seed=42,link-drop=0.05,link-dup=0.1,link-reorder=0.05,link-slow=0.1,link-delay=3ms,link-down=0:1,link-down=1:2",
		"seed=42,ship-drop=0.05,ship-dup=0.1,ship-reorder=0.05,ship-delay=0.1,ship-delay-for=5ms,ship-partition=0.02,heal-after=500ms",
		"seed=42,crash-rate=0.05,crash-downtime=4,crash=1@10+5,crash=0@3",
		"seed=4,slow-delay=3ms,crash-downtime=2,chunk-slow=0,crash=2@5+0",
		// Malformed specs the parser must refuse without panicking.
		"chunk-drop=2", "crash-rate=2", "crash-pair=3", "crash=1@x", "seed=42,chunk-drop=NaN", "crash-part=-3", "a=b=c", ",,",
		// Valid specs a command refuses as events it cannot honour.
		"link-drop=0.1", "ship-dup=0.1", "chunk-drop=0.1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String %q fails to parse: %v", spec, s, err)
		}
		if again.Seed != s.Seed || !reflect.DeepEqual(again.Events, s.Events) {
			t.Fatalf("round trip of %q through %q changed the schedule:\n  %+v\nvs\n  %+v", spec, s, s.Events, again.Events)
		}
	})
}

// TestOnlyAndArms: a command learns which planes a schedule arms, and
// refuses the events it cannot honour by name.
func TestOnlyAndArms(t *testing.T) {
	s := mustParse(t, "seed=1,chunk-drop=0.1,link-slow=0,crash=1@2")
	if !s.Arms(ChunkPlane) || !s.Arms(CrashPlane) || s.Arms(LinkPlane) || s.Arms(ShipPlane) {
		t.Errorf("Arms: chunk %v link %v ship %v crash %v", s.Arms(ChunkPlane), s.Arms(LinkPlane), s.Arms(ShipPlane), s.Arms(CrashPlane))
	}
	if (*Schedule)(nil).Arms(ChunkPlane) {
		t.Error("a nil schedule arms the chunk plane")
	}
	if err := s.Only(ChunkPlane, LinkPlane, CrashPlane); err != nil {
		t.Errorf("Only(chunk, link, crash): %v", err)
	}
	if err := s.Only(ChunkPlane, CrashPlane); err == nil || !strings.Contains(err.Error(), "link-slow=0 is a link fault") {
		t.Errorf("Only(chunk, crash) = %v, want link-slow=0 refused", err)
	}
	if bad := (&Schedule{Events: []Event{{Kind: ChunkDrop, P: math.NaN()}}}); bad.Validate() == nil {
		t.Error("a literal schedule with a NaN probability validated")
	}
}

// TestScheduleConcurrent: one schedule serves every plane from many
// goroutines at once, and each stream's decisions are those it gets alone.
func TestScheduleConcurrent(t *testing.T) {
	const spec = "seed=5,chunk-drop=0.3,link-dup=0.3,link-drop=0.2,ship-drop=0.3,ship-partition=0.2,heal-after=1h,crash-rate=0.1"
	stream := func(s *Schedule, g int) string {
		var b strings.Builder
		for i := 0; i < 200; i++ {
			m := store.MoveOp{From: g, To: g + 8, Buckets: []int{i % 50}}
			_, lerr := s.OnChunk(g, g+1, m)
			fmt.Fprint(&b, s.BeforeMove(m) != nil, lerr != nil, s.OnBatch(g, 9, uint64(i%50)), len(s.CrashesAt(i, 4)), ";")
		}
		return b.String()
	}
	alone := make([]string, 4)
	for g := range alone {
		alone[g] = stream(mustParse(t, spec), g)
	}
	shared := mustParse(t, spec)
	together := make([]string, 4)
	var wg sync.WaitGroup
	for g := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[g] = stream(shared, g)
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(alone, together) {
		t.Fatal("streams sharing one schedule decided differently from streams alone")
	}
}
