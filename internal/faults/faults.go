// Package faults is the fault schedule for chaos testing reconfiguration
// under load: a seed plus a list of typed events, each striking one plane —
// a partition's chunk sends (BeforeMove, the store.FaultInjector seam), the
// link between two nodes during a move (OnChunk), a primary's WAL ship
// stream (OnBatch) or whole machines (CrashesAt). One grammar (Parse,
// String, Validate) covers all four planes.
//
// Every decision is a pure function of (seed, pair, chunk or batch,
// attempt, salt), hashed rather than drawn from a shared PRNG stream, so
// concurrent streams see the same faults however goroutines interleave:
// that is what lets the chaos suites demand byte-identical outcomes at a
// fixed seed. Rollbacks (store.MoveOp.Rollback) are exempt by contract:
// recovery from an injected fault is never itself injected with failure.
package faults

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected failure, so callers
// can distinguish chaos from genuine engine errors.
var ErrInjected = errors.New("faults: injected failure")

// Plane is the part of the system a fault strikes.
type Plane uint8

const (
	ChunkPlane Plane = iota // a partition's chunk sends (BeforeMove)
	LinkPlane               // the network between two nodes during a move (OnChunk)
	ShipPlane               // a primary's WAL ship stream (OnBatch)
	CrashPlane              // whole machines (CrashesAt)
	numPlanes
)

func (p Plane) String() string { return [numPlanes]string{"chunk", "link", "ship", "crash"}[p] }

// Kind is the fault one event injects.
type Kind uint8

const (
	ChunkDrop     Kind = iota // P: a chunk send fails
	ChunkSlow                 // P: a chunk waits Dur (default 2ms) first
	Stall                     // P: the sender stalls Dur (default 50ms) first
	CrashPair                 // every chunk send from partition A to B fails
	CrashPart                 // every move in or out of partition A fails
	LinkDrop                  // P: a chunk is lost in flight
	LinkDup                   // P: a chunk's install is delivered twice
	LinkReorder               // P: that duplicate arrives after the pair's next chunk
	LinkSlow                  // P: a transfer waits Dur (default 2ms) first
	LinkDown                  // every transfer between nodes A and B fails
	ShipDrop                  // P: a batch is lost in flight
	ShipDup                   // P: a batch is delivered twice
	ShipReorder               // P: the stream's next batch overtakes this one
	ShipDelay                 // P: a batch waits Dur (default 2ms) first
	ShipPartition             // P: the link is down for one attempt; Dur > 0 makes it an outage that heals after Dur
	PinnedCrash               // machine A crashes at Tick, for Down cycles
	CrashRate                 // P: each machine crashes at each tick; Down is every crash's default downtime
	NumKinds
)

// kinds is the grammar and the draws: each kind's plane, the key of its
// probability or target, the key and default of its duration (Down for the
// crash kinds) and the salt that keeps its draws apart from every other
// kind's. Every fixed-seed draw depends on the salts.
var kinds = [NumKinds]struct {
	plane       Plane
	key, durKey string
	def         time.Duration
	salt        uint64
}{
	ChunkDrop:     {ChunkPlane, "chunk-drop", "", 0, 0xD609},
	ChunkSlow:     {ChunkPlane, "chunk-slow", "slow-delay", 2 * time.Millisecond, 0x510C},
	Stall:         {ChunkPlane, "stall", "stall-delay", 50 * time.Millisecond, 0x57A1},
	CrashPair:     {ChunkPlane, "crash-pair", "", 0, 0},
	CrashPart:     {ChunkPlane, "crash-part", "", 0, 0},
	LinkDrop:      {LinkPlane, "link-drop", "", 0, 0x11D0},
	LinkDup:       {LinkPlane, "link-dup", "", 0, 0xD0B2},
	LinkReorder:   {LinkPlane, "link-reorder", "", 0, 0x2E0D},
	LinkSlow:      {LinkPlane, "link-slow", "link-delay", 2 * time.Millisecond, 0x510F},
	LinkDown:      {LinkPlane, "link-down", "", 0, 0},
	ShipDrop:      {ShipPlane, "ship-drop", "", 0, 0x54D0},
	ShipDup:       {ShipPlane, "ship-dup", "", 0, 0x54D1},
	ShipReorder:   {ShipPlane, "ship-reorder", "", 0, 0x54D2},
	ShipDelay:     {ShipPlane, "ship-delay", "ship-delay-for", 2 * time.Millisecond, 0x54D3},
	ShipPartition: {ShipPlane, "ship-partition", "heal-after", 0, 0x54D4},
	PinnedCrash:   {CrashPlane, "crash", "", 0, 0},
	CrashRate:     {CrashPlane, "crash-rate", "crash-downtime", 0, 0xC4A5},
}

// targeted reports whether events of the kind name a target instead of
// rolling a probability; such a key may repeat.
func (k Kind) targeted() bool {
	return k == CrashPair || k == CrashPart || k == LinkDown || k == PinnedCrash
}

// Event is one fault of a schedule. A rolled kind fires with probability P
// at any target; a targeted kind always fires at its target.
type Event struct {
	Kind Kind
	A, B int           // target: partition pair A -> B, node pair A <-> B, partition A or machine A
	Tick int           // the controller tick a pinned crash fires at
	P    float64       // probability in [0, 1] of a rolled kind
	Dur  time.Duration // slow, stall, delay or heal-after; 0 means the kind's default
	Down int           // a crash's downtime in cycles; 0 means crash-downtime's, at least 1
}

// Schedule is a seeded list of fault events and the state its deciders
// keep: one attempt table keyed by (plane, chunk or batch), the heal-after
// outages and the injection counters. A nil *Schedule injects nothing.
type Schedule struct {
	Seed   int64 // the same seed makes the same decisions for the same calls
	Events []Event

	mu       sync.Mutex
	attempts map[attemptKey]uint64
	outage   map[chunkKey]time.Time // heal-after outages by pair; zero once healed

	offered [numPlanes]atomic.Int64
	fired   [NumKinds]atomic.Int64
}

// Stats counts the decisions a schedule has made so far.
type Stats struct {
	Offered [numPlanes]int64 // decisions consulted per plane, rollbacks not included
	Fired   [NumKinds]int64  // injections per kind; a link reorder is a link dup too
}

// Stats snapshots the injection counters.
func (s *Schedule) Stats() Stats {
	var st Stats
	for p := range st.Offered {
		st.Offered[p] = s.offered[p].Load()
	}
	for k := range st.Fired {
		st.Fired[k] = s.fired[k].Load()
	}
	return st
}

// Arms reports whether the schedule has an event on the plane that can
// fire. It is false on a nil schedule.
func (s *Schedule) Arms(p Plane) bool {
	return s != nil && slices.ContainsFunc(s.Events, func(e Event) bool {
		return kinds[e.Kind].plane == p && (e.Kind.targeted() || e.P > 0)
	})
}

// Only refuses a schedule with an event outside the given planes, naming
// the first such event: how a command refuses faults it cannot honour.
func (s *Schedule) Only(planes ...Plane) error {
	for _, e := range s.Events {
		if p := kinds[e.Kind].plane; !slices.Contains(planes, p) {
			return fmt.Errorf("faults: %s is a %s fault", e, p)
		}
	}
	return nil
}

// Validate reports schedule errors: an unknown kind, a probability outside
// [0, 1] (NaN included), or a negative id, tick or duration.
func (s *Schedule) Validate() error {
	for _, e := range s.Events {
		switch {
		case e.Kind >= NumKinds:
			return fmt.Errorf("faults: unknown fault kind %d", e.Kind)
		case !(e.P >= 0 && e.P <= 1):
			return fmt.Errorf("faults: %s: probability outside [0, 1]", e)
		case e.A < 0 || e.B < 0:
			return fmt.Errorf("faults: %s: negative id", e)
		case e.Tick < 0 || e.Dur < 0 || e.Down < 0:
			return fmt.Errorf("faults: %s: negative tick or duration", e)
		}
	}
	return nil
}

// Parse builds a schedule from a comma-separated spec, the format of the
// pstore -faults flag: seed=N plus the keys of the kinds table, e.g.
// "seed=42,chunk-drop=0.05,link-down=0:1,heal-after=500ms,crash=1@10+5".
// crash-pair=A:B, crash-part=A, link-down=A:B and crash=M@T[+D] may repeat;
// for any other key the last value wins. An empty spec is an empty schedule.
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{}
	if spec = strings.TrimSpace(spec); spec == "" {
		return s, nil
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("faults: field %q is not key=value", field)
		}
		if err := s.set(k, v); err != nil {
			return nil, fmt.Errorf("faults: parsing %q: %w", field, err)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// set applies one key=value field of a spec.
func (s *Schedule) set(k, v string) (err error) {
	if k == "seed" {
		s.Seed, err = strconv.ParseInt(v, 10, 64)
		return err
	}
	for i, g := range kinds {
		kind := Kind(i)
		if k == g.key && kind.targeted() {
			e := Event{Kind: kind}
			err = e.parseTarget(v)
			s.Events = append(s.Events, e)
			return err
		}
		if k != g.key && (k != g.durKey || k == "") {
			continue
		}
		// A rolled kind's probability and duration keys set one event.
		e := s.rolledEvent(kind)
		switch {
		case k == g.key:
			e.P, err = strconv.ParseFloat(v, 64)
		case kind == CrashRate:
			e.Down, err = strconv.Atoi(v)
		default:
			e.Dur, err = time.ParseDuration(v)
		}
		return err
	}
	return errors.New("unknown key")
}

// rolledEvent returns the schedule's event of a rolled kind, adding it on
// first use.
func (s *Schedule) rolledEvent(k Kind) *Event {
	for i := range s.Events {
		if s.Events[i].Kind == k {
			return &s.Events[i]
		}
	}
	s.Events = append(s.Events, Event{Kind: k})
	return &s.Events[len(s.Events)-1]
}

// parseTarget fills a targeted event from its value: "A" (crash-part),
// "A:B" (crash-pair, link-down) or "M@T[+D]" (crash).
func (e *Event) parseTarget(v string) error {
	fields, seps := []*int{&e.A}, ""
	switch e.Kind {
	case CrashPair, LinkDown:
		fields, seps = []*int{&e.A, &e.B}, ":"
	case PinnedCrash:
		if !strings.Contains(v, "+") {
			v += "+0"
		}
		fields, seps = []*int{&e.A, &e.Tick, &e.Down}, "@+"
	}
	for i, f := range fields {
		field := v
		if i < len(seps) {
			var ok bool
			if field, v, ok = strings.Cut(v, seps[i:i+1]); !ok {
				return fmt.Errorf("%q lacks %q", field, seps[i:i+1])
			}
		}
		n, err := strconv.Atoi(field)
		if err != nil {
			return err
		}
		*f = n
	}
	return nil
}

// String renders the event in Parse's spec format.
func (e Event) String() string {
	g := kinds[e.Kind]
	switch {
	case e.Kind == CrashPart:
		return fmt.Sprintf("%s=%d", g.key, e.A)
	case e.Kind == CrashPair || e.Kind == LinkDown:
		return fmt.Sprintf("%s=%d:%d", g.key, e.A, e.B)
	case e.Kind == PinnedCrash && e.Down != 0:
		return fmt.Sprintf("%s=%d@%d+%d", g.key, e.A, e.Tick, e.Down)
	case e.Kind == PinnedCrash:
		return fmt.Sprintf("%s=%d@%d", g.key, e.A, e.Tick)
	case e.Kind == CrashRate && e.Down != 0:
		return fmt.Sprintf("%s=%v,%s=%d", g.key, e.P, g.durKey, e.Down)
	case e.Kind != CrashRate && e.Dur != 0 && g.durKey != "":
		return fmt.Sprintf("%s=%v,%s=%v", g.key, e.P, g.durKey, e.Dur)
	}
	return fmt.Sprintf("%s=%v", g.key, e.P)
}

// String renders the schedule in Parse's spec format; Parse of it yields an
// equal schedule.
func (s *Schedule) String() string {
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	for _, e := range s.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, ",")
}
