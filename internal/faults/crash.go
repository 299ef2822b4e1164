package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// saltCrash separates machine-crash decisions from the chunk-level streams
// drawn from the same splitmix64 hash.
const saltCrash uint64 = 0xC4A5

// PlannedCrash pins one machine failure to one controller tick.
type PlannedCrash struct {
	// Machine is the machine index that fails.
	Machine int
	// Tick is the controller cycle at which it fails.
	Tick int
	// Downtime is the number of cycles before recovery begins; 0 means the
	// schedule's default downtime applies.
	Downtime int
}

// CrashSchedule describes deterministic machine-level failures for the crash
// recovery plane. Like the chunk-level Config, every decision is a pure
// function of (seed, machine, tick) — no shared PRNG stream — so a cluster
// run at a fixed seed sees the same crashes at the same ticks regardless of
// goroutine interleaving.
type CrashSchedule struct {
	// Seed selects the hashed schedule.
	Seed int64
	// Rate is the per-machine per-tick probability in [0, 1] of a crash.
	Rate float64
	// Downtime is the default number of cycles a crashed machine stays down
	// before recovery starts (minimum 1).
	Downtime int
	// Planned lists crashes pinned to specific ticks, checked in addition to
	// the hashed decisions.
	Planned []PlannedCrash
}

// Validate reports schedule errors.
func (s CrashSchedule) Validate() error {
	if s.Rate < 0 || s.Rate > 1 {
		return fmt.Errorf("faults: crash rate %v outside [0, 1]", s.Rate)
	}
	if s.Downtime < 0 {
		return fmt.Errorf("faults: crash downtime must be non-negative")
	}
	for _, p := range s.Planned {
		if p.Machine < 0 {
			return fmt.Errorf("faults: planned crash machine %d negative", p.Machine)
		}
		if p.Tick < 0 {
			return fmt.Errorf("faults: planned crash tick %d negative", p.Tick)
		}
		if p.Downtime < 0 {
			return fmt.Errorf("faults: planned crash downtime %d negative", p.Downtime)
		}
	}
	return nil
}

// Empty reports whether the schedule can never produce a crash.
func (s CrashSchedule) Empty() bool {
	return s.Rate == 0 && len(s.Planned) == 0
}

// DowntimeFor resolves a planned crash's downtime against the schedule
// default, with a floor of one cycle so recovery never races the crash tick.
func (s CrashSchedule) DowntimeFor(p PlannedCrash) int {
	d := p.Downtime
	if d == 0 {
		d = s.Downtime
	}
	if d < 1 {
		d = 1
	}
	return d
}

// CrashesAt returns the crashes scheduled for one tick across machines
// [0, machines), planned entries first, then hashed decisions, deduplicated
// by machine and sorted by machine index. Callers skip machines that are
// already down.
func (s CrashSchedule) CrashesAt(tick, machines int) []PlannedCrash {
	var out []PlannedCrash
	hit := make(map[int]bool)
	for _, p := range s.Planned {
		if p.Tick == tick && p.Machine < machines && !hit[p.Machine] {
			hit[p.Machine] = true
			out = append(out, p)
		}
	}
	if s.Rate > 0 {
		for m := 0; m < machines; m++ {
			if hit[m] {
				continue
			}
			if roll(s.Seed, uint64(uint32(m))<<32^uint64(uint32(tick)), saltCrash) < s.Rate {
				out = append(out, PlannedCrash{Machine: m, Tick: tick})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

// ParseCrash builds a CrashSchedule from a comma-separated spec string, the
// format of the pstore `--crash` flag:
//
//	seed=42,rate=0.05,downtime=4,at=1@10+5
//
// `at=M@T` pins machine M to crash at tick T; an optional `+D` suffix gives
// it a specific downtime in cycles. at may repeat. An empty spec is an empty
// schedule.
func ParseCrash(spec string) (CrashSchedule, error) {
	var s CrashSchedule
	err := eachKV(spec, func(k, v string) (err error) {
		switch k {
		case "seed":
			s.Seed, err = strconv.ParseInt(v, 10, 64)
		case "rate":
			s.Rate, err = strconv.ParseFloat(v, 64)
		case "downtime":
			s.Downtime, err = strconv.Atoi(v)
		case "at":
			var p PlannedCrash
			p, err = parsePlanned(v)
			s.Planned = append(s.Planned, p)
		default:
			err = errUnknownKey
		}
		return err
	})
	if err != nil {
		return s, err
	}
	return s, s.Validate()
}

func parsePlanned(v string) (PlannedCrash, error) {
	mStr, rest, ok := strings.Cut(v, "@")
	if !ok {
		return PlannedCrash{}, fmt.Errorf("planned crash %q is not machine@tick", v)
	}
	tStr, dStr, hasDowntime := strings.Cut(rest, "+")
	var p PlannedCrash
	var err error
	if p.Machine, err = strconv.Atoi(mStr); err != nil {
		return PlannedCrash{}, err
	}
	if p.Tick, err = strconv.Atoi(tStr); err != nil {
		return PlannedCrash{}, err
	}
	if hasDowntime {
		if p.Downtime, err = strconv.Atoi(dStr); err != nil {
			return PlannedCrash{}, err
		}
	}
	return p, nil
}

// String renders the schedule back into ParseCrash's spec format.
func (s CrashSchedule) String() string {
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	if s.Rate > 0 {
		parts = append(parts, fmt.Sprintf("rate=%v", s.Rate))
	}
	if s.Downtime > 0 {
		parts = append(parts, fmt.Sprintf("downtime=%d", s.Downtime))
	}
	planned := append([]PlannedCrash(nil), s.Planned...)
	sort.Slice(planned, func(i, j int) bool {
		a, b := planned[i], planned[j]
		if a.Tick != b.Tick {
			return a.Tick < b.Tick
		}
		return a.Machine < b.Machine
	})
	for _, p := range planned {
		if p.Downtime > 0 {
			parts = append(parts, fmt.Sprintf("at=%d@%d+%d", p.Machine, p.Tick, p.Downtime))
		} else {
			parts = append(parts, fmt.Sprintf("at=%d@%d", p.Machine, p.Tick))
		}
	}
	return strings.Join(parts, ",")
}
