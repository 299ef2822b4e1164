// Package migration models and schedules data migrations between cluster
// configurations, implementing Section 4.4 of the P-Store paper: the
// maximum migration parallelism (Equation 2), the duration T(B,A) of a move
// (Equation 3), its cost C(B,A) (Equation 4 with Algorithm 4), the effective
// capacity of the cluster while data is in flight (Equation 7), and the
// three-phase round schedule of sender/receiver pairs (Table 1, Figure 4).
package migration

import (
	"fmt"
	"math"
)

// Model captures the empirically discovered parameters of Section 4.1 that
// characterize moves for a given workload and database size.
type Model struct {
	// Q is the target per-server throughput (transactions per time unit).
	// cap(N) = Q*N is the planning capacity of N servers.
	Q float64
	// QMax is the maximum per-server throughput before the latency
	// constraint is at risk (80% of saturation in the paper).
	QMax float64
	// D is the time to migrate the entire database exactly once with a
	// single sender/receiver thread pair without hurting latency,
	// expressed in the same time unit as move durations (the planner uses
	// "time intervals").
	D float64
	// P is the number of partitions per server.
	P int
}

// Validate reports configuration errors.
func (m Model) Validate() error {
	// Negated, so that NaN fails each check.
	if !(m.Q > 0 && m.Q < math.Inf(1)) {
		return fmt.Errorf("migration: Q %v must be positive and finite", m.Q)
	}
	if !(m.QMax >= m.Q && m.QMax < math.Inf(1)) {
		return fmt.Errorf("migration: QMax %v must be finite and at least Q %v", m.QMax, m.Q)
	}
	if !(m.D >= 0 && m.D < math.Inf(1)) {
		return fmt.Errorf("migration: D %v must be finite and non-negative", m.D)
	}
	if m.P < 1 {
		return fmt.Errorf("migration: P %d must be at least 1", m.P)
	}
	return nil
}

// Cap returns cap(N) = Q*N, the planning capacity of N evenly loaded
// servers (Equation 5).
func (m Model) Cap(n int) float64 { return m.Q * float64(n) }

// MaxParallel returns the maximum number of parallel data transfers during
// a move from b to a servers (Equation 2): each partition may exchange data
// with at most one other partition at a time, so parallelism is bounded by
// the smaller of the sender and receiver partition counts.
func (m Model) MaxParallel(b, a int) int {
	switch {
	case b == a:
		return 0
	case b < a:
		return m.P * min(b, a-b)
	default:
		return m.P * min(a, b-a)
	}
}

// MoveTime returns T(B,A), the duration of a move from b to a servers
// (Equation 3), in the time unit of D. The whole database takes D/max∥ to
// move; a move only transfers the fraction of data that must change hands.
func (m Model) MoveTime(b, a int) float64 {
	if b == a {
		return 0
	}
	par := float64(m.MaxParallel(b, a))
	if b < a {
		return m.D / par * (1 - float64(b)/float64(a))
	}
	return m.D / par * (1 - float64(a)/float64(b))
}

// MoveIntervals returns T(B,A) rounded up to a whole number of time
// intervals, the granularity of the planner (Section 4.3: "each move lasts
// some positive number of time intervals (rounded up)"). A do-nothing move
// returns 0; the planner itself stretches it to one interval.
func (m Model) MoveIntervals(b, a int) int {
	return int(math.Ceil(m.MoveTime(b, a) - 1e-9))
}

// AvgMachAlloc returns the time-averaged number of machines allocated during
// a move between b and a servers (Algorithm 4). Machine allocation is
// symmetric between scale-in and scale-out: what matters is the larger and
// smaller cluster, because machines are allocated as late as possible when
// scaling out and released as early as possible when scaling in.
func (m Model) AvgMachAlloc(b, a int) float64 {
	l := max(b, a) // larger cluster
	s := min(b, a) // smaller cluster
	delta := l - s
	if delta == 0 {
		return float64(l)
	}
	r := delta % s

	// Case 1: all machines added or removed at once.
	if s >= delta {
		return float64(l)
	}
	// Case 2: delta is a perfect multiple of the smaller cluster; blocks
	// of s machines are allocated one at a time.
	if r == 0 {
		return float64(2*s+l) / 2
	}
	// Case 3: three phases.
	n1 := delta/s - 1                 // full blocks in phase 1
	t1 := float64(s) / float64(delta) // time fraction per phase-1 step
	m1 := float64(s+l-r) / 2          // average machines across phase-1 steps
	phase1 := float64(n1) * t1 * m1

	t2 := float64(r) / float64(delta)
	m2 := float64(l - r)
	phase2 := t2 * m2

	t3 := float64(s) / float64(delta)
	m3 := float64(l)
	phase3 := t3 * m3

	return phase1 + phase2 + phase3
}

// MoveCost returns C(B,A) = T(B,A) * avg-mach-alloc(B,A), the cost of a
// move (Equation 4) in machine-time-units.
func (m Model) MoveCost(b, a int) float64 {
	return m.MoveTime(b, a) * m.AvgMachAlloc(b, a)
}

// EffCap returns the effective capacity of the cluster after a fraction f
// (0 <= f <= 1) of the move's data has been transferred during a move from
// b to a servers (Equation 7). While data is in flight the most loaded
// server bounds the whole cluster's throughput.
func (m Model) EffCap(b, a int, f float64) float64 {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	fb := float64(b)
	fa := float64(a)
	switch {
	case b == a:
		return m.Cap(b)
	case b < a:
		// Each original server shrinks from 1/B toward 1/A of the data.
		frac := 1/fb - f*(1/fb-1/fa)
		return m.Q / frac
	default:
		// Each surviving server grows from 1/B toward 1/A of the data.
		frac := 1/fb + f*(1/fa-1/fb)
		return m.Q / frac
	}
}

// MachinesFor returns the minimum number of servers whose planning capacity
// covers the given load.
func (m Model) MachinesFor(load float64) int {
	if load <= 0 {
		return 1
	}
	return int(math.Ceil(load/m.Q - 1e-9))
}
