package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/cluster"
	"pstore/internal/elastic"
	"pstore/internal/migration"
	"pstore/internal/predictor"
	"pstore/internal/squall"
	"pstore/internal/transport"
	"pstore/internal/workload"
)

// countingTopology counts, from outside the Squall executor, the chunk moves
// the coordinator asks the node processes for. cluster.NewRemote keeps its
// executor private, so this is where chunk counts are taken.
type countingTopology struct {
	transport.Topology
	chunks  atomic.Int64 // forward chunk moves that succeeded
	retried atomic.Int64 // forward chunk moves that failed (each is retried or aborts the move)
	rows    atomic.Int64
}

func (t *countingTopology) MoveBuckets(buckets []int, from, to int, perRow, overhead time.Duration) (int, error) {
	rows, err := t.Topology.MoveBuckets(buckets, from, to, perRow, overhead)
	if err != nil {
		t.retried.Add(1)
		return rows, err
	}
	t.chunks.Add(1)
	t.rows.Add(int64(rows))
	return rows, nil
}

// move is one reconfiguration as the coordinator's event stream reported it.
type move struct {
	from, to   int
	start, end time.Time
	failed     bool
}

// coordinator hosts the elasticity controller in this process, as `pstore
// coord` would: a Remote topology over the node processes, the cluster
// decision loop, and the paper's predictive controller on top.
type coordinator struct {
	cluster *cluster.Cluster
	topo    *countingTopology

	moves []move // written by the event goroutine, read after wg.Wait
	wg    sync.WaitGroup
}

// startCoordinator trains SPAR on the trace's first 28 days and starts the
// decision loop with one cycle per 5 trace minutes. All loads are in
// requests per second.
func startCoordinator(ctx context.Context, st *stack, day diurnalDay, seconds int) (*coordinator, error) {
	peers := make([]*transport.Peer, len(st.nodes))
	for i, n := range st.nodes {
		peers[i] = transport.NewPeer(n.url)
	}
	remote, err := transport.NewRemote(ctx, peers)
	if err != nil {
		return nil, err
	}
	topo := &countingTopology{Topology: remote}

	period := workload.MinutesPerDay / cycleMinutes
	online := predictor.NewOnline(predictor.NewSPAR(period, 7, 6), 0, 9*period)
	if err := online.ObserveAll(day.train); err != nil {
		return nil, err
	}
	cycle := time.Duration(seconds) * time.Second * cycleMinutes / workload.MinutesPerDay
	ctrl := &elastic.Predictive{
		Model: migration.Model{Q: modelQ, QMax: modelQMax, P: 4,
			D: migrationDSeconds / cycle.Seconds()},
		Predictor: online,
		Horizon:   36, Inflation: 0.15, ScaleInConfirm: 6,
		MaxMachines: 4, OnSpike: elastic.SpikeFastRate,
	}
	c, err := cluster.NewRemote(cluster.Config{
		Squall:     squall.DefaultConfig(),
		Controller: ctrl,
		Cycle:      cycle,
		// The loop divides each cycle's transaction count by RateScale; the
		// cycle's length in seconds turns it into requests per second.
		RateScale: cycle.Seconds(),
	}, topo)
	if err != nil {
		return nil, err
	}
	co := &coordinator{cluster: c, topo: topo}
	events, _ := c.Subscribe(4096)
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		for e := range events { // closed by Stop
			co.observe(e)
		}
	}()
	if err := c.Start(ctx); err != nil {
		c.Stop()
		return nil, err
	}
	return co, nil
}

func (co *coordinator) observe(e cluster.Event) {
	switch e := e.(type) {
	case cluster.MoveStarted:
		co.moves = append(co.moves, move{from: e.From, to: e.To, start: e.Time})
	case cluster.MoveFinished:
		co.moves[len(co.moves)-1].end = e.Time
	case cluster.MoveFailed:
		m := &co.moves[len(co.moves)-1]
		m.end, m.failed = e.Time, true
	}
}

// stop halts the decision loop, waits for a move in flight, and returns the
// moves seen. The node processes keep serving.
func (co *coordinator) stop() []move {
	co.cluster.Stop()
	co.wg.Wait()
	return co.moves
}

// machineTime integrates active machines over [from, to]. A scale-out holds
// its new machines from the start of the move, a scale-in releases them at
// its end — the paper's machine-hours accounting. It also returns the
// distinct machine counts visited.
func machineTime(initial int, moves []move, from, to time.Time) (avg float64, visited []int) {
	seen := map[int]bool{initial: true}
	visited = []int{initial}
	note := func(n int) {
		if !seen[n] {
			seen[n] = true
			visited = append(visited, n)
		}
	}
	level, at, area := initial, from, 0.0
	step := func(t time.Time, next int) {
		t = maxTime(minTime(t, to), at)
		area += float64(level) * t.Sub(at).Seconds()
		level, at = next, t
	}
	for _, m := range moves {
		step(m.start, max(m.from, m.to))
		after := m.to
		if m.failed {
			after = m.from
		}
		end := m.end
		if end.IsZero() {
			end = to
		}
		step(end, after)
		if !m.failed {
			note(m.to)
		}
	}
	step(to, level)
	return area / to.Sub(from).Seconds(), visited
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// inMove reports whether t falls inside one of the moves.
func inMove(moves []move, t time.Time) bool {
	for _, m := range moves {
		if !t.Before(m.start) && (m.end.IsZero() || !t.After(m.end)) {
			return true
		}
	}
	return false
}

// checkAgreement is the post-run audit of an elastic run: every node reports
// the same plan and active count, and every bucket has an owner among the
// active machines' partitions.
func checkAgreement(st *stack) error {
	first, err := nodeStatus(st.nodes[0])
	if err != nil {
		return err
	}
	for _, n := range st.nodes[1:] {
		other, err := nodeStatus(n)
		if err != nil {
			return err
		}
		if other.Active != first.Active {
			return fmt.Errorf("nodes disagree on active machines: %d vs %d", first.Active, other.Active)
		}
		if len(other.Plan) != len(first.Plan) {
			return fmt.Errorf("nodes disagree on plan length: %d vs %d", len(first.Plan), len(other.Plan))
		}
		for b := range first.Plan {
			if first.Plan[b] != other.Plan[b] {
				return fmt.Errorf("nodes disagree on the owner of bucket %d: %d vs %d", b, first.Plan[b], other.Plan[b])
			}
		}
	}
	partitions := int32(first.Active * first.PartitionsPerMachine)
	for b, owner := range first.Plan {
		if owner < 0 || owner >= partitions {
			return fmt.Errorf("bucket %d is owned by partition %d, outside the %d active machines", b, owner, first.Active)
		}
	}
	return nil
}
