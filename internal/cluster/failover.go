package cluster

import (
	"context"
	"fmt"
	"os/exec"
	"time"

	"pstore/internal/transport"
	"pstore/internal/wire"
)

// Coordinator-side failover: a deterministic failure detector over the
// health probe, and the two recovery actions the coordinator can take when
// it fires — promote the dead node's warm follower (rewiring the survivors'
// forwarding tables to the new primary), or cold-restart the process from
// its own data directory. Both are fenced: promotion raises the epoch above
// everything the cluster has seen, so a zombie of the old primary that
// resumes shipping (or serving) is refused with CodeFenced.

// DetectorConfig parameterizes failure detection for one watched node.
type DetectorConfig struct {
	// Probe is the health-probe period (default 100ms).
	Probe time.Duration
	// FailAfter is how many consecutive probe failures declare the node
	// dead (default 3). Detection latency is therefore deterministic:
	// between (FailAfter-1) x Probe and FailAfter x Probe after the
	// failure, independent of what else the coordinator is doing.
	FailAfter int
}

func (c *DetectorConfig) defaults() {
	if c.Probe <= 0 {
		c.Probe = 100 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
}

// DetectFailure probes the node until it fails FailAfter consecutive
// health checks (a dead process, an unreachable link, and a latched WAL
// error all read the same: unhealthy), returning the elapsed detection
// time. It returns ctx.Err() if cancelled first.
func DetectFailure(ctx context.Context, node *transport.Peer, cfg DetectorConfig) (time.Duration, error) {
	cfg.defaults()
	start := time.Now()
	failures := 0
	t := time.NewTicker(cfg.Probe)
	defer t.Stop()
	for {
		probe, cancel := context.WithTimeout(ctx, cfg.Probe)
		err := node.Health(probe)
		cancel()
		if err != nil {
			failures++
			if failures >= cfg.FailAfter {
				return time.Since(start), nil
			}
		} else {
			failures = 0
		}
		select {
		case <-ctx.Done():
			return time.Since(start), ctx.Err()
		case <-t.C:
		}
	}
}

// PromoteConfig parameterizes a failover promotion.
type PromoteConfig struct {
	// Replica is the dead primary's warm follower; ReplicaURL is the base
	// URL survivors should forward to once it is primary.
	Replica    *transport.Peer
	ReplicaURL string
	// FailedNode is the node slot the replica takes over.
	FailedNode int
	// Survivors are the remaining live nodes by node id; each one's peer
	// table is rewired so transactions for the failed node's machines reach
	// the promoted replica.
	Survivors map[int]*transport.Peer
}

// Promote fails the dead primary over to its follower: pick an epoch above
// everything the survivors and the replica have seen, promote under it,
// then rewire every survivor. The promotion is first — a survivor
// forwarding to a still-replica gets a retryable refusal, which is benign,
// while a zombie primary must be fenced before any client traffic lands on
// the new one.
func Promote(ctx context.Context, cfg PromoteConfig) (wire.ReplStatus, error) {
	var max uint64
	st, err := cfg.Replica.ReplStatus(ctx)
	if err != nil {
		return st, fmt.Errorf("cluster: replica status: %w", err)
	}
	max = st.Epoch
	for id, p := range cfg.Survivors {
		ns, err := p.Status(ctx)
		if err != nil {
			return st, fmt.Errorf("cluster: survivor %d status: %w", id, err)
		}
		if ns.Epoch > max {
			max = ns.Epoch
		}
	}
	promoted, err := cfg.Replica.Promote(ctx, max+1)
	if err != nil {
		return promoted, fmt.Errorf("cluster: promoting follower: %w", err)
	}
	for id, p := range cfg.Survivors {
		if err := p.SetPeer(ctx, cfg.FailedNode, cfg.ReplicaURL); err != nil {
			return promoted, fmt.Errorf("cluster: rewiring survivor %d: %w", id, err)
		}
	}
	return promoted, nil
}

// RejoinConfig parameterizes folding a fenced ex-primary back into the
// cluster as a follower of the promoted node, by a full resync from its
// snapshot.
type RejoinConfig struct {
	// Zombie is the deposed primary (restarted or still live but fenced);
	// Primary the promoted node it must follow, at PrimaryURL.
	Zombie     *transport.Peer
	Primary    *transport.Peer
	PrimaryURL string
}

const (
	// rejoinPoll is the period at which Rejoin polls the zombie for
	// convergence; rejoinTimeout bounds the whole rejoin.
	rejoinPoll    = 50 * time.Millisecond
	rejoinTimeout = 60 * time.Second
)

// Rejoin demotes the zombie into the promoted primary's followership and
// waits until it has converged: role flipped to replica and its applied
// cursor caught up to the primary's durable end as sampled at the moment the
// demotion was ordered (records written after that keep shipping; chasing
// them would make convergence a moving target). Returns the zombie's status
// at convergence.
func Rejoin(ctx context.Context, cfg RejoinConfig) (wire.ReplStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, rejoinTimeout)
	defer cancel()
	target, err := cfg.Primary.ReplStatus(ctx)
	if err != nil {
		return wire.ReplStatus{}, fmt.Errorf("cluster: primary status: %w", err)
	}
	st, err := cfg.Zombie.ReplDemote(ctx, cfg.PrimaryURL)
	if err != nil {
		return st, fmt.Errorf("cluster: demoting zombie: %w", err)
	}
	caughtUp := func(s wire.ReplStatus) bool {
		if s.Role != "replica" {
			return false
		}
		a, d := s.Applied, target.Durable
		return a.Seg > d.Seg || (a.Seg == d.Seg && a.Rec >= d.Rec)
	}
	t := time.NewTicker(rejoinPoll)
	defer t.Stop()
	for !caughtUp(st) {
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("cluster: rejoin did not converge (role %q, applied %+v, target %+v): %w",
				st.Role, st.Applied, target.Durable, ctx.Err())
		case <-t.C:
		}
		if st, err = cfg.Zombie.ReplStatus(ctx); err != nil {
			return st, fmt.Errorf("cluster: zombie status: %w", err)
		}
	}
	return st, nil
}

// RestartNode cold-restarts a dead node by running command (via the shell,
// so the coordinator can be handed the exact serve invocation) and waiting
// until the relaunched process answers its status endpoint — at which point
// it has cold-started from its own data directory.
func RestartNode(ctx context.Context, node *transport.Peer, command string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	cmd := exec.Command("sh", "-c", command)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("cluster: restart command: %w", err)
	}
	// The relaunched serve owns its own lifetime; reap it in the background
	// so a coordinator outliving it leaves no zombie.
	go func() { _ = cmd.Wait() }()
	if err := node.WaitHealthy(ctx, timeout); err != nil {
		return fmt.Errorf("cluster: restarted node: %w", err)
	}
	return nil
}
