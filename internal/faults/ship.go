package faults

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Replication-stream faults. Where the NetInjector targets migration chunks,
// the ShipInjector targets the primary-to-follower WAL ship stream: batches
// dropped in flight, delivered twice, delivered out of order, delayed, or
// refused outright on a partitioned link. Decisions use the same pure
// (seed, pair, chunk, attempt) hash as the other planes — the "chunk" here
// is the batch ordinal since sync — with its own salts, so ship schedules
// stay placement-invariant and never correlate with the chunk planes even
// under a shared seed.

// ShipConfig describes a deterministic ship-fault schedule.
type ShipConfig struct {
	// Seed selects the schedule.
	Seed int64
	// Drop is the probability in [0, 1] that a batch is lost in flight: the
	// follower never sees it and the shipper retries the same records.
	Drop float64
	// Dup is the probability in [0, 1] that a batch is delivered twice. The
	// follower's per-bucket LSN dedup must make the second delivery a no-op.
	Dup float64
	// Reorder is the probability in [0, 1] that a batch is held back and the
	// stream's *next* batch is delivered first. The follower must refuse the
	// out-of-order batch (gap ack) and recover once the held batch arrives.
	Reorder float64
	// Delay is the probability in [0, 1] that a batch's delivery is delayed
	// by DelayFor first.
	Delay float64
	// DelayFor is the delay of a slowed batch (default 2ms).
	DelayFor time.Duration
	// Partition is the probability in [0, 1] that the link is down for this
	// delivery attempt: the send fails like a network error, and the shipper
	// retries.
	Partition float64
	// HealAfter, when positive, turns partitions into bounded outages: the
	// first partition the hash fires for a pair opens an episode during
	// which every delivery attempt fails, and once HealAfter has elapsed the
	// pair heals permanently. Which batch opens the episode is decided by
	// the same seed+pair hash, so a schedule's outage is reproducible — and
	// guaranteed to end, which failover tests need to assert convergence
	// after the blip.
	HealAfter time.Duration
}

// Validate reports configuration errors.
func (c ShipConfig) Validate() error {
	for name, p := range map[string]float64{
		"ship-drop": c.Drop, "ship-dup": c.Dup, "ship-reorder": c.Reorder,
		"ship-delay": c.Delay, "ship-partition": c.Partition,
	} {
		if p < 0 || p > 1 {
			return fmt.Errorf("faults: %s %v outside [0, 1]", name, p)
		}
	}
	if c.DelayFor < 0 {
		return fmt.Errorf("faults: ship-delay-for must be non-negative")
	}
	if c.HealAfter < 0 {
		return fmt.Errorf("faults: heal-after must be non-negative")
	}
	return nil
}

// Enabled reports whether any fault has a non-zero probability.
func (c ShipConfig) Enabled() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Reorder > 0 || c.Delay > 0 || c.Partition > 0
}

// ShipDecision is the verdict for one batch delivery attempt.
type ShipDecision struct {
	// Drop loses the batch in flight; Partitioned fails the send at the
	// link. Both mean the follower sees nothing and the shipper must retry.
	Drop        bool
	Partitioned bool
	// Delay, when positive, sleeps before the delivery.
	Delay time.Duration
	// Dup delivers the batch a second time after it is acknowledged.
	Dup bool
	// Reorder delivers the stream's next batch before this one.
	Reorder bool
}

// ShipStats counts the injections performed so far.
type ShipStats struct {
	Offered, Drops, Partitions, Dups, Reorders, Delays int64
}

// ShipInjector produces deterministic decisions for a WAL shipper.
type ShipInjector struct {
	cfg ShipConfig

	mu       sync.Mutex
	attempts map[chunkKey]uint64
	// outage is each pair's open heal-after episode (start time); healed
	// marks pairs whose episode ended — they never partition again.
	outage map[pairKey]time.Time
	healed map[pairKey]bool

	offered, drops, partitions, dups, reorders, delays atomic.Int64
}

type pairKey struct{ from, to int }

// NewShip builds a ship injector for the given schedule.
func NewShip(cfg ShipConfig) (*ShipInjector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.DelayFor == 0 {
		cfg.DelayFor = 2 * time.Millisecond
	}
	return &ShipInjector{
		cfg:      cfg,
		attempts: make(map[chunkKey]uint64),
		outage:   make(map[pairKey]time.Time),
		healed:   make(map[pairKey]bool),
	}, nil
}

// Config returns the injector's schedule.
func (n *ShipInjector) Config() ShipConfig { return n.cfg }

// Stats snapshots the injection counters.
func (n *ShipInjector) Stats() ShipStats {
	return ShipStats{
		Offered:    n.offered.Load(),
		Drops:      n.drops.Load(),
		Partitions: n.partitions.Load(),
		Dups:       n.dups.Load(),
		Reorders:   n.reorders.Load(),
		Delays:     n.delays.Load(),
	}
}

// Ship-plane salts, distinct from the executor- and link-level ones.
const (
	saltShipDrop uint64 = 0x54D0
	saltShipDup  uint64 = 0x54D1
	saltShipReo  uint64 = 0x54D2
	saltShipSlow uint64 = 0x54D3
	saltShipPart uint64 = 0x54D4
)

// OnBatch decides the fate of one ship-batch delivery from the primary to
// its follower. Batch identity is (pair, batch ordinal) with a per-identity
// attempt counter, so a retried delivery re-rolls — the same replay contract
// as the chunk planes.
func (n *ShipInjector) OnBatch(fromNode, toNode int, batch uint64) ShipDecision {
	var dec ShipDecision
	n.offered.Add(1)
	key := chunkKey{from: fromNode, to: toNode, bucket: int(batch)}
	n.mu.Lock()
	attempt := n.attempts[key]
	n.attempts[key]++
	n.mu.Unlock()

	roll := func(salt uint64) float64 { return key.roll(n.cfg.Seed, attempt, salt) }
	part := roll(saltShipPart) < n.cfg.Partition
	if n.cfg.HealAfter > 0 {
		part = n.healEpisode(pairKey{from: fromNode, to: toNode}, part)
	}
	if part {
		n.partitions.Add(1)
		dec.Partitioned = true
		return dec
	}
	if roll(saltShipDrop) < n.cfg.Drop {
		n.drops.Add(1)
		dec.Drop = true
		return dec
	}
	if roll(saltShipSlow) < n.cfg.Delay {
		n.delays.Add(1)
		dec.Delay = n.cfg.DelayFor
	}
	if roll(saltShipReo) < n.cfg.Reorder {
		n.reorders.Add(1)
		dec.Reorder = true
		return dec
	}
	if roll(saltShipDup) < n.cfg.Dup {
		n.dups.Add(1)
		dec.Dup = true
	}
	return dec
}

// healEpisode folds a partition roll through the heal-after state machine:
// a healed pair never partitions, an open episode partitions every attempt
// until HealAfter has elapsed (then heals the pair for good), and the first
// rolled partition opens the episode.
func (n *ShipInjector) healEpisode(pk pairKey, rolled bool) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.healed[pk] {
		return false
	}
	if start, open := n.outage[pk]; open {
		if time.Since(start) < n.cfg.HealAfter {
			return true
		}
		delete(n.outage, pk)
		n.healed[pk] = true
		return false
	}
	if rolled {
		n.outage[pk] = time.Now()
	}
	return rolled
}

// ParseShip builds a ShipConfig from a comma-separated spec string, the
// format of the pstore `--ship-faults` flag:
//
//	seed=42,ship-drop=0.05,ship-dup=0.1,ship-reorder=0.05,
//	ship-delay=0.1,ship-delay-for=2ms,ship-partition=0.02,heal-after=500ms
//
// An empty spec is an empty schedule.
func ParseShip(spec string) (ShipConfig, error) {
	var cfg ShipConfig
	err := eachKV(spec, func(k, v string) (err error) {
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "ship-drop":
			cfg.Drop, err = strconv.ParseFloat(v, 64)
		case "ship-dup":
			cfg.Dup, err = strconv.ParseFloat(v, 64)
		case "ship-reorder":
			cfg.Reorder, err = strconv.ParseFloat(v, 64)
		case "ship-delay":
			cfg.Delay, err = strconv.ParseFloat(v, 64)
		case "ship-delay-for":
			cfg.DelayFor, err = time.ParseDuration(v)
		case "ship-partition":
			cfg.Partition, err = strconv.ParseFloat(v, 64)
		case "heal-after":
			cfg.HealAfter, err = time.ParseDuration(v)
		default:
			err = errUnknownKey
		}
		return err
	})
	if err != nil {
		return cfg, err
	}
	return cfg, cfg.Validate()
}

// String renders the schedule back into ParseShip's spec format.
func (c ShipConfig) String() string {
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	if c.Drop > 0 {
		parts = append(parts, fmt.Sprintf("ship-drop=%v", c.Drop))
	}
	if c.Dup > 0 {
		parts = append(parts, fmt.Sprintf("ship-dup=%v", c.Dup))
	}
	if c.Reorder > 0 {
		parts = append(parts, fmt.Sprintf("ship-reorder=%v", c.Reorder))
	}
	if c.Delay > 0 {
		parts = append(parts, fmt.Sprintf("ship-delay=%v", c.Delay))
	}
	if c.DelayFor > 0 && c.DelayFor != 2*time.Millisecond {
		parts = append(parts, fmt.Sprintf("ship-delay-for=%v", c.DelayFor))
	}
	if c.Partition > 0 {
		parts = append(parts, fmt.Sprintf("ship-partition=%v", c.Partition))
	}
	if c.HealAfter > 0 {
		parts = append(parts, fmt.Sprintf("heal-after=%v", c.HealAfter))
	}
	return strings.Join(parts, ",")
}
