package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/store"
)

// Network faults for multi-process chaos runs. Where the base Injector fails
// a move before the chunk leaves the source (an executor-level fault), the
// NetInjector models the link between two *nodes*: dead node pairs, chunks
// dropped in flight, duplicated delivery, reordered (late-duplicate)
// delivery and slow links. Decisions use the same pure
// (seed, pair, chunk, attempt) hash as the base injector — with distinct
// salts — so a multi-process chaos run is exactly as reproducible as a
// single-process one, and the two planes can share a seed without their
// decision streams correlating.

// NodePair identifies an undirected node-to-node link.
type NodePair struct {
	A, B int
}

// normalize orders the pair so (1,0) and (0,1) name the same link.
func (p NodePair) normalize() NodePair {
	if p.A > p.B {
		p.A, p.B = p.B, p.A
	}
	return p
}

// NetConfig describes a deterministic network-fault schedule.
type NetConfig struct {
	// Seed selects the schedule, independent of (but sharable with) the
	// executor-level fault seed.
	Seed int64
	// LinkDrop is the probability in [0, 1] that a chunk is lost in flight:
	// the transfer fails before any data leaves the source, so a dropped
	// chunk is all-or-nothing, like a base-injector drop but attributed to
	// the link.
	LinkDrop float64
	// LinkDup is the probability in [0, 1] that a chunk's install is
	// delivered twice. Installs are idempotent, so duplicates must not
	// change row counts — that invariant is what this fault exists to test.
	LinkDup float64
	// LinkReorder is the probability in [0, 1] that a chunk's duplicate is
	// delivered *late* — after the pair's next chunk — modelling reordered
	// delivery on the link. A reorder implies a duplicate.
	LinkReorder float64
	// LinkSlow is the probability in [0, 1] that a transfer is delayed by
	// LinkDelay first.
	LinkSlow float64
	// LinkDelay is the delay of a slow transfer (default 2ms).
	LinkDelay time.Duration
	// DeadLinks lists node pairs whose every transfer fails — a network
	// partition between those nodes.
	DeadLinks []NodePair
}

// Validate reports configuration errors.
func (c NetConfig) Validate() error {
	for name, p := range map[string]float64{"link-drop": c.LinkDrop, "link-dup": c.LinkDup, "link-reorder": c.LinkReorder, "link-slow": c.LinkSlow} {
		if p < 0 || p > 1 {
			return fmt.Errorf("faults: %s %v outside [0, 1]", name, p)
		}
	}
	if c.LinkDelay < 0 {
		return fmt.Errorf("faults: link-delay must be non-negative")
	}
	for _, l := range c.DeadLinks {
		if l.A < 0 || l.B < 0 {
			return fmt.Errorf("faults: dead link %d:%d has a negative node id", l.A, l.B)
		}
	}
	return nil
}

// LinkDecision is the verdict for one transfer that was not dropped.
type LinkDecision struct {
	// Delay, when positive, slows the transfer before it starts.
	Delay time.Duration
	// Dup asks the transport to deliver the chunk's install a second time.
	Dup bool
	// DeferDup holds the duplicate back until after the pair's next chunk —
	// reordered delivery. Only meaningful when Dup is set.
	DeferDup bool
}

// NetStats counts the network injections performed so far.
type NetStats struct {
	// Drops counts transfers failed in flight; DeadLinks counts transfers
	// refused on a partitioned node pair.
	Drops, DeadLinks int64
	// Dups counts duplicated deliveries, Reorders the subset held back for
	// late delivery, Slows the delayed transfers.
	Dups, Reorders, Slows int64
	// Offered is the total number of forward transfers consulted.
	Offered int64
}

// NetInjector produces deterministic link-level decisions for a networked
// migration transport.
type NetInjector struct {
	cfg NetConfig

	mu       sync.Mutex
	attempts map[chunkKey]uint64

	dead map[NodePair]struct{}

	drops, deadHits, dups, reorders, slows, offered atomic.Int64
}

// NewNet builds a network injector for the given schedule.
func NewNet(cfg NetConfig) (*NetInjector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.LinkDelay == 0 {
		cfg.LinkDelay = 2 * time.Millisecond
	}
	n := &NetInjector{
		cfg:      cfg,
		attempts: make(map[chunkKey]uint64),
		dead:     make(map[NodePair]struct{}, len(cfg.DeadLinks)),
	}
	for _, l := range cfg.DeadLinks {
		n.dead[l.normalize()] = struct{}{}
	}
	return n, nil
}

// Config returns the injector's schedule.
func (n *NetInjector) Config() NetConfig { return n.cfg }

// Stats snapshots the injection counters.
func (n *NetInjector) Stats() NetStats {
	return NetStats{
		Drops:     n.drops.Load(),
		DeadLinks: n.deadHits.Load(),
		Dups:      n.dups.Load(),
		Reorders:  n.reorders.Load(),
		Slows:     n.slows.Load(),
		Offered:   n.offered.Load(),
	}
}

// Link-level salts, distinct from the executor-level ones so sharing a seed
// across both planes never correlates their decisions.
const (
	saltLinkDrop uint64 = 0x11D0
	saltLinkDup  uint64 = 0xD0B2
	saltLinkReo  uint64 = 0x2E0D
	saltLinkSlow uint64 = 0x510F
)

// OnChunk decides the fate of one chunk transfer between two nodes. A
// non-nil error means the transfer fails (dead link or in-flight drop)
// before any data leaves the source. Rollback transfers are exempt by the
// same contract as BeforeMove: recovery is never injected with failure, and
// held-back duplicates for the pair are discarded by the transport on
// rollback. Chunk identity is the same (pair, first-bucket) key as the base
// injector, with its own attempt counter, so retried transfers re-roll.
func (n *NetInjector) OnChunk(fromNode, toNode int, op store.MoveOp) (LinkDecision, error) {
	var dec LinkDecision
	if op.Rollback {
		return dec, nil
	}
	n.offered.Add(1)
	if _, down := n.dead[(NodePair{A: fromNode, B: toNode}).normalize()]; down && fromNode != toNode {
		n.deadHits.Add(1)
		return dec, fmt.Errorf("faults: link %d <-> %d partitioned: %w", fromNode, toNode, ErrInjected)
	}

	key := chunkKey{from: op.From, to: op.To, bucket: -1}
	if len(op.Buckets) > 0 {
		key.bucket = op.Buckets[0]
	}
	n.mu.Lock()
	attempt := n.attempts[key]
	n.attempts[key]++
	n.mu.Unlock()

	roll := func(salt uint64) float64 { return key.roll(n.cfg.Seed, attempt, salt) }
	if roll(saltLinkSlow) < n.cfg.LinkSlow {
		n.slows.Add(1)
		dec.Delay = n.cfg.LinkDelay
	}
	if roll(saltLinkDrop) < n.cfg.LinkDrop {
		n.drops.Add(1)
		return LinkDecision{}, fmt.Errorf("faults: chunk of %d buckets lost on link %d -> %d (attempt %d): %w",
			len(op.Buckets), fromNode, toNode, attempt+1, ErrInjected)
	}
	// Duplicate and reordered delivery only exist across a real link: a
	// same-node move never serializes a chunk at all.
	if fromNode != toNode {
		if roll(saltLinkDup) < n.cfg.LinkDup {
			n.dups.Add(1)
			dec.Dup = true
		}
		if roll(saltLinkReo) < n.cfg.LinkReorder {
			// A reorder is a duplicate that arrives after the next chunk.
			if !dec.Dup {
				n.dups.Add(1)
			}
			n.reorders.Add(1)
			dec.Dup = true
			dec.DeferDup = true
		}
	}
	return dec, nil
}

// ParseNet builds a NetConfig from a comma-separated spec string, the format
// of the pstore `--net-faults` flag:
//
//	seed=42,link-drop=0.05,link-dup=0.1,link-reorder=0.05,
//	link-slow=0.1,link-delay=2ms,partition=0:1
//
// partition may repeat. An empty spec is an empty schedule.
func ParseNet(spec string) (NetConfig, error) {
	var cfg NetConfig
	err := eachKV(spec, func(k, v string) (err error) {
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "link-drop":
			cfg.LinkDrop, err = strconv.ParseFloat(v, 64)
		case "link-dup":
			cfg.LinkDup, err = strconv.ParseFloat(v, 64)
		case "link-reorder":
			cfg.LinkReorder, err = strconv.ParseFloat(v, 64)
		case "link-slow":
			cfg.LinkSlow, err = strconv.ParseFloat(v, 64)
		case "link-delay":
			cfg.LinkDelay, err = time.ParseDuration(v)
		case "partition":
			var pair PartitionPair
			pair, err = parsePair(v)
			cfg.DeadLinks = append(cfg.DeadLinks, NodePair{A: pair.From, B: pair.To})
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

// String renders the schedule back into ParseNet's spec format.
func (c NetConfig) String() string {
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	if c.LinkDrop > 0 {
		parts = append(parts, fmt.Sprintf("link-drop=%v", c.LinkDrop))
	}
	if c.LinkDup > 0 {
		parts = append(parts, fmt.Sprintf("link-dup=%v", c.LinkDup))
	}
	if c.LinkReorder > 0 {
		parts = append(parts, fmt.Sprintf("link-reorder=%v", c.LinkReorder))
	}
	if c.LinkSlow > 0 {
		parts = append(parts, fmt.Sprintf("link-slow=%v", c.LinkSlow))
	}
	if c.LinkDelay > 0 {
		parts = append(parts, fmt.Sprintf("link-delay=%v", c.LinkDelay))
	}
	links := make([]NodePair, 0, len(c.DeadLinks))
	for _, l := range c.DeadLinks {
		links = append(links, l.normalize())
	}
	sort.Slice(links, func(i, j int) bool {
		return links[i].A < links[j].A || (links[i].A == links[j].A && links[i].B < links[j].B)
	})
	for _, l := range links {
		parts = append(parts, fmt.Sprintf("partition=%d:%d", l.A, l.B))
	}
	return strings.Join(parts, ",")
}
