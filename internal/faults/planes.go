package faults

import (
	"cmp"
	"fmt"
	"sort"
	"time"

	"pstore/internal/store"
)

// chunkKey identifies one chunk of a partition-pair stream (the pair plus
// the chunk's first bucket) or one batch of a node pair's ship stream (the
// pair plus the batch ordinal). Retries share the key and advance its
// attempt counter, so a retry re-rolls deterministically instead of
// replaying the identical failure.
type chunkKey struct {
	from, to, bucket int
}

// attemptKey keeps each plane's attempt counters apart.
type attemptKey struct {
	plane Plane
	chunkKey
}

// attempt returns the key's attempt number on the plane and advances it.
// It allocates the deciders' state on first use.
func (s *Schedule) attempt(p Plane, key chunkKey) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attempts == nil {
		s.attempts = make(map[attemptKey]uint64)
		s.outage = make(map[chunkKey]time.Time)
	}
	n := s.attempts[attemptKey{p, key}]
	s.attempts[attemptKey{p, key}] = n + 1
	return n
}

// moveAttempt is attempt for a move, keyed by its pair and first bucket.
func (s *Schedule) moveAttempt(p Plane, op store.MoveOp) (chunkKey, uint64) {
	key := chunkKey{from: op.From, to: op.To, bucket: -1}
	if len(op.Buckets) > 0 {
		key.bucket = op.Buckets[0]
	}
	return key, s.attempt(p, key)
}

// event returns the schedule's first event of the kind, or a zero one.
func (s *Schedule) event(k Kind) Event {
	for _, e := range s.Events {
		if e.Kind == k {
			return e
		}
	}
	return Event{Kind: k}
}

// hits reports whether an event of a targeted kind names the target.
func (s *Schedule) hits(k Kind, a, b int) bool {
	for _, e := range s.Events {
		if e.Kind == k && e.A == a && e.B == b {
			return true
		}
	}
	return false
}

// fire counts one injection of the kind.
func (s *Schedule) fire(k Kind) { s.fired[k].Add(1) }

// draw rolls one attempt at the key against a rolled kind's probability,
// under the kind's salt, and counts a hit. It returns the kind's duration.
func (s *Schedule) draw(k Kind, key chunkKey, attempt uint64) (bool, time.Duration) {
	e := s.event(k)
	if e.Dur == 0 {
		e.Dur = kinds[k].def
	}
	hit := key.roll(s.Seed, attempt, kinds[k].salt) < e.P
	if hit {
		s.fire(k)
	}
	return hit, e.Dur
}

// roll maps a seed and the words that identify one decision onto a uniform
// value in [0, 1) by hashing — no shared PRNG stream, so decisions are
// interleaving-free. Every fixed-seed schedule depends on the words and
// their order.
func roll(seed int64, words ...uint64) float64 {
	h := uint64(seed)
	for _, w := range words {
		h = splitmix64(h ^ w)
	}
	return float64(h>>11) / float64(1<<53)
}

// roll is the salt-indexed roll of one attempt at the chunk: the identity
// every chunk-, link- and ship-level decision hashes.
func (k chunkKey) roll(seed int64, attempt, salt uint64) float64 {
	return roll(seed, uint64(k.from)<<32^uint64(uint32(k.to)), uint64(uint32(k.bucket)), attempt, salt)
}

// splitmix64 is the finalizer of the SplitMix64 generator: a full-avalanche
// 64-bit mix, perfect for turning structured keys into uniform bits.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// BeforeMove implements store.FaultInjector: the chunk plane, consulted
// before each chunk-level move leaves its source partition.
func (s *Schedule) BeforeMove(op store.MoveOp) error {
	if op.Rollback {
		return nil // recovery is exempt by contract
	}
	s.offered[ChunkPlane].Add(1)
	if s.hits(CrashPair, op.From, op.To) {
		s.fire(CrashPair)
		return fmt.Errorf("faults: partition pair %d -> %d crashed: %w", op.From, op.To, ErrInjected)
	}
	for _, p := range []int{op.From, op.To} {
		if s.hits(CrashPart, p, 0) {
			s.fire(CrashPart)
			return fmt.Errorf("faults: partition %d crashed: %w", p, ErrInjected)
		}
	}

	key, attempt := s.moveAttempt(ChunkPlane, op)
	if stall, d := s.draw(Stall, key, attempt); stall {
		time.Sleep(d)
	} else if slow, d := s.draw(ChunkSlow, key, attempt); slow {
		time.Sleep(d)
	}
	if drop, _ := s.draw(ChunkDrop, key, attempt); drop {
		return fmt.Errorf("faults: dropped chunk of %d buckets %d -> %d (attempt %d): %w",
			len(op.Buckets), op.From, op.To, attempt+1, ErrInjected)
	}
	return nil
}

// LinkDecision is the verdict for one transfer that was not dropped.
type LinkDecision struct {
	Delay    time.Duration // when positive, slows the transfer before it starts
	Dup      bool          // deliver the chunk's install twice (installs are idempotent)
	DeferDup bool          // hold the duplicate until after the pair's next chunk
}

// OnChunk is the link plane: it decides the fate of one chunk transfer
// between two nodes. A non-nil error fails the transfer (link down or
// in-flight drop) before any data leaves the source. Rollbacks are exempt
// as in BeforeMove; chunk identity is BeforeMove's, with its own attempts.
func (s *Schedule) OnChunk(fromNode, toNode int, op store.MoveOp) (LinkDecision, error) {
	var dec LinkDecision
	if op.Rollback {
		return dec, nil
	}
	s.offered[LinkPlane].Add(1)
	if fromNode != toNode && (s.hits(LinkDown, fromNode, toNode) || s.hits(LinkDown, toNode, fromNode)) {
		s.fire(LinkDown)
		return dec, fmt.Errorf("faults: link %d <-> %d partitioned: %w", fromNode, toNode, ErrInjected)
	}

	key, attempt := s.moveAttempt(LinkPlane, op)
	if slow, d := s.draw(LinkSlow, key, attempt); slow {
		dec.Delay = d
	}
	if drop, _ := s.draw(LinkDrop, key, attempt); drop {
		return LinkDecision{}, fmt.Errorf("faults: chunk of %d buckets lost on link %d -> %d (attempt %d): %w",
			len(op.Buckets), fromNode, toNode, attempt+1, ErrInjected)
	}
	// Duplicate and reordered delivery only exist across a real link: a
	// same-node move never serializes a chunk at all.
	if fromNode != toNode {
		dec.Dup, _ = s.draw(LinkDup, key, attempt)
		if reorder, _ := s.draw(LinkReorder, key, attempt); reorder {
			// A reorder is a duplicate that arrives after the next chunk.
			if !dec.Dup {
				s.fire(LinkDup)
			}
			dec.Dup, dec.DeferDup = true, true
		}
	}
	return dec, nil
}

// ShipDecision is the verdict for one batch delivery attempt. After a Drop
// or Partitioned the follower sees nothing and the shipper must retry.
type ShipDecision struct {
	Drop        bool          // the batch is lost in flight
	Partitioned bool          // the send fails at the link
	Delay       time.Duration // when positive, sleeps before the delivery
	Dup         bool          // deliver the batch again after it is acknowledged
	Reorder     bool          // deliver the stream's next batch before this one
}

// OnBatch is the ship plane: it decides the fate of one ship-batch delivery
// from a primary to its follower. Batch identity is (pair, batch ordinal)
// with its own attempt counter, so a retried delivery re-rolls.
func (s *Schedule) OnBatch(fromNode, toNode int, batch uint64) ShipDecision {
	var dec ShipDecision
	s.offered[ShipPlane].Add(1)
	key := chunkKey{from: fromNode, to: toNode, bucket: int(batch)}
	attempt := s.attempt(ShipPlane, key)
	part := s.event(ShipPartition)
	down := key.roll(s.Seed, attempt, kinds[ShipPartition].salt) < part.P
	if part.Dur > 0 {
		down = s.healEpisode(chunkKey{from: fromNode, to: toNode}, down, part.Dur)
	}
	if down {
		s.fire(ShipPartition)
		dec.Partitioned = true
		return dec
	}
	if dec.Drop, _ = s.draw(ShipDrop, key, attempt); dec.Drop {
		return dec
	}
	if slow, d := s.draw(ShipDelay, key, attempt); slow {
		dec.Delay = d
	}
	if dec.Reorder, _ = s.draw(ShipReorder, key, attempt); dec.Reorder {
		return dec
	}
	dec.Dup, _ = s.draw(ShipDup, key, attempt)
	return dec
}

// healEpisode folds a partition roll through the heal-after state machine:
// the first rolled partition opens an outage that fails every attempt until
// healAfter has elapsed, then heals the pair for good — an outage that is
// reproducible and guaranteed to end.
func (s *Schedule) healEpisode(pair chunkKey, rolled bool, healAfter time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	start, seen := s.outage[pair] // a healed pair's start is zero
	switch {
	case seen && start.IsZero():
		return false
	case seen && time.Since(start) < healAfter:
		return true
	case seen:
		s.outage[pair] = time.Time{}
		return false
	case rolled:
		s.outage[pair] = time.Now()
	}
	return rolled
}

// Crash is one machine failure CrashesAt schedules.
type Crash struct {
	Machine, Tick int
	// Down is the cycles the machine stays down before recovery starts: the
	// event's own downtime, else crash-downtime, and at least one.
	Down int
}

// CrashesAt is the crash plane: the crashes scheduled for one tick across
// machines [0, machines), pinned crashes first, then crash-rate's hashed
// decisions — a pure function of (seed, machine, tick) — deduplicated by
// machine and sorted by machine index. Callers skip machines that are
// already down.
func (s *Schedule) CrashesAt(tick, machines int) []Crash {
	rate := s.event(CrashRate)
	var out []Crash
	hit := make(map[int]bool)
	for _, e := range s.Events {
		if e.Kind == PinnedCrash && e.Tick == tick && e.A < machines && !hit[e.A] {
			hit[e.A] = true
			out = append(out, Crash{Machine: e.A, Tick: tick, Down: cmp.Or(e.Down, rate.Down, 1)})
		}
	}
	if rate.P > 0 {
		for m := 0; m < machines; m++ {
			if !hit[m] && roll(s.Seed, uint64(uint32(m))<<32^uint64(uint32(tick)), kinds[CrashRate].salt) < rate.P {
				out = append(out, Crash{Machine: m, Tick: tick, Down: cmp.Or(rate.Down, 1)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}
