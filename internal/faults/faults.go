// Package faults is the injectable fault plane for chaos testing the live
// migration path. The paper's value proposition is reconfiguration *under
// load*, which only matters if a reconfiguration that misbehaves — a chunk
// send failing, an executor stalling, a partition pair going dark — degrades
// gracefully instead of wedging the cluster. This package produces those
// misbehaviours on demand, deterministically.
//
// Determinism is the load-bearing property: every injection decision is a
// pure function of (seed, source partition, destination partition, chunk
// identity, attempt number), computed by hashing rather than by drawing from
// a shared PRNG stream. Concurrent partition-pair streams therefore see the
// same fault schedule regardless of goroutine interleaving, which is what
// lets the chaos suite demand byte-identical final bucket plans across runs
// at a fixed seed.
//
// The injector plugs into the engine through store.FaultInjector and is
// consulted before each chunk-level move. Rollback operations are exempt by
// contract (store.MoveOp.Rollback): recovery from an injected fault must
// never itself be injected with failure, mirroring real Squall, where the
// source's committed copy survives until the destination acknowledges.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/store"
)

// ErrInjected is the sentinel wrapped by every injected failure, so callers
// can distinguish chaos from genuine engine errors.
var ErrInjected = errors.New("faults: injected failure")

// PartitionPair identifies a directed source→destination partition pair.
type PartitionPair struct {
	From, To int
}

// Config describes a deterministic fault schedule.
type Config struct {
	// Seed selects the schedule; the same seed always produces the same
	// injection decisions for the same sequence of moves.
	Seed int64
	// ChunkDrop is the probability in [0, 1] that a chunk send fails.
	ChunkDrop float64
	// ChunkSlow is the probability in [0, 1] that a chunk is delayed by
	// SlowDelay before it executes.
	ChunkSlow float64
	// SlowDelay is the delay of a slow chunk (default 2ms).
	SlowDelay time.Duration
	// Stall is the probability in [0, 1] that the sending coordinator
	// stalls for StallDelay before the chunk executes — long enough to
	// trip a configured per-move timeout.
	Stall float64
	// StallDelay is the duration of an injected stall (default 50ms).
	StallDelay time.Duration
	// CrashPairs lists partition pairs whose chunk sends always fail — a
	// crashed network path between two partitions.
	CrashPairs []PartitionPair
	// CrashParts lists partitions that fail every move they participate
	// in, sending or receiving — a crashed partition executor.
	CrashParts []int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for name, p := range map[string]float64{"chunk-drop": c.ChunkDrop, "chunk-slow": c.ChunkSlow, "stall": c.Stall} {
		if p < 0 || p > 1 {
			return fmt.Errorf("faults: %s %v outside [0, 1]", name, p)
		}
	}
	if c.SlowDelay < 0 || c.StallDelay < 0 {
		return fmt.Errorf("faults: delays must be non-negative")
	}
	return nil
}

// Stats counts the injections performed so far.
type Stats struct {
	// Drops is the number of chunk sends failed by probability.
	Drops int64
	// Crashes is the number of chunk sends failed by a crashed pair or
	// partition.
	Crashes int64
	// Slows and Stalls count injected delays.
	Slows, Stalls int64
	// Offered is the total number of forward moves consulted.
	Offered int64
}

// chunkKey identifies one logical chunk of one partition-pair stream: the
// pair plus the chunk's first bucket. Retries of the same chunk share the
// key and advance its attempt counter, so a retry re-rolls the dice
// deterministically instead of replaying the identical failure.
type chunkKey struct {
	from, to, bucket int
}

// Injector implements store.FaultInjector with a deterministic schedule.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	attempts map[chunkKey]uint64

	crashPairs map[PartitionPair]struct{}
	crashParts map[int]struct{}

	drops, crashes, slows, stalls, offered atomic.Int64
}

// New builds an injector for the given schedule.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SlowDelay == 0 {
		cfg.SlowDelay = 2 * time.Millisecond
	}
	if cfg.StallDelay == 0 {
		cfg.StallDelay = 50 * time.Millisecond
	}
	in := &Injector{
		cfg:        cfg,
		attempts:   make(map[chunkKey]uint64),
		crashPairs: make(map[PartitionPair]struct{}, len(cfg.CrashPairs)),
		crashParts: make(map[int]struct{}, len(cfg.CrashParts)),
	}
	for _, p := range cfg.CrashPairs {
		in.crashPairs[p] = struct{}{}
	}
	for _, p := range cfg.CrashParts {
		in.crashParts[p] = struct{}{}
	}
	return in, nil
}

// Config returns the injector's schedule.
func (in *Injector) Config() Config { return in.cfg }

// Stats snapshots the injection counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Drops:   in.drops.Load(),
		Crashes: in.crashes.Load(),
		Slows:   in.slows.Load(),
		Stalls:  in.stalls.Load(),
		Offered: in.offered.Load(),
	}
}

// Salts separate the independent decision streams drawn from one hash.
const (
	saltDrop uint64 = 0xD609
	saltSlow uint64 = 0x510C
	saltStal uint64 = 0x57A1
)

// BeforeMove implements store.FaultInjector.
func (in *Injector) BeforeMove(op store.MoveOp) error {
	if op.Rollback {
		return nil // recovery is exempt by contract
	}
	in.offered.Add(1)
	if _, crashed := in.crashPairs[PartitionPair{From: op.From, To: op.To}]; crashed {
		in.crashes.Add(1)
		return fmt.Errorf("faults: partition pair %d -> %d crashed: %w", op.From, op.To, ErrInjected)
	}
	if _, dead := in.crashParts[op.From]; dead {
		in.crashes.Add(1)
		return fmt.Errorf("faults: partition %d crashed: %w", op.From, ErrInjected)
	}
	if _, dead := in.crashParts[op.To]; dead {
		in.crashes.Add(1)
		return fmt.Errorf("faults: partition %d crashed: %w", op.To, ErrInjected)
	}

	key := chunkKey{from: op.From, to: op.To, bucket: -1}
	if len(op.Buckets) > 0 {
		key.bucket = op.Buckets[0]
	}
	in.mu.Lock()
	attempt := in.attempts[key]
	in.attempts[key]++
	in.mu.Unlock()

	if key.roll(in.cfg.Seed, attempt, saltStal) < in.cfg.Stall {
		in.stalls.Add(1)
		time.Sleep(in.cfg.StallDelay)
	} else if key.roll(in.cfg.Seed, attempt, saltSlow) < in.cfg.ChunkSlow {
		in.slows.Add(1)
		time.Sleep(in.cfg.SlowDelay)
	}
	if key.roll(in.cfg.Seed, attempt, saltDrop) < in.cfg.ChunkDrop {
		in.drops.Add(1)
		return fmt.Errorf("faults: dropped chunk of %d buckets %d -> %d (attempt %d): %w",
			len(op.Buckets), op.From, op.To, attempt+1, ErrInjected)
	}
	return nil
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

// Parse builds a Config from a comma-separated spec string, the format of
// the pstore `--faults` flag:
//
//	seed=42,chunk-drop=0.05,chunk-slow=0.1,slow-delay=2ms,
//	stall=0.01,stall-delay=50ms,crash-pair=3:7,crash-part=2
//
// crash-pair and crash-part may repeat. An empty spec is an empty schedule.
func Parse(spec string) (Config, error) {
	var cfg Config
	err := eachKV(spec, func(k, v string) (err error) {
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "chunk-drop":
			cfg.ChunkDrop, err = strconv.ParseFloat(v, 64)
		case "chunk-slow":
			cfg.ChunkSlow, err = strconv.ParseFloat(v, 64)
		case "slow-delay":
			cfg.SlowDelay, err = time.ParseDuration(v)
		case "stall":
			cfg.Stall, err = strconv.ParseFloat(v, 64)
		case "stall-delay":
			cfg.StallDelay, err = time.ParseDuration(v)
		case "crash-pair":
			var pair PartitionPair
			pair, err = parsePair(v)
			cfg.CrashPairs = append(cfg.CrashPairs, pair)
		case "crash-part":
			var p int
			p, err = strconv.Atoi(v)
			cfg.CrashParts = append(cfg.CrashParts, p)
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

var errUnknownKey = errors.New("unknown key")

// eachKV calls fn for every key=value field of a comma-separated spec, the
// shape all four fault flags share; an empty spec has no fields. fn returns
// errUnknownKey for a key outside its grammar.
func eachKV(spec string, fn func(k, v string) error) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return fmt.Errorf("faults: field %q is not key=value", field)
		}
		if err := fn(k, v); err == errUnknownKey {
			return fmt.Errorf("faults: unknown key %q", k)
		} else if err != nil {
			return fmt.Errorf("faults: parsing %q: %w", field, err)
		}
	}
	return nil
}

func parsePair(v string) (PartitionPair, error) {
	a, b, ok := strings.Cut(v, ":")
	if !ok {
		return PartitionPair{}, fmt.Errorf("pair %q is not from:to", v)
	}
	from, err := strconv.Atoi(a)
	if err != nil {
		return PartitionPair{}, err
	}
	to, err := strconv.Atoi(b)
	if err != nil {
		return PartitionPair{}, err
	}
	return PartitionPair{From: from, To: to}, nil
}

// String renders the schedule back into Parse's spec format.
func (c Config) String() string {
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	if c.ChunkDrop > 0 {
		parts = append(parts, fmt.Sprintf("chunk-drop=%v", c.ChunkDrop))
	}
	if c.ChunkSlow > 0 {
		parts = append(parts, fmt.Sprintf("chunk-slow=%v", c.ChunkSlow))
	}
	if c.SlowDelay > 0 {
		parts = append(parts, fmt.Sprintf("slow-delay=%v", c.SlowDelay))
	}
	if c.Stall > 0 {
		parts = append(parts, fmt.Sprintf("stall=%v", c.Stall))
	}
	if c.StallDelay > 0 {
		parts = append(parts, fmt.Sprintf("stall-delay=%v", c.StallDelay))
	}
	pairs := append([]PartitionPair(nil), c.CrashPairs...)
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i].From < pairs[j].From || (pairs[i].From == pairs[j].From && pairs[i].To < pairs[j].To)
	})
	for _, p := range pairs {
		parts = append(parts, fmt.Sprintf("crash-pair=%d:%d", p.From, p.To))
	}
	crash := append([]int(nil), c.CrashParts...)
	sort.Ints(crash)
	for _, p := range crash {
		parts = append(parts, fmt.Sprintf("crash-part=%d", p))
	}
	return strings.Join(parts, ",")
}
