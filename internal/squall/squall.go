// Package squall executes live reconfigurations of the storage engine,
// playing the role of the Squall migration system in the paper (Sections 2
// and 6): given a source and target cluster size it derives the balanced
// target partition plan, splits the data to move into chunks, and streams
// the chunks between partition executors round by round following the
// maximum-parallelism schedule of Section 4.4.1 — throttled so migration
// work steals only a bounded share of each executor's time.
package squall

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/metrics"
	"pstore/internal/migration"
	"pstore/internal/store"
	"pstore/internal/transport"
)

// Config tunes migration aggressiveness — the paper's chunk-size and
// rate-R knobs (Section 8.1, Figure 8; Section 8.2, Figure 11).
type Config struct {
	// ChunkRows is the target number of rows per migration chunk. Larger
	// chunks finish the reconfiguration faster but occupy executors for
	// longer stretches, risking latency spikes (Figure 8).
	ChunkRows int
	// RowCost is the executor time consumed per row on the sending side;
	// the receiving side pays half (installation is cheaper than
	// extraction and packing).
	RowCost time.Duration
	// ChunkOverhead is the fixed executor time per chunk on each side.
	ChunkOverhead time.Duration
	// Spacing is the idle gap between consecutive chunks of one
	// partition-pair stream (Squall spaces chunks by at least 100 ms on
	// average; scaled down with everything else here).
	Spacing time.Duration
	// RateFactor accelerates migration by shrinking Spacing: the paper's
	// "rate R x 8" reactive fallback uses RateFactor = 8. Zero means 1.
	RateFactor float64
	// MaxChunkRetries is how many times a failed chunk send is retried
	// before the whole reconfiguration aborts and rolls back. Zero means a
	// single attempt per chunk.
	MaxChunkRetries int
	// RetryBackoff is the wait before the first retry of a failed chunk;
	// it doubles per retry, capped at MaxRetryBackoff.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the exponential retry backoff. Zero leaves the
	// backoff uncapped.
	MaxRetryBackoff time.Duration
	// MoveTimeout bounds one whole reconfiguration: when exceeded, streams
	// stop at their next chunk boundary and the move aborts with rollback.
	// Zero disables the timeout. Note a timeout makes the abort point
	// timing-dependent; the deterministic chaos suite runs without one.
	MoveTimeout time.Duration
}

// DefaultConfig returns a throttled configuration suitable for the scaled
// test substrate.
func DefaultConfig() Config {
	return Config{
		ChunkRows:       200,
		RowCost:         3 * time.Microsecond,
		ChunkOverhead:   300 * time.Microsecond,
		Spacing:         2 * time.Millisecond,
		RateFactor:      1,
		MaxChunkRetries: 3,
		RetryBackoff:    500 * time.Microsecond,
		MaxRetryBackoff: 8 * time.Millisecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ChunkRows < 1 {
		return fmt.Errorf("squall: ChunkRows %d must be at least 1", c.ChunkRows)
	}
	if c.RowCost < 0 || c.ChunkOverhead < 0 || c.Spacing < 0 {
		return fmt.Errorf("squall: costs must be non-negative")
	}
	if !(c.RateFactor >= 0) || math.IsInf(c.RateFactor, 0) {
		return fmt.Errorf("squall: RateFactor %v must be finite and non-negative", c.RateFactor)
	}
	if c.MaxChunkRetries < 0 {
		return fmt.Errorf("squall: MaxChunkRetries %d must be non-negative", c.MaxChunkRetries)
	}
	if c.RetryBackoff < 0 || c.MaxRetryBackoff < 0 || c.MoveTimeout < 0 {
		return fmt.Errorf("squall: retry backoffs and MoveTimeout must be non-negative")
	}
	return nil
}

// Executor performs live reconfigurations against a node boundary: a
// *store.Engine in single-process mode, or a networked topology
// (transport.Remote) whose MoveBuckets decomposes into chunk RPCs between
// node processes. The executor itself is placement-oblivious — schedule,
// chunking, retry and rollback logic are identical either way.
type Executor struct {
	eng transport.Node
	cfg Config

	mu  sync.Mutex // serializes reconfigurations
	rec atomic.Pointer[metrics.Recorder]

	chunksMoved    atomic.Int64
	retries        atomic.Int64
	aborts         atomic.Int64
	rollbackChunks atomic.Int64
}

// Stats are the executor's cumulative migration health counters.
type Stats struct {
	// ChunksMoved counts successfully moved forward chunks.
	ChunksMoved int64
	// Retries counts failed chunk sends that were retried.
	Retries int64
	// Aborts counts reconfigurations that failed and rolled back.
	Aborts int64
	// RollbackChunks counts chunks moved back during aborts.
	RollbackChunks int64
}

// Stats snapshots the executor's migration counters.
func (ex *Executor) Stats() Stats {
	return Stats{
		ChunksMoved:    ex.chunksMoved.Load(),
		Retries:        ex.retries.Load(),
		Aborts:         ex.aborts.Load(),
		RollbackChunks: ex.rollbackChunks.Load(),
	}
}

// ErrMoveTimeout is the cause of a MoveError when a reconfiguration exceeds
// the configured MoveTimeout.
var ErrMoveTimeout = errors.New("squall: move exceeded MoveTimeout")

// MoveError is the typed failure of an aborted reconfiguration. The executor
// never leaves a half-moved plan behind: by the time a MoveError is
// returned, every successfully moved chunk has been migrated back and the
// active machine count restored, so the engine is immediately reusable for
// the next plan — unless RolledBack is false, which only happens when the
// engine itself is shutting down mid-recovery.
type MoveError struct {
	// From and To are the machine counts of the failed move.
	From, To int
	// Cause is the first chunk error that triggered the abort.
	Cause error
	// RolledBack reports whether the pre-move bucket plan was restored.
	RolledBack bool
	// RollbackErr is the error that interrupted restoration, if any.
	RollbackErr error
}

// Error implements error.
func (e *MoveError) Error() string {
	state := "rolled back"
	if !e.RolledBack {
		state = fmt.Sprintf("rollback failed: %v", e.RollbackErr)
	}
	return fmt.Sprintf("squall: move %d -> %d aborted (%s): %v", e.From, e.To, state, e.Cause)
}

// Unwrap exposes the abort cause to errors.Is/As.
func (e *MoveError) Unwrap() error { return e.Cause }

// NewExecutor returns a migration executor for a node boundary — a
// *store.Engine for single-process mode, or any transport.Node (e.g. a
// networked topology) for multi-process mode.
func NewExecutor(eng transport.Node, cfg Config) (*Executor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Executor{eng: eng, cfg: cfg}, nil
}

// SetRecorder attaches a recorder; reconfiguration spans are filed into it.
func (ex *Executor) SetRecorder(r *metrics.Recorder) { ex.rec.Store(r) }

// ErrInProgress is returned when a reconfiguration is requested while
// another is still running.
var ErrInProgress = errors.New("squall: reconfiguration already in progress")

// Check refuses the moves Reconfigure refuses on their inputs alone: a
// non-finite rate factor, or a move with an end outside [1, MaxMachines]. A
// caller that reports a move before running it checks it first.
func (ex *Executor) Check(from, to int, rateFactor float64) error {
	if math.IsNaN(rateFactor) || math.IsInf(rateFactor, 0) {
		return fmt.Errorf("squall: rate factor %v must be finite", rateFactor)
	}
	if from == to {
		return nil
	}
	if max := ex.eng.Config().MaxMachines; from < 1 || from > max || to < 1 || to > max {
		return fmt.Errorf("squall: move %d -> %d outside [1, %d]", from, to, max)
	}
	return nil
}

// Reconfigure live-migrates the cluster from `from` machines to `to`
// machines. It blocks until all data has moved and the active machine count
// has been updated. rateFactor <= 0 uses the configured RateFactor; a
// non-finite one is refused before anything moves (see Check).
func (ex *Executor) Reconfigure(from, to int, rateFactor float64) error {
	if err := ex.Check(from, to, rateFactor); err != nil || from == to {
		return err
	}
	cfg := ex.eng.Config()
	if ex.eng.ActiveMachines() != from {
		return fmt.Errorf("squall: engine has %d active machines, move starts from %d",
			ex.eng.ActiveMachines(), from)
	}
	if !ex.mu.TryLock() {
		return ErrInProgress
	}
	defer ex.mu.Unlock()

	start := time.Now()
	defer func() {
		if r := ex.rec.Load(); r != nil {
			r.RecordReconfiguration(start, time.Now())
		}
	}()

	if rateFactor <= 0 {
		rateFactor = ex.cfg.RateFactor
	}
	if rateFactor <= 0 {
		rateFactor = 1
	}

	sched, err := migration.BuildSchedule(from, to, cfg.PartitionsPerMachine)
	if err != nil {
		return err
	}
	assignments, err := ex.planBuckets(from, to)
	if err != nil {
		return err
	}

	// Chunk size in buckets: ChunkRows is a row budget per chunk, so size
	// chunks by the average rows per bucket (rounded to nearest). The row
	// count comes from the engine's typed per-partition counters — never
	// from walking the nested bucket maps.
	avgRows := 1
	if rows := ex.eng.TotalRows(); rows > 0 {
		avgRows = max((rows+cfg.Buckets/2)/cfg.Buckets, 1)
	}
	chunkBuckets := max(ex.cfg.ChunkRows/avgRows, 1)

	// journal records every chunk that completed, in completion order, so an
	// abort can undo the move exactly: chunks migrate back in reverse and
	// the pre-move bucket plan and row counters are restored.
	var (
		jmu     sync.Mutex
		journal []movedChunk
	)
	record := func(c movedChunk) {
		jmu.Lock()
		journal = append(journal, c)
		jmu.Unlock()
	}
	// abort is closed when MoveTimeout fires; streams notice it at chunk
	// boundaries and stop early with ErrMoveTimeout.
	abort := make(chan struct{})
	if ex.cfg.MoveTimeout > 0 {
		var once sync.Once
		timer := time.AfterFunc(ex.cfg.MoveTimeout, func() { once.Do(func() { close(abort) }) })
		defer timer.Stop()
	}
	// fail aborts the reconfiguration: roll the journal back, restore the
	// machine count, and surface the typed failure.
	fail := func(cause error) error {
		ex.aborts.Add(1)
		restored, rbErr := ex.rollback(journal)
		ex.rollbackChunks.Add(int64(restored))
		if rbErr == nil {
			rbErr = ex.eng.SetActiveMachines(from)
		}
		return &MoveError{From: from, To: to, Cause: cause, RolledBack: rbErr == nil, RollbackErr: rbErr}
	}

	for i, round := range sched.Rounds {
		if err := ex.eng.SetActiveMachines(sched.MachinesAllocated(i)); err != nil {
			return fail(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, len(round)*cfg.PartitionsPerMachine)
		for j, tr := range round {
			for k := 0; k < cfg.PartitionsPerMachine; k++ {
				fromPart := tr.From*cfg.PartitionsPerMachine + k
				toPart := tr.To*cfg.PartitionsPerMachine + k
				buckets := assignments[pairKey{fromPart, toPart}]
				if len(buckets) == 0 {
					continue
				}
				wg.Add(1)
				go func(slot, fromPart, toPart int, buckets []int) {
					defer wg.Done()
					if err := ex.stream(fromPart, toPart, buckets, chunkBuckets, rateFactor, abort, record); err != nil {
						errs[slot] = err
					}
				}(j*cfg.PartitionsPerMachine+k, fromPart, toPart, buckets)
			}
		}
		// A failing stream skips its own remaining chunks but never cuts
		// the other streams short: every pair's chunk/attempt sequence in a
		// started round is fully determined by the fault schedule, which
		// keeps chaos runs byte-identical across interleavings.
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return fail(err)
			}
		}
	}
	if err := ex.eng.SetActiveMachines(to); err != nil {
		return fail(err)
	}
	return nil
}

// movedChunk is one journal entry: a chunk that reached its destination.
type movedChunk struct {
	from, to int
	buckets  []int
}

// rollback migrates journaled chunks back to their sources, newest first,
// through the injection-exempt rollback path. It returns how many chunks
// were restored; an error (only possible when the engine is stopping)
// interrupts restoration.
func (ex *Executor) rollback(journal []movedChunk) (int, error) {
	restored := 0
	for i := len(journal) - 1; i >= 0; i-- {
		c := journal[i]
		if _, err := ex.eng.MoveBucketsRollback(c.buckets, c.to, c.from, ex.cfg.RowCost, ex.cfg.ChunkOverhead); err != nil {
			return restored, err
		}
		restored++
	}
	return restored, nil
}

type pairKey struct{ from, to int }

// planBuckets derives which buckets every partition pair must move so that
// the cluster ends balanced: every active partition owns (as close as
// possible) the same number of buckets, and every sender spreads its load
// evenly over its receivers — the equal-data invariant of Section 4.4.1.
func (ex *Executor) planBuckets(from, to int) (map[pairKey][]int, error) {
	cfg := ex.eng.Config()
	p := cfg.PartitionsPerMachine
	assignments := make(map[pairKey][]int)

	if from < to {
		// Scale-out: every partition of the original machines sheds its
		// surplus, split evenly across the new machines. Crashed senders are
		// skipped — their frozen buckets stay put until recovery rebuilds
		// them — and crashed receivers are excluded, their share spread over
		// the live ones, so a scale-out around a dead machine still lands.
		receivers := to - from
		for m := 0; m < from; m++ {
			for k := 0; k < p; k++ {
				part := m*p + k
				if ex.eng.PartitionDown(part) {
					continue
				}
				owned := ex.eng.OwnedBuckets(part)
				target := targetCount(cfg.Buckets, to*p, part)
				shed := len(owned) - target
				if shed <= 0 {
					continue
				}
				chunk := owned[len(owned)-shed:]
				var dests []int
				for j := 0; j < receivers; j++ {
					if toPart := (from+j)*p + k; !ex.eng.PartitionDown(toPart) {
						dests = append(dests, toPart)
					}
				}
				if len(dests) == 0 {
					return nil, fmt.Errorf("squall: scale-out %d -> %d: every receiving machine is down: %w",
						from, to, store.ErrPartitionDown)
				}
				for j, toPart := range dests {
					lo := shed * j / len(dests)
					hi := shed * (j + 1) / len(dests)
					if lo == hi {
						continue
					}
					key := pairKey{part, toPart}
					assignments[key] = append(assignments[key], chunk[lo:hi]...)
				}
			}
		}
		return assignments, nil
	}

	// Scale-in: every partition of the drained machines sends everything,
	// split evenly across the live survivors. Draining a crashed machine is
	// refused outright — its buckets cannot be streamed anywhere until it
	// recovers.
	survivors := to
	for m := to; m < from; m++ {
		if ex.eng.MachineDown(m) {
			return nil, fmt.Errorf("squall: scale-in %d -> %d would drain down machine %d: %w",
				from, to, m, store.ErrPartitionDown)
		}
		for k := 0; k < p; k++ {
			part := m*p + k
			owned := ex.eng.OwnedBuckets(part)
			var dests []int
			for j := 0; j < survivors; j++ {
				if toPart := j*p + k; !ex.eng.PartitionDown(toPart) {
					dests = append(dests, toPart)
				}
			}
			if len(dests) == 0 {
				return nil, fmt.Errorf("squall: scale-in %d -> %d: every surviving machine is down: %w",
					from, to, store.ErrPartitionDown)
			}
			for j, toPart := range dests {
				lo := len(owned) * j / len(dests)
				hi := len(owned) * (j + 1) / len(dests)
				if lo == hi {
					continue
				}
				key := pairKey{part, toPart}
				assignments[key] = append(assignments[key], owned[lo:hi]...)
			}
		}
	}
	return assignments, nil
}

// targetCount is the balanced bucket count for a partition index among
// nParts partitions: buckets divide as evenly as possible, earlier
// partitions absorbing the remainder.
func targetCount(buckets, nParts, part int) int {
	base := buckets / nParts
	if part < buckets%nParts {
		return base + 1
	}
	return base
}

// stream moves one partition pair's buckets in throttled chunks, retrying
// each failed chunk with capped exponential backoff. The first chunk to
// exhaust its retries fails the stream; remaining chunks are skipped.
func (ex *Executor) stream(from, to int, buckets []int, chunkBuckets int, rateFactor float64, abort <-chan struct{}, record func(movedChunk)) error {
	spacing := time.Duration(float64(ex.cfg.Spacing) / rateFactor)
	for lo := 0; lo < len(buckets); lo += chunkBuckets {
		select {
		case <-abort:
			return ErrMoveTimeout
		default:
		}
		hi := min(lo+chunkBuckets, len(buckets))
		chunk := buckets[lo:hi]
		if err := ex.moveChunk(chunk, from, to, abort); err != nil {
			return err
		}
		record(movedChunk{from: from, to: to, buckets: chunk})
		if spacing > 0 && hi < len(buckets) {
			select {
			case <-abort:
				return ErrMoveTimeout
			case <-time.After(spacing):
			}
		}
	}
	return nil
}

// moveChunk sends one chunk with up to MaxChunkRetries retries. Backoff
// doubles per retry and is capped at MaxRetryBackoff.
func (ex *Executor) moveChunk(chunk []int, from, to int, abort <-chan struct{}) error {
	backoff := ex.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		_, err := ex.eng.MoveBuckets(chunk, from, to, ex.cfg.RowCost, ex.cfg.ChunkOverhead)
		if err == nil {
			ex.chunksMoved.Add(1)
			return nil
		}
		// A down partition is fatal immediately: machine crashes do not heal
		// on chunk-retry timescales, and skipping the pointless retries keeps
		// the abort point deterministic under the chaos suite.
		if errors.Is(err, store.ErrStopped) || errors.Is(err, store.ErrPartitionDown) || attempt >= ex.cfg.MaxChunkRetries {
			return fmt.Errorf("squall: moving %d buckets %d -> %d failed after %d attempt(s): %w",
				len(chunk), from, to, attempt+1, err)
		}
		ex.retries.Add(1)
		if backoff > 0 {
			select {
			case <-abort:
				return ErrMoveTimeout
			case <-time.After(backoff):
			}
			backoff *= 2
			if ex.cfg.MaxRetryBackoff > 0 && backoff > ex.cfg.MaxRetryBackoff {
				backoff = ex.cfg.MaxRetryBackoff
			}
		}
	}
}
