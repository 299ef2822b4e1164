package store

import (
	"errors"
	"fmt"
)

// ErrPartitionDown is returned for transactions and forward migrations that
// touch a crashed partition. The data is not lost — a crash freezes the
// partition until a recovery manager rebuilds it from checkpoint + command
// log — but nothing executes there while it is down.
var ErrPartitionDown = errors.New("store: partition down")

// ErrCommitFailed is returned for a transaction whose command-log record did
// not become durable. Either the record could not be appended, and the
// transaction was not run at all; or it ran, but the log's write or fsync
// failed, or under synchronous commit the follower never confirmed the
// record — then its effects are in memory and may or may not survive a crash,
// so the submitter must not be told it committed; like a timeout, the outcome
// is unknown and a retry is the submitter's call. The error wraps the
// logger's own and says which.
var ErrCommitFailed = errors.New("store: commit failed")

// CommandLogger receives one logical log record per executed transaction —
// H-Store-style command logging, where the log captures the *input* of each
// deterministic procedure rather than its effects.
//
// AppendCommand is called by partition executors right before the procedure
// runs, once the transaction is certain to (procedures that return an error
// are logged like any other: their partial effects are part of the state and
// replay reproduces them). It must fix the record's place in the log — per
// bucket, log order is execution order — without waiting for the log to become
// durable, because the executor goes straight on to run the procedure. The
// procedure gets the same args next: a logger that encodes them before it
// returns (the durable one) records the true input whatever the procedure
// does to it; one that keeps the value (the in-memory one) leans on the
// determinism contract, under which procedures do not mutate their input. It returns a commit ticket: 0 means the record is already as
// durable as the logger makes it and the executor replies as soon as the
// procedure returns; any other ticket goes to the partition's commit stage,
// which calls WaitDurable on it, off the executor and while the procedure
// runs, and replies once both are done. An error from AppendCommand means
// nothing was logged and the transaction is not run; an error from either
// call reaches the submitter wrapped in ErrCommitFailed.
//
// LogHead is called by the snapshot path on the executor goroutine, after the
// commit stage has drained, so the returned LSN is exact and durable for every
// bucket the executor owns.
type CommandLogger interface {
	AppendCommand(bucket int, id TxnID, key string, args any) (ticket uint64, err error)
	WaitDurable(ticket uint64) error
	LogHead(bucket int) uint64
}

// PlanLogger receives every bucket-plan mutation — ownership flips (local
// moves, networked migrations, broadcast flips) and active-machine resizes —
// so a durable log can reconstruct the plan a cold start must reinstall.
// LogPlan is called under the engine's plan mutex: calls are totally ordered
// and carry the complete new plan, so the *last* logged plan is the current
// one. A durable implementation may block (group commit); the cost lands on
// the migration path, not the transaction hot path.
type PlanLogger interface {
	LogPlan(plan []int32, active int)
}

// cmdLogHolder wraps the logger interface so it can live in an
// atomic.Pointer (and be cleared by storing a holder with a nil logger).
type cmdLogHolder struct{ l CommandLogger }

// planLogHolder mirrors cmdLogHolder for the plan logger.
type planLogHolder struct{ l PlanLogger }

// SetPlanLog attaches (or, with nil, detaches) a plan logger. Attach before
// any ownership changes the logger should capture.
func (e *Engine) SetPlanLog(l PlanLogger) {
	e.planLog.Store(&planLogHolder{l: l})
}

// SetCommandLog attaches (or, with nil, detaches) a command logger. Attach it
// before any data loads: replay reconstructs a bucket from its full command
// history, so commands executed while no logger was attached are invisible to
// recovery. Safe to call at any time.
func (e *Engine) SetCommandLog(l CommandLogger) {
	e.cmdLog.Store(&cmdLogHolder{l: l})
}

// BucketSnapshot is one bucket's fuzzy-checkpoint image: its tables at the
// moment the owning executor snapshotted it, and the command-log LSN the
// image covers. Table maps are fresh copies but row values are aliased — the
// engine's stored rows are immutable by convention (procedures copy before
// mutating), which is what makes O(rows) snapshot cloning safe.
type BucketSnapshot struct {
	// Bucket is the bucket id.
	Bucket int
	// Rows is the bucket's row count at snapshot time.
	Rows int
	// LSN is the bucket's command-log head at snapshot time: replaying
	// commands with larger LSNs on top of the image reproduces the current
	// state exactly.
	LSN uint64
	// Tables is the bucket's data: table -> key -> row.
	Tables map[string]map[string]any
}

// ReplayCommand is one command-log record handed back to a partition for
// replay during recovery.
type ReplayCommand struct {
	// Bucket is the bucket the command executed in.
	Bucket int
	// ID is the procedure's dense handle.
	ID TxnID
	// Key and Args are the procedure's original input.
	Key  string
	Args any
}

// Crash marks every partition of a machine as down. Queued transactions and
// transactions submitted while down fail with ErrPartitionDown; forward
// migrations refuse to touch the machine (rollback moves are exempt — the
// Squall source keeps its committed copy until the destination acknowledges,
// so undoing an aborted move cannot be blocked by the crash). The partition's
// memory image is abandoned, not cleared: restoration wipes it and rebuilds
// from checkpoint + command log, modeling a replacement machine.
func (e *Engine) Crash(machine int) error {
	if machine < 0 || machine >= e.cfg.MaxMachines {
		return fmt.Errorf("store: machine %d out of [0, %d)", machine, e.cfg.MaxMachines)
	}
	for _, part := range e.PartitionsOfMachine(machine) {
		req := &ctlRequest{kind: ctlCrash, done: make(chan moveResult, 1)}
		p := e.parts[part]
		select {
		case p.ctlQueue() <- request{ctl: req}:
		case <-p.stop:
			return ErrStopped
		}
		if res := <-req.done; res.err != nil {
			return res.err
		}
	}
	return nil
}

// PartitionDown reports whether a partition is crashed.
func (e *Engine) PartitionDown(part int) bool {
	if part < 0 || part >= len(e.parts) {
		return false
	}
	return e.parts[part].down.Load()
}

// MachineDown reports whether a machine is crashed (machines crash and
// recover whole, so any down partition means the machine is down).
func (e *Engine) MachineDown(m int) bool {
	for _, part := range e.PartitionsOfMachine(m) {
		if e.parts[part].down.Load() {
			return true
		}
	}
	return false
}

// DownMachines lists the crashed machines in ascending order.
func (e *Engine) DownMachines() []int {
	var out []int
	for m := 0; m < e.cfg.MaxMachines; m++ {
		if e.MachineDown(m) {
			out = append(out, m)
		}
	}
	return out
}

// SnapshotPartition captures a fuzzy checkpoint of one live partition: a
// BucketSnapshot per bucket currently materialized in its store, each stamped
// with the bucket's command-log head. The snapshot runs on the partition's
// executor — it is consistent by serial execution, not by locking — and costs
// O(tables+rows) map copying while the executor is busy, the checkpoint
// interference a real fuzzy checkpointer also pays.
func (e *Engine) SnapshotPartition(part int) ([]BucketSnapshot, error) {
	return e.snapshot(part, nil)
}

// SnapshotBuckets is SnapshotPartition narrowed to the given buckets: exactly
// one BucketSnapshot per bucket listed, empty for a bucket the partition holds
// no rows of — an image that says "nothing here as of this LSN" supersedes
// whatever older image and log the bucket left behind when it last lived here.
// It is how a node re-baselines a migrated-in chunk without re-imaging the
// rest of the destination partition.
func (e *Engine) SnapshotBuckets(part int, buckets []int) ([]BucketSnapshot, error) {
	for _, b := range buckets {
		if b < 0 || b >= e.cfg.Buckets {
			return nil, fmt.Errorf("store: snapshot of bucket %d out of range", b)
		}
	}
	if len(buckets) == 0 {
		return nil, nil
	}
	return e.snapshot(part, buckets)
}

// snapshot runs one snapshot request on a partition's executor; nil buckets
// means every bucket materialized there.
func (e *Engine) snapshot(part int, buckets []int) ([]BucketSnapshot, error) {
	if part < 0 || part >= len(e.parts) {
		return nil, fmt.Errorf("store: partition %d out of range", part)
	}
	req := &ctlRequest{kind: ctlSnapshot, buckets: buckets, done: make(chan moveResult, 1)}
	p := e.parts[part]
	select {
	case p.ctlQueue() <- request{ctl: req}:
	case <-p.stop:
		return nil, ErrStopped
	}
	res := <-req.done
	return res.snaps, res.err
}

// RestorePartition rebuilds a crashed partition: its store is wiped, the
// snapshots installed, and the command tail replayed in log order through the
// registered procedures (deterministic replay — same inputs, same serial
// order, same state). The caller must hand over ownership of the snapshot
// maps; replay mutates them. It returns the number of commands replayed and
// clears the partition's down flag on success.
func (e *Engine) RestorePartition(part int, snaps []BucketSnapshot, cmds []ReplayCommand) (int, error) {
	if part < 0 || part >= len(e.parts) {
		return 0, fmt.Errorf("store: partition %d out of range", part)
	}
	p := e.parts[part]
	if !p.down.Load() {
		return 0, fmt.Errorf("store: partition %d is not down", part)
	}
	req := &ctlRequest{kind: ctlRestore, snaps: snaps, cmds: cmds, done: make(chan moveResult, 1)}
	select {
	case p.ctlQueue() <- request{ctl: req}:
	case <-p.stop:
		return 0, ErrStopped
	}
	res := <-req.done
	return res.rows, res.err
}

// ReplayCommands applies logged commands to the live partitions that own
// their buckets — how a warm follower applies a batch of its primary's log.
// Each owning partition gets its share as one replay request on its data
// queue, so the partitions replay in parallel and, per bucket, in the order
// given (the queue is FIFO and a bucket has one owner); the call returns once
// all of them have finished. It runs the same replay RestorePartition does:
// nothing is logged, slept for or counted. A down partition skips its share,
// which is its restore's to replay: the commands must already be in the log
// that restore reads, and the caller must not let a restore overlap the call.
// The caller must also keep ownership still for the duration — on a follower
// only the caller itself changes it. On an error some partitions may have
// replayed their share.
func (e *Engine) ReplayCommands(cmds []ReplayCommand) error {
	if len(cmds) == 0 {
		return nil
	}
	byPart := make(map[int][]ReplayCommand)
	for _, c := range cmds {
		if c.Bucket < 0 || c.Bucket >= e.cfg.Buckets {
			return fmt.Errorf("store: replay command for bucket %d out of range", c.Bucket)
		}
		part := e.ownerOf(c.Bucket)
		if !e.hosted[part/e.cfg.PartitionsPerMachine] {
			return notOwnedError(part)
		}
		byPart[part] = append(byPart[part], c)
	}
	done := make(chan moveResult, len(byPart))
	sent := 0
	var err error
	for part, share := range byPart {
		p := e.parts[part]
		select {
		case p.ch <- request{ctl: &ctlRequest{kind: ctlReplay, cmds: share, done: done}}:
			sent++
		case <-p.stop:
			err = ErrStopped
		}
	}
	for ; sent > 0; sent-- {
		if res := <-done; res.err != nil && err == nil {
			err = res.err
		}
	}
	return err
}

// partitionDownError wraps ErrPartitionDown with the partition id.
func partitionDownError(part int) error {
	return fmt.Errorf("%w: partition %d", ErrPartitionDown, part)
}
