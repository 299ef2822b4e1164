package server

import (
	"context"
	"fmt"
	"log"
	"sync"

	"pstore/internal/store"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// The apply half of a follower's ship path. handleReplShip accepts a batch —
// appends it to the node's own log and acknowledges it — and queues it here;
// one applier goroutine takes the queue in order and brings memory up to the
// log through the partitions' replay path. Accept holds s.repl.mu; the applier
// never does, which is what lets a promotion, a checkpoint or a wipe hold that
// lock and wait the backlog out.

// ApplyQueueDepth bounds the batches a follower holds accepted and unapplied
// (plus the one being applied). A ship handler that finds the queue full waits
// for room before it takes its batch, so a follower that cannot keep up stops
// acknowledging instead of growing: its apply lag and the memory behind it are
// at most this many batches of wal.MaxShipRecords records.
const ApplyQueueDepth = 8

// shipApply is one accepted batch on its way to memory: its fresh commands in
// stream order, decoded, the plan records that were shipped among them, and
// the cursor after it.
type shipApply struct {
	next  wire.ShipCursor
	cmds  []store.ReplayCommand
	plans []shippedPlan
}

// shippedPlan is a plan record at its place in a batch: it applies after
// cmds[:at] and before cmds[at:]. The record is a copy, so a queued batch does
// not keep the request's other records — raw args and all — alive.
type shippedPlan struct {
	at  int
	rec wal.Record
}

// ApplyStats are a follower's cumulative accept/apply counters.
type ApplyStats struct {
	// Batches counts accepted ship batches, Records the fresh command records
	// they carried and Fsyncs the syncs the node's log performed while those
	// records were being made durable (the log's own counter, read on either
	// side of each accept).
	Batches, Records, Fsyncs int64
	// MaxBacklog is the most command records ever accepted and not yet applied.
	MaxBacklog int
}

// applier owns the accepted-batch queue and everything apply advances.
type applier struct {
	s *Server

	mu   sync.Mutex
	cond *sync.Cond
	// queue holds accepted batches in stream order; reserved counts handlers
	// that were promised a place and have not taken or returned it yet; busy is
	// set while the goroutine applies the batch it took off the front.
	queue    []*shipApply
	reserved int
	busy     bool
	// running and stopped are the goroutine's lifetime: started by the first
	// push, told to exit by stop, which waits on exited.
	running, stopped bool
	exited           chan struct{}
	// err latches the first apply failure. Memory then trails the log for good:
	// nothing further is applied, the ship handler answers Resync, and only a
	// rebuild — a full resync, or a restart that cold-starts from the log —
	// brings the node back.
	err error
	// applied is the cursor after the last applied batch, planSeq the last
	// applied plan record (at sync time: the skip threshold for shipped ones)
	// and backlog the command records accepted and not yet applied.
	applied wire.ShipCursor
	planSeq uint64
	backlog int
	stats   ApplyStats
}

func newApplier(s *Server) *applier {
	a := &applier{s: s, exited: make(chan struct{})}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// reserve waits for room in the queue and promises the caller a place in it;
// the caller either pushes a batch or releases the place. It is called before
// s.repl.mu is taken, so a handler held back here blocks nobody, and it gives
// up when ctx ends — a sender that hung up leaves no waiter behind. A latched
// applier has room for everyone: what it is handed it drops.
func (a *applier) reserve(ctx context.Context) error {
	// The wake-up takes a.mu, so it cannot fall between the check and the Wait.
	stop := context.AfterFunc(ctx, func() {
		a.mu.Lock()
		a.cond.Broadcast()
		a.mu.Unlock()
	})
	defer stop()
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.err == nil && !a.stopped && ctx.Err() == nil && len(a.queue)+a.reserved >= ApplyQueueDepth {
		a.cond.Wait()
	}
	if a.stopped {
		return store.ErrStopped
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	a.reserved++
	return nil
}

func (a *applier) release() {
	a.mu.Lock()
	a.reserved--
	a.cond.Broadcast()
	a.mu.Unlock()
}

// push queues an accepted batch on a reserved place; fsyncs is how many syncs
// the log took to make it durable. The caller holds s.repl.mu, so batches
// enter in the order they were accepted. A latched applier keeps nothing: the
// log has the batch, and memory is past bringing up to it.
func (a *applier) push(b *shipApply, fsyncs int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reserved--
	a.stats.Batches++
	a.stats.Records += int64(len(b.cmds))
	a.stats.Fsyncs += fsyncs
	if a.err != nil {
		a.cond.Broadcast()
		return
	}
	a.queue = append(a.queue, b)
	a.backlog += len(b.cmds)
	a.stats.MaxBacklog = max(a.stats.MaxBacklog, a.backlog)
	if !a.running && !a.stopped {
		a.running = true
		go a.run()
	}
	a.cond.Broadcast()
}

// run is the applier goroutine: one per server, alive from the first accepted
// batch until stop.
func (a *applier) run() {
	defer close(a.exited)
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		for !a.stopped && (len(a.queue) == 0 || a.err != nil) {
			a.cond.Wait()
		}
		if a.stopped {
			return
		}
		b := a.queue[0]
		a.queue[0] = nil
		a.queue = a.queue[1:]
		a.busy = true
		planSeq := a.planSeq
		a.mu.Unlock()
		planSeq, err := a.s.applyBatch(b, planSeq)
		a.mu.Lock()
		a.busy = false
		if err != nil {
			a.err = fmt.Errorf("server: applying shipped records up to segment %d record %d: %w; memory trails the log until the node is resynced or restarted", b.next.Seg, b.next.Rec, err)
			a.queue = nil
			log.Print(a.err)
		} else {
			a.applied, a.planSeq = b.next, planSeq
			a.backlog -= len(b.cmds)
		}
		a.cond.Broadcast()
	}
}

// applyPosition is how far apply has got, and err why it will get no further.
type applyPosition struct {
	applied wire.ShipCursor
	planSeq uint64
	backlog int
	err     error
}

func (a *applier) position() applyPosition {
	a.mu.Lock()
	defer a.mu.Unlock()
	return applyPosition{applied: a.applied, planSeq: a.planSeq, backlog: a.backlog, err: a.err}
}

// drain returns once every accepted batch has been applied, or with the
// reason the rest never will be. The caller holds s.repl.mu, so nothing is
// accepted meanwhile.
func (a *applier) drain() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.err == nil && !a.stopped && (len(a.queue) > 0 || a.busy) {
		a.cond.Wait()
	}
	if a.err == nil && a.stopped && len(a.queue) > 0 {
		return store.ErrStopped
	}
	return a.err
}

// reset discards the backlog — the batch being applied finishes first, so no
// apply runs into whatever the caller does next — clears a latched failure and
// repositions apply at cur. It precedes every wipe or rebuild of the state the
// backlog was meant for. The caller holds s.repl.mu.
func (a *applier) reset(cur wire.ShipCursor, planSeq uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queue = nil
	for a.busy {
		a.cond.Wait()
	}
	a.err = nil
	a.backlog = 0
	a.applied, a.planSeq = cur, planSeq
	a.cond.Broadcast()
}

// stop ends the goroutine after the batch it is applying (waiting for that as
// long as ctx allows), leaving the rest of the backlog to the log: a cold
// start replays it.
func (a *applier) stop(ctx context.Context) {
	a.mu.Lock()
	a.stopped = true
	running := a.running
	a.cond.Broadcast()
	a.mu.Unlock()
	if running {
		select {
		case <-a.exited:
		case <-ctx.Done():
		}
	}
}

// applyBatch brings memory up to one accepted batch: its commands go to their
// owning partitions as replay requests — in parallel across partitions, in log
// order per bucket — and every plan record among them is a barrier: all that
// precedes it is applied, then the plan change runs, then the rest. planSeq is
// the last applied plan record; shipped ones at or below it (the sync
// snapshot's overlap) are skipped. It returns the new value.
func (s *Server) applyBatch(b *shipApply, planSeq uint64) (uint64, error) {
	eng := s.eng
	from := 0
	for i := range b.plans {
		p := &b.plans[i]
		if p.rec.PlanSeq <= planSeq {
			continue
		}
		if err := eng.ReplayCommands(b.cmds[from:p.at]); err != nil {
			return planSeq, err
		}
		from = p.at
		if err := s.applyShippedPlan(&p.rec); err != nil {
			return planSeq, err
		}
		planSeq = p.rec.PlanSeq
	}
	return planSeq, eng.ReplayCommands(b.cmds[from:])
}

// quiesceApply is what a handler that crashes or rebuilds partitions calls
// first. On a replica it holds the ship handler off and waits the apply
// backlog out — memory, plan and log head then agree and stay so until the
// returned release runs — or fails with the reason the backlog never will
// drain. A primary or fenced node has no backlog and holds nothing.
func (s *Server) quiesceApply() (release func(), err error) {
	st := &s.repl
	st.mu.Lock()
	if c := s.answer(reqQuiesce); c.do != drain {
		st.mu.Unlock()
		return func() {}, c.err
	}
	if err := s.apply.drain(); err != nil {
		st.mu.Unlock()
		return nil, err
	}
	return st.mu.Unlock, nil
}

// ApplyStats returns the node's cumulative follower-side accept/apply
// counters (zero on a node that never was a replica).
func (s *Server) ApplyStats() ApplyStats {
	s.apply.mu.Lock()
	defer s.apply.mu.Unlock()
	return s.apply.stats
}
