package store

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// partition is one serially executed data partition. Its bucketStore is
// touched only by its executor goroutine.
type partition struct {
	id  int
	eng *Engine
	// q holds transaction submissions and forwards on its data lane and
	// control-plane requests (migration move-out/install, crash fencing,
	// checkpoints, restores) on its control lane, which the executor always
	// serves first: under a saturated data backlog the scale-out escape hatch
	// is never starved by the very overload it exists to relieve.
	q     queue
	store *bucketStore
	// tx is the reusable execution context handed to procedures; the
	// executor is serial, so one per partition suffices and the hot path
	// allocates nothing.
	tx Tx
	// rowsAtomic tracks the partition's row count; it is written by the
	// executor goroutine and read by Engine.TotalRows.
	rowsAtomic int64
	// down marks the partition crashed: the executor stays alive but fails
	// every transaction with ErrPartitionDown and refuses forward migrations
	// until a restore rebuilds the store. Written by the executor (ctlCrash /
	// ctlRestore), read by routing and planning code on other goroutines.
	down atomic.Bool
	// sojournEWMA is the partition's exponentially weighted moving average
	// of request sojourn time (enqueue to execution start) in nanoseconds.
	// Written only by the executor, read by admission control on submitter
	// goroutines — it is the estimate of the queueing delay a new request
	// would face here.
	sojournEWMA atomic.Int64
	// commitCh is the commit stage: logged transactions whose reply is still
	// owed, in log (= execution) order. The executor hands each one over
	// before it runs the procedure and sends the outcome after, on resultCh,
	// in the same order; it is the only sender on both and commitLoop the
	// only receiver. undrained (executor-only) is set by every hand-over and
	// cleared by a drain, so a partition that never uses the stage never
	// pays a drain's round trip; drained carries the barrier's answer.
	commitCh  chan pendingCommit
	resultCh  chan commitResult
	undrained bool
	drained   chan struct{}
	stop      chan struct{}
	done      chan struct{}
	// timer is what hold sleeps on; executor-only.
	timer holdTimer
}

// pendingCommit is one logged transaction parked in the commit stage: its
// reply is withheld until the logger reports the ticket durable and the
// executor has sent its outcome. A nil r is the drain barrier — it carries
// nothing, has no outcome, and is answered on p.drained.
type pendingCommit struct {
	r      *txnRequest
	logger CommandLogger
	ticket uint64
}

// commitResult is the outcome of one staged transaction and when the
// procedure returned it.
type commitResult struct {
	res txnResult
	at  time.Time
}

// commitDepth bounds the replies one partition may hold for durability. It
// only has to cover the transactions a partition can execute during one
// fsync (and one follower round trip under synchronous commit); past it the
// executor blocks on the stage, which is the backpressure a stalled disk
// should exert. resultCh holds one more than that — every staged transaction
// plus the one whose durability the stage is waiting out — so handing over an
// outcome never blocks the executor, however long an fsync is held.
const commitDepth = 256

func newPartition(id int, eng *Engine) *partition {
	return &partition{
		id:       id,
		eng:      eng,
		q:        queue{limit: eng.cfg.QueueCapacity, wake: make(chan struct{}, 1)},
		store:    newBucketStore(),
		commitCh: make(chan pendingCommit, commitDepth),
		resultCh: make(chan commitResult, commitDepth+1),
		drained:  make(chan struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// run is the executor loop. It serves the queue until the engine stops.
// Control requests have strict priority over data requests: any control
// request enqueued before a data request is handled before it. Combined
// with moveOut's install-before-ownership-flip ordering, this preserves the
// invariant that a forwarded transaction can never observe missing data.
func (p *partition) run() {
	// The commit stage outlives the executor by exactly its backlog: once no
	// more transactions can execute, it delivers the replies it still holds
	// and only then marks the partition done.
	go p.commitLoop()
	defer close(p.commitCh)
	defer p.timer.close()
	for !p.eng.stopped.Load() {
		req, ok := p.q.take()
		if !ok {
			select {
			case <-p.stop:
			case <-p.q.wake:
			}
			continue
		}
		p.handle(req)
	}
	p.drain()
}

// drain closes the queue and fails what it still holds, so no submitter
// hangs: a put either lands before the close, and is answered here, or fails
// with ErrStopped.
func (p *partition) drain() {
	p.q.close()
	for req, ok := p.q.take(); ok; req, ok = p.q.take() {
		failStopped(req)
	}
}

// call puts a control request on the control lane and waits for its answer.
func (p *partition) call(r *ctlRequest) moveResult {
	r.done = make(chan moveResult, 1)
	if err := p.q.put(request{ctl: r}, true, nil); err != nil {
		return moveResult{err: err}
	}
	return <-r.done
}

func failStopped(req request) {
	switch {
	case req.txn != nil:
		req.txn.reply <- txnResult{err: ErrStopped}
	case req.ctl != nil && req.ctl.kind == ctlExecute:
		for _, r := range req.ctl.txns {
			r.reply <- txnResult{err: ErrStopped}
		}
	case req.ctl != nil:
		req.ctl.done <- moveResult{err: ErrStopped}
	}
}

func (p *partition) handle(req request) {
	switch {
	case req.txn != nil:
		p.execute(req.txn)
	case req.ctl != nil && req.ctl.kind == ctlExecute:
		for _, r := range req.ctl.txns {
			r.submit = time.Now()
			p.execute(r)
		}
	case req.ctl != nil:
		// Every control request sees a partition with nothing awaiting
		// durability or execution: an image is never ahead of its log, a crash
		// leaves every executed command where the restore will read it, and a
		// chunk never leaves with effects its source has not logged.
		p.drainCommits()
		switch req.ctl.kind {
		case ctlMoveOut, ctlExtract:
			p.moveOut(req.ctl)
		case ctlInstall:
			p.install(req.ctl)
		case ctlCrash:
			p.crash(req.ctl)
		case ctlSnapshot:
			p.snapshot(req.ctl)
		case ctlRestore:
			p.restore(req.ctl)
		case ctlReplay:
			p.replayLive(req.ctl)
		}
	}
}

// execute runs one transaction, forwarding it if this partition no longer
// owns the bucket (Squall-style redirection of in-flight requests).
func (p *partition) execute(r *txnRequest) {
	if owner := p.eng.ownerOf(int(r.bucket)); owner != p.id {
		p.eng.forward(r)
		return
	}
	if p.down.Load() {
		// A crashed machine executes nothing: no service time, no command
		// logging — the request just fails.
		r.reply <- txnResult{err: partitionDownError(p.id)}
		return
	}
	if err := p.overloadCheck(r); err != nil {
		r.reply <- txnResult{err: err}
		return
	}
	// Log the command, then run it. The record is the procedure's input, and
	// procedures are deterministic, so nothing the log, the disk or a follower
	// does with it depends on the outcome: fixing its place in the log here
	// (per bucket, log order = LSN order = execution order) and handing it to
	// the commit stage lets the fsync, the shipping and the follower's apply
	// proceed while the procedure runs. Only the reply waits for both. A
	// command that cannot be logged is not run, so a failed append leaves
	// nothing behind; one that is logged runs even if it then errors — its
	// partial effects are state, and deterministic replay reproduces them. A
	// crash between the two replays a command whose submitter was never
	// answered, exactly as a crash just before the reply always could.
	//
	// Waiting for the log belongs to the commit stage, so the next
	// transaction does not queue behind this one's fsync. It may read what
	// this one wrote, but its own record — and so its reply — is behind this
	// one's in the same log, and no submitter ever sees an effect that is not
	// durable.
	staged := false
	if h := p.eng.cmdLog.Load(); h != nil && h.l != nil {
		ticket, lerr := h.l.AppendCommand(int(r.bucket), r.id, r.key, r.args)
		if lerr != nil {
			r.reply <- txnResult{err: fmt.Errorf("%w: partition %d could not log the transaction and did not run it: %w", ErrCommitFailed, p.id, lerr)}
			return
		}
		if ticket != 0 {
			p.undrained = true
			p.commitCh <- pendingCommit{r: r, logger: h.l, ticket: ticket}
			staged = true
		}
	}
	pr := &p.eng.procs[r.id]
	p.hold(pr.svc)
	p.tx = Tx{p: p, bucket: int(r.bucket), Key: r.key, Args: r.args}
	v, err := runTxn(pr.fn, &p.tx)
	p.tx = Tx{} // release references to the request's key/args
	res := txnResult{value: v, err: err}
	if staged {
		p.resultCh <- commitResult{res: res, at: time.Now()}
		return
	}
	r.reply <- res
}

// hold keeps the executor busy for d: the emulated cost of running a
// procedure or of packing, sending or installing a chunk. The partition is
// occupied until the deadline and no longer, which takes a clock finer than
// the runtime's own (see holdTimer). A wake-up past the deadline is counted,
// never credited to the next hold.
func (p *partition) hold(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	p.timer.sleepUntil(deadline)
	p.eng.holds.Add(1)
	p.eng.holdOverNs.Add(int64(time.Since(deadline)))
}

// commitLoop is the partition's commit stage: it takes logged transactions in
// log order, waits until each one's record is durable — leading the log's
// group commit when nobody else is, which is what starts the fsync while the
// procedure is still running — then takes the procedure's outcome and
// delivers the reply, or the commit error in its place. The commit wait it
// counts is how long a finished transaction's reply was held: about zero
// when the log won the race against the procedure. One long-lived goroutine
// per partition; it ends, and with it the partition, when the executor closes
// the stage.
func (p *partition) commitLoop() {
	defer close(p.done)
	for c := range p.commitCh {
		if c.r == nil {
			p.drained <- struct{}{}
			continue
		}
		err := c.logger.WaitDurable(c.ticket)
		out := <-p.resultCh
		if err != nil {
			out.res = txnResult{err: commitError(p.id, err)}
		}
		p.eng.commitWaits.Add(1)
		p.eng.commitWaitNs.Add(int64(time.Since(out.at)))
		c.r.reply <- out.res
	}
}

// drainCommits returns once every transaction this partition has logged has
// run and had its reply delivered — durable, or failed for good. It runs on
// the executor, so nothing new enters the stage meanwhile.
func (p *partition) drainCommits() {
	if !p.undrained {
		return
	}
	p.commitCh <- pendingCommit{}
	<-p.drained
	p.undrained = false
}

// commitError wraps a logger failure for the submitter of the transaction it
// left undecided.
func commitError(part int, err error) error {
	return fmt.Errorf("%w: partition %d executed the transaction but its log record is not durable: %w", ErrCommitFailed, part, err)
}

// overloadCheck files a dequeued transaction's queue sojourn into the EWMA
// and, when the engine has a deadline, fails a request that outlived it in
// the queue. A non-nil return means the request must be failed without
// executing.
func (p *partition) overloadCheck(r *txnRequest) error {
	sojourn := time.Since(r.submit)
	// Single-writer EWMA with alpha 1/8: smooth enough to ride out one slow
	// transaction, fresh enough to track a building queue within a few
	// requests.
	old := p.sojournEWMA.Load()
	p.sojournEWMA.Store(old + (int64(sojourn)-old)/8)
	if d := p.eng.cfg.Deadline; d > 0 && sojourn > d {
		p.eng.deadlineExceeded.Add(1)
		return fmt.Errorf("%w: queued %v past deadline %v on partition %d", ErrDeadlineExceeded, sojourn, d, p.id)
	}
	return nil
}

// runTxn executes a stored procedure, converting a panic into an error so a
// buggy procedure cannot take its partition executor down with it. The
// goroutine stack at the panic site is preserved in the error, since the
// executor's own stack says nothing about which procedure misbehaved.
func runTxn(fn TxnFunc, tx *Tx) (v any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			v = nil
			err = fmt.Errorf("store: transaction panicked: %v\n%s", rec, debug.Stack())
		}
	}()
	return fn(tx)
}

// moveOut extracts buckets, enqueues their installation at the destination,
// then flips ownership. Requests already queued behind this one see the new
// ownership and are forwarded, landing behind the install in the
// destination's FIFO queue — so no transaction can observe missing data.
//
// An extract (ctlExtract) is the cross-node half: the data goes back to the
// caller instead — the chunk travels over the wire to another engine — and
// the flip leaves the buckets pending (HandoffPending). Transactions routed
// here then fail with ErrNotOwned, and the node's front end holds them until
// the install is confirmed and re-routes them to the destination's node.
func (p *partition) moveOut(r *ctlRequest) {
	if p.down.Load() && !r.rollback {
		// A crashed partition cannot stream its data anywhere — the image
		// is stale by definition. Rollback moves are exempt: they restore
		// chunks the *source* still holds (Squall's source-retains-copy
		// protocol), so an aborted migration can always be undone.
		r.done <- moveResult{err: partitionDownError(p.id)}
		return
	}
	data := p.store.extract(r.buckets)
	rows := data.Rows()
	// The executor is busy packing and sending in proportion to the data
	// actually extracted.
	p.hold(r.overhead + time.Duration(rows)*r.perRow)
	atomic.AddInt64(&p.rowsAtomic, -int64(rows))
	if r.kind == ctlExtract {
		p.eng.setOwner(r.buckets, r.dest.id, true)
		r.done <- moveResult{rows: rows, data: data}
		return
	}
	install := &ctlRequest{
		kind:    ctlInstall,
		buckets: r.buckets,
		data:    data,
		cost:    r.overhead/2 + time.Duration(rows)*r.perRow/2,
		done:    r.done,
	}
	// Enqueue the install before flipping ownership: once the flip is
	// visible, forwarded transactions always queue behind the install. The
	// install rides the destination's priority lane, so it cannot starve
	// behind a saturated data backlog — and since forwarded transactions
	// enter the data lane, which the executor serves only while the control
	// lane is empty, they still execute after the install.
	if err := r.dest.q.put(request{ctl: install}, true, nil); err != nil {
		r.done <- moveResult{err: err}
		return
	}
	p.eng.setOwner(r.buckets, r.dest.id, false)
	close(r.flipped)
}

// install makes each migrated bucket hold exactly the rows the chunk carried
// for it — none, for a bucket it carried none of — as replaying the chunk's
// log record does. It proceeds even while the partition is down: the data was
// already extracted from its source, so refusing would lose it — and a later
// restore wipes and rebuilds the whole store anyway.
func (p *partition) install(r *ctlRequest) {
	p.hold(r.cost)
	for _, b := range r.buckets {
		p.setBucket(b, r.data.Tables(b))
	}
	r.done <- moveResult{rows: r.data.Rows()}
}

// setBucket replaces one bucket's contents with a migrated chunk's rows, live
// or replayed. The bucket stays materialized even when empty, so the next
// checkpoint images it.
func (p *partition) setBucket(b int, tables map[string]map[string]any) {
	atomic.AddInt64(&p.rowsAtomic, int64(p.store.set(b, tables)))
}

// crash marks the partition down. Requests already queued behind this one
// (and any submitted later) fail with ErrPartitionDown when the executor
// reaches them — the crash point is a position in the serial request order,
// which is what makes crash schedules deterministic.
func (p *partition) crash(r *ctlRequest) {
	p.down.Store(true)
	r.done <- moveResult{}
}

// snapshot captures a fuzzy-checkpoint image of every bucket materialized in
// this partition's store. It runs on the executor, so each bucket's image and
// its command-log head are captured atomically with respect to execution.
// Table maps are copied; row values are aliased (stored rows are immutable by
// convention).
func (p *partition) snapshot(r *ctlRequest) {
	if p.down.Load() {
		r.done <- moveResult{err: partitionDownError(p.id)}
		return
	}
	var logger CommandLogger
	if h := p.eng.cmdLog.Load(); h != nil {
		logger = h.l
	}
	snaps := make([]BucketSnapshot, 0, len(p.store.data))
	for b, tables := range p.store.data {
		copied := make(map[string]map[string]any, len(tables))
		for tn, t := range tables {
			ct := make(map[string]any, len(t))
			for k, v := range t {
				ct[k] = v
			}
			copied[tn] = ct
		}
		snap := BucketSnapshot{Bucket: b, Rows: p.store.rows[b], Tables: copied}
		if logger != nil {
			snap.LSN = logger.LogHead(b)
		}
		snaps = append(snaps, snap)
	}
	r.done <- moveResult{snaps: snaps}
}

// restore rebuilds a crashed partition: fresh store, snapshot images
// installed, command tail replayed in log order.
func (p *partition) restore(r *ctlRequest) {
	if !p.down.Load() {
		r.done <- moveResult{err: fmt.Errorf("store: restore of live partition %d", p.id)}
		return
	}
	p.store = newBucketStore()
	for _, s := range r.snaps {
		p.store.data[s.Bucket] = s.Tables
		p.store.rows[s.Bucket] = s.Rows
	}
	replayed := p.replay(r.cmds)
	atomic.StoreInt64(&p.rowsAtomic, int64(p.store.totalRows()))
	p.down.Store(false)
	r.done <- moveResult{rows: replayed}
}

// replayLive replays shipped commands onto this live partition's store — a
// warm follower's apply. A down partition has no memory to bring up to date
// and owes the commands nothing: its restore replays the same records from
// the log they were appended to before they got here.
func (p *partition) replayLive(r *ctlRequest) {
	if p.down.Load() {
		r.done <- moveResult{}
		return
	}
	r.done <- moveResult{rows: p.replay(r.cmds)}
}

// replay runs logged commands through the registered procedures in the order
// given and returns how many ran. It is the one replay path — a restore's
// command tail and a follower's shipped batch both go through it — and it
// reproduces state, not load: no service-time simulation, no command logging (the records already are the log). Procedure errors are
// ignored; they replay deterministically just as they originally occurred. A
// migrated chunk's share of a bucket sets the bucket to its rows.
func (p *partition) replay(cmds []ReplayCommand) int {
	replayed := 0
	for _, c := range cmds {
		if c.Chunk != nil {
			p.setBucket(c.Bucket, c.Chunk)
			replayed++
			continue
		}
		if c.ID < 0 || int(c.ID) >= len(p.eng.procs) {
			continue
		}
		p.tx = Tx{p: p, bucket: c.Bucket, Key: c.Key, Args: c.Args}
		runTxn(p.eng.procs[c.ID].fn, &p.tx)
		p.tx = Tx{}
		replayed++
	}
	return replayed
}
