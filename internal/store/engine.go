package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/hash"
	"pstore/internal/metrics"
)

// TxnID is the dense identifier of a registered transaction type. Handles
// are resolved once (Engine.Handle) and index a slice on the hot path — no
// per-execution map lookups.
type TxnID int32

// NoTxn is an invalid handle; executing it returns ErrUnknownTxn.
const NoTxn TxnID = -1

// proc is one registered transaction type. The procs slice is immutable
// after Start, so executors index it without synchronization.
type proc struct {
	name string
	Procedure
	svc time.Duration
}

// Counters are the engine's cumulative transaction counts.
type Counters struct {
	// Submitted counts transactions accepted by Execute/ExecuteID.
	Submitted int64
	// Completed counts transactions that finished without error.
	Completed int64
	// Errored counts transactions that returned an error.
	Errored int64
	// Forwarded counts ownership-chase hops: transactions that reached a
	// partition which no longer owned their bucket (mid-migration) and were
	// re-routed to the current owner.
	Forwarded int64
	// Rejected counts transactions refused at submission by admission
	// control (or by a canceled submit context) without ever entering a
	// partition queue. Rejected transactions are counted in Submitted but
	// not in Errored: they represent refused offered load, not failed work.
	Rejected int64
	// DeadlineExceeded counts transactions that expired in a partition
	// queue and were failed without executing (counted in Errored as well).
	DeadlineExceeded int64
	// CommitWaits counts replies that went through a partition's commit
	// stage; CommitWaitNs is how long they were held there in total, from the
	// moment the procedure returned to the reply — what durability (and the
	// follower's ack under synchronous commit) cost beyond the execution it
	// overlapped, about zero per reply when the log wins that race. Both stay
	// zero when the command log is in memory (or absent): the executor
	// replies itself.
	CommitWaits  int64
	CommitWaitNs int64
	// Holds counts the times an executor was held busy for an emulated cost
	// (a procedure's service time, a chunk's send or install cost);
	// HoldOverNs is how far past their deadlines those holds woke up, in
	// total — the capacity a machine loses to its own clock.
	Holds      int64
	HoldOverNs int64
}

// MoveOp describes one chunk-level bucket move about to execute, as offered
// to a FaultInjector. Rollback marks the undo path of an aborted migration:
// injectors must never fail rollback operations, or chaos testing could
// wedge recovery itself.
type MoveOp struct {
	// From and To are partition ids.
	From, To int
	// Buckets are the bucket ids the chunk carries.
	Buckets []int
	// Rollback is true when the move restores a previously moved chunk.
	Rollback bool
}

// FaultInjector intercepts chunk-level bucket moves for chaos testing.
// BeforeMove runs on the migration coordinator's goroutine before the chunk
// is handed to the partition executors: returning an error fails the move
// (the chunk never leaves the source), and the injector may sleep first to
// simulate a slow or stalled transfer.
type FaultInjector interface {
	BeforeMove(op MoveOp) error
}

// faultHolder wraps the injector interface so it can live in an
// atomic.Pointer (and be cleared by storing a holder with a nil injector).
type faultHolder struct{ fi FaultInjector }

// Engine is a multi-machine, shared-nothing, main-memory OLTP engine. Every
// machine hosts PartitionsPerMachine partitions; every partition is driven
// by one executor goroutine. The engine routes transactions to the
// partition owning their key's bucket and supports live bucket migration
// between partitions for elasticity.
type Engine struct {
	cfg     Config
	handles map[string]TxnID
	procs   []proc
	// svcOverride stages SetServiceTime calls until Start bakes them into
	// the procs slice.
	svcOverride map[string]time.Duration

	parts   []*partition
	plan    atomic.Pointer[[]int32]
	planMu  sync.Mutex // serializes copy-on-write updates of plan
	handoff atomic.Pointer[handoff]
	started atomic.Bool
	stopped atomic.Bool

	// hosted[m] reports whether machine m's partitions execute transactions
	// on this engine instance; hostedAll short-circuits the check in
	// single-process mode so the hot path pays one predictable branch.
	hosted    []bool
	hostedAll bool

	activeMachines atomic.Int32
	submitted      atomic.Int64
	completed      atomic.Int64
	errored        atomic.Int64
	forwarded      atomic.Int64

	// Overload counters sit beside the transaction counters above.
	rejected         atomic.Int64
	deadlineExceeded atomic.Int64

	// Written by the partitions' commit stages.
	commitWaits  atomic.Int64
	commitWaitNs atomic.Int64

	// Written by the executors, once per hold.
	holds      atomic.Int64
	holdOverNs atomic.Int64

	recorder atomic.Pointer[metrics.Recorder]
	faults   atomic.Pointer[faultHolder]
	cmdLog   atomic.Pointer[cmdLogHolder]
	planLog  atomic.Pointer[planLogHolder]
}

// NewEngine constructs an engine; register transactions, then call Start.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		handles:     make(map[string]TxnID),
		svcOverride: make(map[string]time.Duration),
	}
	e.hosted = make([]bool, cfg.MaxMachines)
	for m := range e.hosted {
		e.hosted[m] = len(cfg.HostedMachines) == 0
	}
	for _, m := range cfg.HostedMachines {
		e.hosted[m] = true
	}
	// An engine hosting every machine — none named, or all of them — takes
	// the single-process fast path.
	e.hostedAll = !slices.Contains(e.hosted, false)
	total := cfg.MaxMachines * cfg.PartitionsPerMachine
	e.parts = make([]*partition, total)
	for i := range e.parts {
		e.parts[i] = newPartition(i, e)
	}
	// Initial plan: buckets spread round-robin over the initial machines'
	// partitions, so data and load start uniform (Section 4.2).
	initial := cfg.InitialMachines * cfg.PartitionsPerMachine
	plan := make([]int32, cfg.Buckets)
	for b := range plan {
		plan[b] = int32(b % initial)
	}
	e.plan.Store(&plan)
	e.handoff.Store(&handoff{changed: make(chan struct{})})
	e.activeMachines.Store(int32(cfg.InitialMachines))
	return e, nil
}

// Register adds a named transaction, built by Proc, and assigns it the next
// dense TxnID. It must be called before Start.
func (e *Engine) Register(name string, p Procedure) error {
	if e.started.Load() {
		return errors.New("store: Register after Start")
	}
	if p.run == nil {
		return fmt.Errorf("store: transaction %q is not built by Proc", name)
	}
	if _, dup := e.handles[name]; dup {
		return fmt.Errorf("store: transaction %q already registered", name)
	}
	e.handles[name] = TxnID(len(e.procs))
	e.procs = append(e.procs, proc{name: name, Procedure: p, svc: e.cfg.ServiceTime})
	return nil
}

// checkArgs refuses args that procedure id was not registered to take. It
// runs at submission, before anything is logged: a command the log holds is
// one its replay hands the same typed input.
func (e *Engine) checkArgs(id TxnID, args any) error {
	if err := e.procs[id].check(args); err != nil {
		return fmt.Errorf("store: %s %w", e.procs[id].name, err)
	}
	return nil
}

// DecodeArgs decodes one transaction's encoded arguments — as a client request,
// a shipped record or a replayed one carries them — into the type its
// procedure was registered with; absent or null arguments are nil.
func (e *Engine) DecodeArgs(id TxnID, raw json.RawMessage) (any, error) {
	if id < 0 || int(id) >= len(e.procs) {
		return nil, ErrUnknownTxn
	}
	if len(raw) == 0 || string(raw) == "null" {
		return nil, nil
	}
	return e.procs[id].decode(raw)
}

// Handle resolves a registered transaction name to its dense id. Resolve
// once at setup; the hot path then indexes a slice instead of a map.
func (e *Engine) Handle(name string) (TxnID, bool) {
	id, ok := e.handles[name]
	return id, ok
}

// TxnNames lists every registered transaction name in dense-id order (so
// TxnNames()[id] is the name of handle id). It is the catalog a network
// front end serves to remote clients for name resolution.
func (e *Engine) TxnNames() []string {
	out := make([]string, len(e.procs))
	for i, p := range e.procs {
		out[i] = p.name
	}
	return out
}

// PartitionOfKey returns the partition currently owning a key's bucket —
// the queue a submission for that key would join. The wire front end uses
// it to size retry hints from the destination's estimated queueing delay.
func (e *Engine) PartitionOfKey(key string) int {
	return e.ownerOf(e.bucketOf(key))
}

// SetServiceTime overrides the simulated execution time for one transaction
// type. It must be called before Start.
func (e *Engine) SetServiceTime(name string, d time.Duration) error {
	if e.started.Load() {
		return errors.New("store: SetServiceTime after Start")
	}
	e.svcOverride[name] = d
	return nil
}

// SetRecorder attaches a latency recorder; every completed transaction and
// every change of the active machine count is filed into it, or into none
// with nil. Safe to call at any time.
func (e *Engine) SetRecorder(r *metrics.Recorder) { e.recorder.Store(r) }

// SetFaultInjector attaches (or, with nil, detaches) a migration fault
// injector. Every forward MoveBuckets chunk is offered to it before
// executing; rollback moves bypass injection. Safe to call at any time.
func (e *Engine) SetFaultInjector(fi FaultInjector) {
	e.faults.Store(&faultHolder{fi: fi})
}

// Start bakes service-time overrides into the procedure table and launches
// all partition executors.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	for name, d := range e.svcOverride {
		if id, ok := e.handles[name]; ok {
			e.procs[id].svc = d
		}
	}
	for _, p := range e.parts {
		go p.run()
	}
}

// Stop shuts down all executors. Pending and later requests receive
// ErrStopped, on a never-started engine too.
func (e *Engine) Stop() {
	if !e.stopped.CompareAndSwap(false, true) {
		return
	}
	for _, p := range e.parts {
		close(p.stop)
	}
	if !e.started.Load() {
		// No executor will drain the queues: close them here.
		for _, p := range e.parts {
			p.drain()
		}
		return
	}
	for _, p := range e.parts {
		<-p.done
	}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// bucketOf maps a partitioning key onto its virtual bucket.
func (e *Engine) bucketOf(key string) int {
	return hash.Partition(key, e.cfg.Buckets)
}

// ownerOf returns the partition currently owning a bucket.
func (e *Engine) ownerOf(bucket int) int {
	return int((*e.plan.Load())[bucket])
}

// handoff is what a node front end reads beside the plan to route a request.
// Every plan update replaces it, after the plan, so a reader that takes the
// handoff first never pairs it with an older plan.
type handoff struct {
	// pending holds the buckets this engine extracted for a partition hosted on
	// another node (ExtractBuckets) and has not seen confirmed (ApplyOwnership):
	// the chunk is on its way, and until it is installed the destination's plan
	// still names this node.
	pending map[int]struct{}
	// changed is closed when this handoff is replaced.
	changed chan struct{}
}

// setOwner atomically reassigns buckets to a new owner partition. extracted
// says the buckets' data has just left this engine for dest: when dest is
// hosted elsewhere they are pending until a later update names them again.
func (e *Engine) setOwner(buckets []int, dest int, extracted bool) {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	old := *e.plan.Load()
	next := make([]int32, len(old))
	copy(next, old)
	for _, b := range buckets {
		next[b] = int32(dest)
	}
	e.plan.Store(&next)

	prev := e.handoff.Load()
	away := extracted && !e.hostedAll && !e.hosted[dest/e.cfg.PartitionsPerMachine]
	pending := make(map[int]struct{}, len(prev.pending)+len(buckets))
	maps.Copy(pending, prev.pending)
	for _, b := range buckets {
		if away {
			pending[b] = struct{}{}
		} else {
			delete(pending, b)
		}
	}
	e.handoff.Store(&handoff{pending: pending, changed: make(chan struct{})})
	close(prev.changed)

	if h := e.planLog.Load(); h != nil && h.l != nil && !slices.Equal(old, next) {
		h.l.LogPlan(next, int(e.activeMachines.Load()))
	}
}

// HandoffPending returns nil unless key's bucket was extracted here for another
// node and that move is still unconfirmed; then it returns a channel closed by
// the next plan update, after which the question is worth asking again. A
// request for such a bucket is better held than routed: the destination's plan
// sends it straight back until the chunk is installed there.
func (e *Engine) HandoffPending(key string) <-chan struct{} {
	h := e.handoff.Load()
	if len(h.pending) == 0 {
		return nil
	}
	if _, ok := h.pending[e.bucketOf(key)]; !ok {
		return nil
	}
	return h.changed
}

// maxForwards bounds ownership-chase hops for one request; ownership
// settles after a migration, so a handful of hops always suffices.
const maxForwards = 64

// forward re-submits a transaction to the current owner of its bucket. It
// runs on an executor goroutine, so a put onto a full lane happens
// asynchronously to avoid executor-to-executor deadlock.
func (e *Engine) forward(r *txnRequest) {
	e.forwarded.Add(1)
	r.forwards++
	if r.forwards > maxForwards {
		r.reply <- txnResult{err: fmt.Errorf("store: transaction %q forwarded too many times", e.procs[r.id].name)}
		return
	}
	dest := e.parts[e.ownerOf(int(r.bucket))]
	if !e.hostedAll && !e.hosted[dest.id/e.cfg.PartitionsPerMachine] {
		// Ownership migrated off this node mid-flight; the caller (the node's
		// HTTP front end) re-routes to the new owner's node.
		r.reply <- txnResult{err: notOwnedError(dest.id)}
		return
	}
	if !dest.q.offer(request{txn: r}) {
		go func() {
			if err := dest.q.put(request{txn: r}, false, nil); err != nil {
				r.reply <- txnResult{err: err}
			}
		}()
	}
}

// Execute routes a transaction to the partition owning key and blocks until
// it completes, returning the procedure's result. Safe for concurrent use.
// It resolves the name per call; hot loops should resolve a Handle once and
// call ExecuteID.
func (e *Engine) Execute(name, key string, args any) (any, error) {
	id, ok := e.handles[name]
	if !ok {
		id = NoTxn
	}
	return e.ExecuteID(id, key, args)
}

// ExecuteID routes a pre-resolved transaction to the partition owning key
// and blocks until it completes. The steady-state path performs no
// allocations: requests and their reply channels are pooled, and the
// procedure table is indexed, not looked up. On a saturated queue the send
// blocks until space frees; use ExecuteIDContext for a bounded wait.
func (e *Engine) ExecuteID(id TxnID, key string, args any) (any, error) {
	return e.executeID(nil, nil, id, key, args)
}

// ExecuteIDContext is ExecuteID with a bounded submission wait: if ctx is
// done before the transaction is accepted into a partition queue, the call
// returns an error wrapping both ErrOverload and ctx.Err() without the
// transaction ever being enqueued (it counts as rejected offered load, like
// an admission-control refusal). Once accepted, the transaction runs to
// completion regardless of ctx — the engine's own deadline enforcement, not
// the submitter's context, bounds queued work.
func (e *Engine) ExecuteIDContext(ctx context.Context, id TxnID, key string, args any) (any, error) {
	return e.executeID(ctx.Done(), ctx.Err, id, key, args)
}

func (e *Engine) executeID(done <-chan struct{}, ctxErr func() error, id TxnID, key string, args any) (any, error) {
	if e.stopped.Load() {
		return nil, ErrStopped
	}
	if !e.started.Load() {
		return nil, errors.New("store: engine not started")
	}
	if id < 0 || int(id) >= len(e.procs) {
		e.submitted.Add(1)
		e.errored.Add(1)
		return nil, ErrUnknownTxn
	}
	bucket := e.bucketOf(key)
	dest := e.parts[e.ownerOf(bucket)]
	if !e.hostedAll && !e.hosted[dest.id/e.cfg.PartitionsPerMachine] {
		// Not counted as submitted: the owning node will count it when the
		// front end forwards the request there, so cluster-wide counters sum
		// each transaction exactly once.
		return nil, notOwnedError(dest.id)
	}
	if err := e.checkArgs(id, args); err != nil {
		e.submitted.Add(1)
		e.errored.Add(1)
		return nil, err
	}
	if err := e.admit(dest); err != nil {
		e.submitted.Add(1)
		return nil, err
	}
	// A context that is already done must be refused deterministically:
	// the put below enqueues whenever the lane has room, and the wire front
	// end must not enqueue work for a client that already gave up on it.
	if done != nil {
		select {
		case <-done:
			e.submitted.Add(1)
			e.rejected.Add(1)
			return nil, fmt.Errorf("store: submission already expired for partition %d: %w: %w", dest.id, ErrOverload, ctxErr())
		default:
		}
	}
	req := acquireTxnReq()
	req.id = id
	req.key = key
	req.bucket = int32(bucket)
	req.args = args
	req.submit = time.Now()
	e.submitted.Add(1)
	// A nil done channel never fires, so the ExecuteID path pays nothing
	// for the context plumbing.
	if err := dest.q.put(request{txn: req}, false, done); err != nil {
		releaseTxnReq(req)
		if errors.Is(err, ErrStopped) {
			return nil, err
		}
		e.rejected.Add(1)
		return nil, fmt.Errorf("store: submit canceled on saturated partition %d: %w: %w", dest.id, ErrOverload, ctxErr())
	}
	res := <-req.reply
	submit := req.submit
	releaseTxnReq(req)
	now := time.Now()
	if res.err != nil {
		e.errored.Add(1)
	} else {
		e.completed.Add(1)
	}
	if r := e.recorder.Load(); r != nil {
		r.Record(now, now.Sub(submit))
	}
	return res.value, res.err
}

// Command is one transaction of a batch: a resolved procedure, its key and
// its argument.
type Command struct {
	ID   TxnID
	Key  string
	Args any
}

// ExecuteBatch runs cmds as a bulk load wants them run: each hosted partition
// gets its share, in cmds order, as one data-lane request, and its executor
// takes every command down the path a single submission takes — executed,
// logged, counted and answered one by one, stamped when reached so its own
// batch never expires it (a batch passes no admission control and no
// recorder). A command of a partition hosted elsewhere is skipped, uncounted.
// It returns once every command is answered, a logged one once durable, with
// the first failure in cmds order; one unregistered procedure, or one command
// whose args its procedure does not take, runs nothing.
func (e *Engine) ExecuteBatch(cmds []Command) error {
	if e.stopped.Load() {
		return ErrStopped
	}
	if !e.started.Load() {
		return errors.New("store: engine not started")
	}
	shares := make([][]*txnRequest, len(e.parts))
	reqs := make([]*txnRequest, 0, len(cmds))
	for _, c := range cmds {
		if c.ID < 0 || int(c.ID) >= len(e.procs) {
			return ErrUnknownTxn
		}
		if err := e.checkArgs(c.ID, c.Args); err != nil {
			return err
		}
		bucket := e.bucketOf(c.Key)
		if part := e.ownerOf(bucket); e.hostedAll || e.hosted[part/e.cfg.PartitionsPerMachine] {
			r := acquireTxnReq()
			r.id, r.key, r.bucket, r.args = c.ID, c.Key, int32(bucket), c.Args
			shares[part] = append(shares[part], r)
			reqs = append(reqs, r)
		}
	}
	e.submitted.Add(int64(len(reqs)))
	for part, share := range shares {
		if len(share) == 0 {
			continue
		}
		if req := (request{ctl: &ctlRequest{kind: ctlExecute, txns: share}}); e.parts[part].q.put(req, false, nil) != nil {
			failStopped(req) // a put without done fails only on a stopped engine
		}
	}
	var first error
	for _, r := range reqs {
		if res := <-r.reply; res.err == nil {
			e.completed.Add(1)
		} else if e.errored.Add(1); first == nil {
			first = fmt.Errorf("store: %s %s: %w", e.procs[r.id].name, r.key, res.err)
		}
		releaseTxnReq(r)
	}
	return first
}

// admit is admission control: a submission whose destination's estimated
// queueing delay (the executor-maintained sojourn EWMA) already exceeds the
// deadline is refused immediately instead of joining a queue it cannot clear
// in time. The refusal requires a non-empty queue: once the backlog drains,
// requests are admitted again even while the EWMA — which only updates when
// requests execute — still remembers the congestion, so admission cannot
// livelock the partition into rejecting forever.
func (e *Engine) admit(dest *partition) error {
	d := e.cfg.Deadline
	if d == 0 {
		return nil
	}
	if time.Duration(dest.sojournEWMA.Load()) <= d || dest.q.dataLen() == 0 {
		return nil
	}
	e.rejected.Add(1)
	return fmt.Errorf("%w: partition %d estimated queueing delay %v exceeds deadline %v",
		ErrOverload, dest.id, time.Duration(dest.sojournEWMA.Load()), d)
}

// MoveBuckets live-migrates buckets between two partitions and returns the
// number of rows moved. The source executor is occupied for
// overhead + rows*perRow and the destination for half that — the
// transaction-processing interference of migration. It blocks until the
// destination has installed the data. An attached FaultInjector is consulted
// first; an injected error fails the move before any data leaves the source,
// so a failed chunk is all-or-nothing.
func (e *Engine) MoveBuckets(buckets []int, from, to int, perRow, overhead time.Duration) (int, error) {
	return e.moveBuckets(buckets, from, to, perRow, overhead, false)
}

// MoveBucketsRollback is MoveBuckets for the undo path of an aborted
// migration: fault injection is bypassed, so recovery cannot itself be
// failed by the chaos plane.
func (e *Engine) MoveBucketsRollback(buckets []int, from, to int, perRow, overhead time.Duration) (int, error) {
	return e.moveBuckets(buckets, from, to, perRow, overhead, true)
}

func (e *Engine) moveBuckets(buckets []int, from, to int, perRow, overhead time.Duration, rollback bool) (int, error) {
	if from == to {
		return 0, nil
	}
	if err := ValidateMove(len(e.parts), e.ownerOf, e.PartitionDown, buckets, from, to, rollback); err != nil {
		return 0, err
	}
	if !e.hostedAll {
		// A direct move needs both endpoints on this node; cross-node chunks
		// go through ExtractBuckets/InstallBuckets instead.
		if !e.hosted[from/e.cfg.PartitionsPerMachine] {
			return 0, notOwnedError(from)
		}
		if !e.hosted[to/e.cfg.PartitionsPerMachine] {
			return 0, notOwnedError(to)
		}
	}
	if h := e.faults.Load(); h != nil && h.fi != nil {
		if err := h.fi.BeforeMove(MoveOp{From: from, To: to, Buckets: buckets, Rollback: rollback}); err != nil {
			return 0, err
		}
	}
	req := &ctlRequest{
		kind:     ctlMoveOut,
		buckets:  buckets,
		dest:     e.parts[to],
		perRow:   perRow,
		overhead: overhead,
		rollback: rollback,
		flipped:  make(chan struct{}),
	}
	// Control requests ride the priority lane so a saturated data backlog
	// cannot starve the migration that would relieve it.
	res := e.parts[from].call(req)
	if res.err == nil {
		// The destination reports the install, and can do so before the
		// source has flipped ownership; a caller that plans its next move
		// from the plan must not see the old owner.
		<-req.flipped
	}
	return res.rows, res.err
}

// ValidateMove checks what every move of buckets between two distinct
// partitions requires, in the order and with the errors callers rely on:
// both partitions below nParts, every bucket owned by from, and neither
// endpoint down. The engine and the coordinator of a multi-node cluster both
// call it, each with its own view of ownership and of crashed partitions.
func ValidateMove(nParts int, ownerOf func(bucket int) int, down func(part int) bool, buckets []int, from, to int, rollback bool) error {
	if from < 0 || from >= nParts || to < 0 || to >= nParts {
		return fmt.Errorf("store: partition out of range (%d -> %d)", from, to)
	}
	for _, b := range buckets {
		if own := ownerOf(b); own != from {
			return fmt.Errorf("store: bucket %d owned by partition %d, not %d", b, own, from)
		}
	}
	if rollback {
		// Forward moves refuse crashed endpoints: a down source has a stale
		// image and a down destination cannot acknowledge. Rollback moves are
		// exempt so an aborted migration can always be undone (the executors
		// stay alive while down; only transaction execution is fenced).
		return nil
	}
	if down(from) {
		return partitionDownError(from)
	}
	if down(to) {
		return partitionDownError(to)
	}
	return nil
}

// OwnerOf returns the partition currently owning a bucket.
func (e *Engine) OwnerOf(bucket int) int { return e.ownerOf(bucket) }

// Plan returns a snapshot of the bucket plan: the owning partition of every
// bucket, indexed by bucket id. It is the canonical fingerprint of the
// cluster's data placement, used by the chaos suite to assert byte-identical
// outcomes across runs and exact restoration after an aborted migration.
func (e *Engine) Plan() []int32 {
	plan := *e.plan.Load()
	out := make([]int32, len(plan))
	copy(out, plan)
	return out
}

// OwnedBuckets lists the buckets currently owned by a partition.
func (e *Engine) OwnedBuckets(part int) []int {
	plan := *e.plan.Load()
	var out []int
	for b, p := range plan {
		if int(p) == part {
			out = append(out, b)
		}
	}
	return out
}

// MachineOfPartition returns the machine hosting a partition.
func (e *Engine) MachineOfPartition(part int) int {
	return part / e.cfg.PartitionsPerMachine
}

// PartitionsOfMachine returns the partition ids hosted on machine m.
func (e *Engine) PartitionsOfMachine(m int) []int {
	out := make([]int, e.cfg.PartitionsPerMachine)
	for i := range out {
		out[i] = m*e.cfg.PartitionsPerMachine + i
	}
	return out
}

// SetActiveMachines records the active cluster size (used by controllers
// and the recorder timeline; executors always run, idle when unused).
func (e *Engine) SetActiveMachines(n int) error {
	if n < 1 || n > e.cfg.MaxMachines {
		return fmt.Errorf("store: active machines %d out of [1, %d]", n, e.cfg.MaxMachines)
	}
	e.activeMachines.Store(int32(n))
	if h := e.planLog.Load(); h != nil && h.l != nil {
		// The plan mutex orders this record against ownership flips.
		e.planMu.Lock()
		h.l.LogPlan(*e.plan.Load(), n)
		e.planMu.Unlock()
	}
	if r := e.recorder.Load(); r != nil {
		r.RecordMachines(time.Now(), n)
	}
	return nil
}

// ActiveMachines returns the current active cluster size.
func (e *Engine) ActiveMachines() int { return int(e.activeMachines.Load()) }

// Counters returns the engine's cumulative transaction counts.
func (e *Engine) Counters() Counters {
	return Counters{
		Submitted:        e.submitted.Load(),
		Completed:        e.completed.Load(),
		Errored:          e.errored.Load(),
		Forwarded:        e.forwarded.Load(),
		Rejected:         e.rejected.Load(),
		DeadlineExceeded: e.deadlineExceeded.Load(),
		CommitWaits:      e.commitWaits.Load(),
		CommitWaitNs:     e.commitWaitNs.Load(),
		Holds:            e.holds.Load(),
		HoldOverNs:       e.holdOverNs.Load(),
	}
}

// QueueSojourn returns one partition's current estimated queueing delay: the
// executor-maintained EWMA of request sojourn time.
func (e *Engine) QueueSojourn(part int) time.Duration {
	if part < 0 || part >= len(e.parts) {
		return 0
	}
	return time.Duration(e.parts[part].sojournEWMA.Load())
}

// MaxQueueSojourn returns the largest estimated queueing delay across all
// partitions — the cluster's worst-case backlog signal, used by the
// decision loop to size overload reports to controllers.
func (e *Engine) MaxQueueSojourn() time.Duration {
	var max int64
	for _, p := range e.parts {
		if v := p.sojournEWMA.Load(); v > max {
			max = v
		}
	}
	return time.Duration(max)
}

// TotalRows returns the number of rows across all partitions. It is an
// estimate while transactions are in flight.
func (e *Engine) TotalRows() int {
	// Row counts are maintained by executor goroutines; snapshotting them
	// via a fence request would be heavyweight, so sum the per-partition
	// counters (races only smear in-flight increments).
	total := 0
	for _, p := range e.parts {
		total += int(atomic.LoadInt64(&p.rowsAtomic))
	}
	return total
}
