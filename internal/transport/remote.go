package transport

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/faults"
	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/wire"
)

// Remote is the multi-process topology: a coordinator-side view of a
// cluster whose partition groups run as separate engine processes. Machine
// m is hosted by node m % len(peers). The coordinator keeps authoritative
// mirrors of the plan, the active machine count and the down set — the
// exact inputs Squall's planning reads — and decomposes each MoveBuckets
// into node RPCs:
//
//	same node:   one move RPC (the node runs the in-process protocol)
//	cross node:  extract at the source (source flips ownership as the data
//	             leaves), install at the destination (destination flips
//	             after the data lands), then a flip broadcast to the source,
//	             which it confirms, and to the bystander nodes
//
// Between extract and the destination flip, transactions for the moving
// buckets are held by the source's front end or forwarded to it by the
// others; it relays them when the broadcast reaches it — never missing data,
// the same invariant the in-process install-before-flip ordering provides.
//
// Determinism: the chunk-level fault injector is consulted coordinator-side
// with the same MoveOp, in the same order relative to the ownership and
// down checks, as the engine consults it in single-process mode — so a
// fixed-seed chaos run takes identical drop/abort decisions in both modes
// and converges on the identical final plan.
type Remote struct {
	cfg   store.Config
	peers []*Peer

	planMu sync.Mutex
	plan   []int32

	active atomic.Int32

	downMu sync.Mutex
	down   map[int]bool

	fi atomic.Pointer[faultHolder]

	// net is the schedule the link plane draws from; heldMu guards the
	// reordered (late-duplicate) deliveries awaiting the pair's next chunk.
	net    atomic.Pointer[faults.Schedule]
	heldMu sync.Mutex
	held   map[partitionPair]heldInstall

	// cachedRows is the last successful TotalRows aggregation, returned on
	// an RPC failure so chunk sizing degrades instead of dividing by zero.
	cachedRows atomic.Int64

	flipErrors atomic.Int64
	rpcTimeout time.Duration
}

type faultHolder struct{ fi store.FaultInjector }

// partitionPair names a directed source -> destination partition pair.
type partitionPair struct{ from, to int }

// heldInstall is a duplicate chunk delivery held back by a link-reorder
// decision until the pair's next chunk has landed.
type heldInstall struct {
	toNode int
	req    wire.NodeMove
	chunk  []byte
}

// NewRemote builds a Remote topology over the given node peers. The cluster
// geometry and the initial plan are taken from the nodes themselves (every
// node derives the identical initial plan from the shared configuration),
// so the coordinator needs no geometry flags that could drift.
func NewRemote(ctx context.Context, peers []*Peer) (*Remote, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("transport: no node peers")
	}
	r := &Remote{
		peers:      peers,
		down:       make(map[int]bool),
		held:       make(map[partitionPair]heldInstall),
		rpcTimeout: 30 * time.Second,
	}
	var rows int
	for i, p := range peers {
		st, err := p.Status(ctx)
		if err != nil {
			return nil, fmt.Errorf("transport: node %d status: %w", i, err)
		}
		if st.Node != i || st.Nodes != len(peers) {
			return nil, fmt.Errorf("transport: peer %d identifies as node %d of %d (want %d of %d)",
				i, st.Node, st.Nodes, i, len(peers))
		}
		if i == 0 {
			r.cfg = store.Config{
				MaxMachines:          st.MaxMachines,
				PartitionsPerMachine: st.PartitionsPerMachine,
				Buckets:              st.Buckets,
				InitialMachines:      st.InitialMachines,
			}
			r.plan = append([]int32(nil), st.Plan...)
			r.active.Store(int32(st.Active))
		}
		for _, m := range st.DownMachines {
			r.down[m] = true
		}
		rows += st.TotalRows
	}
	r.cachedRows.Store(int64(rows))
	return r, nil
}

// NodeOf returns the node index hosting a machine.
func (r *Remote) NodeOf(machine int) int { return machine % len(r.peers) }

// Peers returns the topology's node clients.
func (r *Remote) Peers() []*Peer { return r.peers }

// SetFaultInjector attaches the chunk-level chaos plane; the coordinator
// consults it before any chunk leaves a node.
func (r *Remote) SetFaultInjector(fi store.FaultInjector) {
	r.fi.Store(&faultHolder{fi: fi})
}

// SetNetInjector attaches the schedule the link-level chaos plane draws
// from (faults.Schedule.OnChunk); nil detaches it.
func (r *Remote) SetNetInjector(s *faults.Schedule) {
	r.net.Store(s)
}

// FlipErrors counts ownership-flip broadcasts that failed; node plans heal
// on the buckets' next flip, but a nonzero count means routing was stale.
func (r *Remote) FlipErrors() int64 { return r.flipErrors.Load() }

func (r *Remote) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), r.rpcTimeout)
}

// Config implements Node.
func (r *Remote) Config() store.Config { return r.cfg }

// ActiveMachines implements Node.
func (r *Remote) ActiveMachines() int { return int(r.active.Load()) }

// SetActiveMachines implements Node: the mirror is updated first (planning
// reads it synchronously) and then broadcast to every node.
func (r *Remote) SetActiveMachines(n int) error {
	if n < 1 || n > r.cfg.MaxMachines {
		return fmt.Errorf("store: active machines %d outside [1, %d]", n, r.cfg.MaxMachines)
	}
	r.active.Store(int32(n))
	ctx, cancel := r.ctx()
	defer cancel()
	for i, p := range r.peers {
		if err := p.SetActive(ctx, n); err != nil {
			return fmt.Errorf("transport: set active on node %d: %w", i, err)
		}
	}
	return nil
}

// TotalRows implements Node by summing the nodes' hosted rows.
func (r *Remote) TotalRows() int {
	ctx, cancel := r.ctx()
	defer cancel()
	total := 0
	for _, p := range r.peers {
		st, err := p.Status(ctx)
		if err != nil {
			return int(r.cachedRows.Load())
		}
		total += st.TotalRows
	}
	r.cachedRows.Store(int64(total))
	return total
}

// Plan implements Topology from the coordinator's authoritative mirror.
func (r *Remote) Plan() []int32 {
	r.planMu.Lock()
	defer r.planMu.Unlock()
	return append([]int32(nil), r.plan...)
}

// OwnedBuckets implements Node from the plan mirror.
func (r *Remote) OwnedBuckets(part int) []int {
	r.planMu.Lock()
	defer r.planMu.Unlock()
	var out []int
	for b, p := range r.plan {
		if int(p) == part {
			out = append(out, b)
		}
	}
	return out
}

// OwnerOf implements Node from the plan mirror.
func (r *Remote) OwnerOf(bucket int) int {
	r.planMu.Lock()
	defer r.planMu.Unlock()
	return int(r.plan[bucket])
}

func (r *Remote) applyPlan(buckets []int, owner int) {
	r.planMu.Lock()
	defer r.planMu.Unlock()
	for _, b := range buckets {
		r.plan[b] = int32(owner)
	}
}

// MachineDown implements Node from the down mirror.
func (r *Remote) MachineDown(m int) bool {
	r.downMu.Lock()
	defer r.downMu.Unlock()
	return r.down[m]
}

// PartitionDown implements Node from the down mirror.
func (r *Remote) PartitionDown(part int) bool {
	return r.MachineDown(part / r.cfg.PartitionsPerMachine)
}

// DownMachines implements Topology.
func (r *Remote) DownMachines() []int {
	r.downMu.Lock()
	defer r.downMu.Unlock()
	out := make([]int, 0, len(r.down))
	for m := range r.down {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// MoveBuckets implements Node. It runs store.ValidateMove and then the fault
// injector, as Engine.moveBuckets does, so the chunk-level fault schedule
// sees the identical MoveOp sequence it would see in-process.
func (r *Remote) MoveBuckets(buckets []int, from, to int, perRow, overhead time.Duration) (int, error) {
	return r.moveBuckets(buckets, from, to, perRow, overhead, false)
}

// MoveBucketsRollback implements Node; fault injection (both planes) is
// bypassed and any held duplicate for the pair is discarded — a rollback
// supersedes the chunk the duplicate was a copy of.
func (r *Remote) MoveBucketsRollback(buckets []int, from, to int, perRow, overhead time.Duration) (int, error) {
	return r.moveBuckets(buckets, from, to, perRow, overhead, true)
}

func (r *Remote) moveBuckets(buckets []int, from, to int, perRow, overhead time.Duration, rollback bool) (int, error) {
	if from == to {
		return 0, nil
	}
	if err := store.ValidateMove(r.cfg.MaxMachines*r.cfg.PartitionsPerMachine, r.OwnerOf, r.PartitionDown, buckets, from, to, rollback); err != nil {
		return 0, err
	}
	op := store.MoveOp{From: from, To: to, Buckets: buckets, Rollback: rollback}
	if h := r.fi.Load(); h != nil && h.fi != nil {
		if err := h.fi.BeforeMove(op); err != nil {
			return 0, err
		}
	}

	fromNode := r.NodeOf(from / r.cfg.PartitionsPerMachine)
	toNode := r.NodeOf(to / r.cfg.PartitionsPerMachine)
	pair := partitionPair{from: from, to: to}
	if rollback {
		// A rollback supersedes any pending late duplicate in either
		// direction of the pair.
		r.dropHeld(pair)
		r.dropHeld(partitionPair{from: to, to: from})
	}

	var dec faults.LinkDecision
	if net := r.net.Load(); net != nil {
		var err error
		dec, err = net.OnChunk(fromNode, toNode, op)
		if err != nil {
			return 0, err
		}
	}
	if dec.Delay > 0 {
		time.Sleep(dec.Delay)
	}

	req := wire.NodeMove{
		Buckets:    buckets,
		From:       from,
		To:         to,
		PerRowNs:   perRow.Nanoseconds(),
		OverheadNs: overhead.Nanoseconds(),
		Rollback:   rollback,
	}
	ctx, cancel := r.ctx()
	defer cancel()

	var rows int
	if fromNode == toNode {
		n, err := r.peers[fromNode].Move(ctx, req)
		if err != nil {
			return 0, err
		}
		rows = n
	} else {
		chunk, n, err := r.peers[fromNode].Extract(ctx, req)
		if err != nil {
			return 0, err
		}
		if _, err := r.peers[toNode].Install(ctx, req, chunk); err != nil {
			// The chunk already left the source. Put it back (a rollback-
			// style install, exempt from injection) so a failed transfer
			// stays all-or-nothing; if even that fails the rows are lost
			// and the error says so loudly.
			undo := wire.NodeMove{Buckets: buckets, From: to, To: from, PerRowNs: req.PerRowNs, OverheadNs: req.OverheadNs, Rollback: true}
			if _, uerr := r.peers[fromNode].Install(ctx, undo, chunk); uerr != nil {
				return 0, fmt.Errorf("transport: install failed (%v) and undo install lost %d rows: %w", err, n, uerr)
			}
			return 0, err
		}
		rows = n
		r.deliverDup(pair, dec, toNode, req, chunk)
	}

	// The involved nodes flipped ownership during extract/install (or the
	// single move RPC); mirror it and tell the others. The source of a
	// cross-node move hears first: its plan is already right, but it holds
	// requests for the buckets until it is told the install has landed.
	r.applyPlan(buckets, to)
	for k := range r.peers {
		i := (fromNode + k) % len(r.peers)
		if i == toNode {
			continue
		}
		if err := r.peers[i].Flip(ctx, buckets, to); err != nil {
			// The move itself committed; a stale bystander plan only causes
			// transient not-owned forwards and heals on the next flip, and a
			// source left waiting relays after server.handoffWait.
			r.flipErrors.Add(1)
		}
	}
	return rows, nil
}

// deliverDup handles a link-dup/link-reorder decision after a successful
// cross-node install: an immediate duplicate re-sends the install now; a
// deferred duplicate is held until the pair's next chunk lands. Duplicate
// installs are idempotent at the store (they add no rows), which is exactly
// the property the chaos plane exists to exercise.
func (r *Remote) deliverDup(pair partitionPair, dec faults.LinkDecision, toNode int, req wire.NodeMove, chunk []byte) {
	// First deliver any duplicate held from the pair's previous chunk —
	// it was "reordered behind" this one.
	r.heldMu.Lock()
	prev, ok := r.held[pair]
	if ok {
		delete(r.held, pair)
	}
	r.heldMu.Unlock()
	if ok {
		r.installDup(prev)
	}
	if !dec.Dup {
		return
	}
	cur := heldInstall{toNode: toNode, req: req, chunk: chunk}
	if dec.DeferDup {
		r.heldMu.Lock()
		r.held[pair] = cur
		r.heldMu.Unlock()
		return
	}
	r.installDup(cur)
}

func (r *Remote) installDup(h heldInstall) {
	ctx, cancel := r.ctx()
	defer cancel()
	// Best-effort by design: a failed duplicate delivery is just the
	// network failing to mis-deliver.
	_, _ = r.peers[h.toNode].Install(ctx, h.req, h.chunk)
}

func (r *Remote) dropHeld(pair partitionPair) {
	r.heldMu.Lock()
	delete(r.held, pair)
	r.heldMu.Unlock()
}

// Sweep implements Topology with one status read per node: the nodes'
// counters summed and the largest of their queue sojourns. Nodes that fail
// to answer contribute nothing this round.
func (r *Remote) Sweep() (store.Counters, time.Duration) {
	ctx, cancel := r.ctx()
	defer cancel()
	var sum store.Counters
	var sojourn time.Duration
	for _, p := range r.peers {
		st, err := p.Status(ctx)
		if err != nil {
			continue
		}
		c := st.Counters
		sum.Submitted += c.Submitted
		sum.Completed += c.Completed
		sum.Errored += c.Errored
		sum.Forwarded += c.Forwarded
		sum.Rejected += c.Rejected
		sum.DeadlineExceeded += c.DeadlineExceeded
		sojourn = max(sojourn, time.Duration(st.MaxSojournNs))
	}
	return sum, sojourn
}

// Crash implements Topology: fence the machine on its hosting node, then
// mirror the down state so planning routes around it immediately.
func (r *Remote) Crash(machine int) error {
	if machine < 0 || machine >= r.cfg.MaxMachines {
		return fmt.Errorf("transport: machine %d out of range", machine)
	}
	ctx, cancel := r.ctx()
	defer cancel()
	if err := r.peers[r.NodeOf(machine)].Crash(ctx, machine); err != nil {
		return err
	}
	r.downMu.Lock()
	r.down[machine] = true
	r.downMu.Unlock()
	return nil
}

// Restore implements Topology: the hosting node rebuilds the machine from
// its local checkpoint + command log (logs live with the data), and the
// coordinator clears its down mirror.
func (r *Remote) Restore(machine int) (recovery.RestoreStats, error) {
	if machine < 0 || machine >= r.cfg.MaxMachines {
		return recovery.RestoreStats{}, fmt.Errorf("transport: machine %d out of range", machine)
	}
	ctx, cancel := r.ctx()
	defer cancel()
	res, err := r.peers[r.NodeOf(machine)].Restore(ctx, machine)
	if err != nil {
		return recovery.RestoreStats{}, err
	}
	r.downMu.Lock()
	delete(r.down, machine)
	r.downMu.Unlock()
	return recovery.RestoreStats{
		Machine:    res.Machine,
		Partitions: res.Partitions,
		Snapshots:  res.Snapshots,
		Replayed:   res.Replayed,
		Downtime:   time.Duration(res.DowntimeMs) * time.Millisecond,
	}, nil
}

// Close implements Topology. It releases coordinator state only; node
// processes keep serving.
func (r *Remote) Close() error {
	r.heldMu.Lock()
	r.held = make(map[partitionPair]heldInstall)
	r.heldMu.Unlock()
	return nil
}
