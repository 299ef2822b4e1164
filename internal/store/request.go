package store

import (
	"sync"
	"time"
)

// The partition queues carry a typed request union instead of `chan any`:
// sending a small struct by value avoids the per-request interface boxing
// allocation, and the hot transaction path reuses pooled txnRequest objects
// (including their reply channels) so a steady-state Execute performs no
// per-call allocation at all.
type request struct {
	// txn is set for transaction executions — the hot path.
	txn *txnRequest
	// ctl is set for control-plane work (bucket move-out / install).
	ctl *ctlRequest
}

// txnRequest is one transaction submission. Instances are pooled: the reply
// channel is allocated once per pooled object and reused across requests.
type txnRequest struct {
	id       TxnID
	key      string
	bucket   int32
	forwards int32
	args     any
	submit   time.Time
	reply    chan txnResult
}

type txnResult struct {
	value any
	err   error
}

var txnReqPool = sync.Pool{
	New: func() any {
		return &txnRequest{reply: make(chan txnResult, 1)}
	},
}

// acquireTxnReq returns a pooled request ready for reuse.
func acquireTxnReq() *txnRequest {
	return txnReqPool.Get().(*txnRequest)
}

// releaseTxnReq returns a request to the pool. The caller must have consumed
// the (exactly one) reply, so the channel is empty and no other goroutine
// still references the object.
func releaseTxnReq(r *txnRequest) {
	r.key = ""
	r.args = nil
	r.forwards = 0
	txnReqPool.Put(r)
}

// ctlKind discriminates control-plane requests.
type ctlKind uint8

const (
	ctlMoveOut ctlKind = iota
	ctlInstall
	// ctlCrash marks the partition down (machine crash).
	ctlCrash
	// ctlSnapshot captures a fuzzy-checkpoint image of the partition.
	ctlSnapshot
	// ctlRestore rebuilds a down partition from snapshots + command replay.
	ctlRestore
	// ctlExtract is the cross-node half of a moveOut: extract the buckets,
	// pay the full send cost, flip ownership to the (remote) destination
	// partition and return the data to the caller instead of enqueueing an
	// install — the data travels over the wire to another engine instance.
	ctlExtract
	// ctlReplay replays logged commands onto a live partition: a warm
	// follower applying its primary's shipped log. Unlike every other control
	// request it travels on the data queue, whose FIFO order is what keeps a
	// bucket's commands in log order.
	ctlReplay
)

// ctlRequest is a migration step processed by a partition executor. A
// moveOut asks the executor to extract the given buckets, hand them to the
// destination partition and flip ownership; an install carries the extracted
// BucketData into the destination executor. The executor is occupied for the
// simulated transfer cost on each side — the transaction-processing
// interference of migration.
type ctlRequest struct {
	kind ctlKind

	// moveOut fields. rollback marks the undo path of an aborted migration,
	// which down partitions must not refuse (the source still holds the
	// committed copy, so restoring it is always safe). A snapshot reads
	// buckets as its filter: nil means every materialized bucket.
	buckets  []int
	dest     *partition
	perRow   time.Duration
	overhead time.Duration
	rollback bool
	// flipped is closed by the source once the ownership flip is visible.
	flipped chan struct{}

	// install fields.
	data BucketData
	cost time.Duration

	// restore fields; a replay carries cmds alone.
	snaps []BucketSnapshot
	cmds  []ReplayCommand

	done chan moveResult
}

type moveResult struct {
	// rows is the row count of a move, or the replayed-command count of a
	// restore or replay.
	rows int
	// snaps carries a snapshot reply.
	snaps []BucketSnapshot
	// data carries an extract reply (cross-node move).
	data BucketData
	err  error
}
