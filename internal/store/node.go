package store

import (
	"errors"
	"fmt"
	"time"
)

// This file is the engine's multi-process surface. In multi-process mode one
// engine instance per OS process hosts a subset of the cluster's machines
// (Config.HostedMachines); partition ids stay cluster-global, so the plan,
// the migration schedule and every fault decision are identical to
// single-process mode. Cross-node chunk movement decomposes MoveBuckets into
// ExtractBuckets at the source node and InstallBuckets at the destination
// node, with ApplyOwnership broadcasting the flip to the other nodes.

// ErrNotOwned reports that a request targeted a partition whose machine is
// not hosted on this engine instance. It is transient by nature — ownership
// may be mid-flip during a migration — so the wire layer maps it to a
// retryable status and node front ends forward the request to the hosting
// peer.
var ErrNotOwned = errors.New("store: partition not hosted on this node")

func notOwnedError(part int) error {
	return fmt.Errorf("%w: partition %d", ErrNotOwned, part)
}

// Hosted reports whether machine m's partitions execute on this engine
// instance. Single-process engines host every machine.
func (e *Engine) Hosted(m int) bool {
	if m < 0 || m >= len(e.hosted) {
		return false
	}
	return e.hosted[m]
}

// HostedMachines lists the machines hosted on this engine instance.
func (e *Engine) HostedMachines() []int {
	out := make([]int, 0, len(e.hosted))
	for m, h := range e.hosted {
		if h {
			out = append(out, m)
		}
	}
	return out
}

// ExtractBuckets is the source half of a cross-node MoveBuckets: it extracts
// the buckets from partition from, occupies the source executor for the full
// send cost, flips local ownership to partition to (whose machine need not
// be hosted here) and returns the extracted data for transport. The
// ownership/down-check/cost semantics mirror moveBuckets exactly, so a
// networked move interleaves with transactions the same way an in-process
// move does. Rollback extracts bypass the down check, matching
// MoveBucketsRollback.
func (e *Engine) ExtractBuckets(buckets []int, from, to int, perRow, overhead time.Duration, rollback bool) (BucketData, error) {
	if from == to {
		return BucketData{}, fmt.Errorf("store: extract from partition %d to itself", from)
	}
	if from >= 0 && from < len(e.parts) && !e.hosted[from/e.cfg.PartitionsPerMachine] {
		return BucketData{}, notOwnedError(from)
	}
	// The destination is not hosted here, so it is never down here.
	if err := ValidateMove(len(e.parts), e.ownerOf, e.PartitionDown, buckets, from, to, rollback); err != nil {
		return BucketData{}, err
	}
	req := &ctlRequest{
		kind:     ctlExtract,
		buckets:  buckets,
		dest:     e.parts[to],
		perRow:   perRow,
		overhead: overhead,
		rollback: rollback,
	}
	res := e.parts[from].call(req)
	return res.data, res.err
}

// InstallBuckets is the destination half of a cross-node MoveBuckets: it
// makes each of buckets — the full list the move covers, which can be wider
// than the buckets data carries rows of — hold exactly the rows data carries
// for it in partition to (occupying its executor for the receive cost, half
// the send cost — the same split as an in-process move) and then flips local
// ownership to the installed partition. Install before flip preserves the
// no-missing-data invariant: a transaction forwarded to this node after the
// flip queues behind the install in executor order. Returns the number of
// rows carried by the chunk.
func (e *Engine) InstallBuckets(buckets []int, data BucketData, to int, perRow, overhead time.Duration) (int, error) {
	if to < 0 || to >= len(e.parts) {
		return 0, fmt.Errorf("store: partition %d out of range", to)
	}
	for _, b := range buckets {
		if b < 0 || b >= e.cfg.Buckets {
			return 0, fmt.Errorf("store: bucket %d out of range", b)
		}
	}
	if !e.hosted[to/e.cfg.PartitionsPerMachine] {
		return 0, notOwnedError(to)
	}
	rows := data.Rows()
	res := e.parts[to].call(&ctlRequest{
		kind:    ctlInstall,
		buckets: buckets,
		data:    data,
		cost:    overhead/2 + time.Duration(rows)*perRow/2,
	})
	if res.err != nil {
		return 0, res.err
	}
	e.setOwner(buckets, to, false)
	return res.rows, nil
}

// ApplyOwnership reassigns buckets to a new owning partition in this
// engine's plan without moving any data — the ownership-flip broadcast a
// migration coordinator sends once a chunk is installed. Bystander nodes learn
// the new placement from it; the chunk's source node, whose plan named the
// destination from the moment of the extract, learns that the destination now
// agrees (HandoffPending), and nothing is logged for a plan that did not
// change.
func (e *Engine) ApplyOwnership(buckets []int, owner int) error {
	if owner < 0 || owner >= len(e.parts) {
		return fmt.Errorf("store: partition %d out of range", owner)
	}
	for _, b := range buckets {
		if b < 0 || b >= e.cfg.Buckets {
			return fmt.Errorf("store: bucket %d out of range", b)
		}
	}
	e.setOwner(buckets, owner, false)
	return nil
}

// AdoptPlan takes on a whole plan and active-machine count — what a cold start
// reads back from disk, or what a follower's primary sends in its sync —
// without moving data: each bucket whose owner differs flips to its new owner
// (ApplyOwnership, once per owner), and active is set when it is given and
// differs. A nil plan keeps the engine's.
func (e *Engine) AdoptPlan(plan []int32, active int) error {
	cur := e.Plan()
	if plan != nil && len(plan) != len(cur) {
		return fmt.Errorf("store: plan covers %d buckets, engine has %d", len(plan), len(cur))
	}
	byOwner := make(map[int][]int)
	for b := range plan {
		if cur[b] != plan[b] {
			byOwner[int(plan[b])] = append(byOwner[int(plan[b])], b)
		}
	}
	for owner, buckets := range byOwner {
		if err := e.ApplyOwnership(buckets, owner); err != nil {
			return err
		}
	}
	if active > 0 && active != e.ActiveMachines() {
		return e.SetActiveMachines(active)
	}
	return nil
}
