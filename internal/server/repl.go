package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"

	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// Replication plane. A node is either a primary (the default) or a warm
// replica (started with NodeConfig.ReplicaOf). The primary serves
// /v1/repl/sync — a fuzzy snapshot of everything it hosts plus the WAL
// cursor shipping starts from — and the serving process ships batches of
// WAL records to the follower's /v1/repl/ship. The follower accepts a batch
// by appending its commands to its own WAL under the primary's LSNs and
// acknowledges once they are fsynced; it applies the batch behind the ack
// (apply.go), through the replay path a restore uses: commands replay on the
// partitions that own their buckets, plan records re-run the migration
// locally. Procedures are deterministic, so the durable input is the outcome:
// the replica's data directory cold-starts to everything it acknowledged,
// and a promotion applies what is left of the backlog before the role flips.
//
// Fencing: every ship batch carries the primary's epoch. Promotion raises
// the follower's epoch above it, so a zombie primary that comes back and
// keeps shipping gets CodeFenced and stands down. The epoch is persisted in
// the WAL manifest, so fencing survives restarts of either side.

// replState is the server's replication role and, for a replica, its
// received position in the primary's WAL. The mutex also serializes ship
// acceptance — batches arrive from one shipper, but retries and a zombie
// primary can overlap requests — and whoever holds it can wait for the apply
// backlog to drain knowing nothing new is accepted meanwhile. How far apply
// has got is the applier's state (s.apply), under its own lock.
type replState struct {
	mu      sync.Mutex
	replica bool
	// ready flips once the sync snapshot is installed; until then ship
	// batches are refused retryably.
	ready bool
	// received is the cursor after the last accepted batch: the primary's
	// records before it are durable in this node's log. baseline is the
	// sync-time skip threshold (see handleReplShip).
	received wire.ShipCursor
	baseline uint64
	// fenced marks a zombie: a node still configured as primary that has
	// seen proof of a higher epoch. It refuses transactions and waits to be
	// demoted into the new primary's followership.
	fenced bool
	// rejoin, on a promoted primary, is the standing offer to its deposed
	// predecessor (see wire.ReplRejoin).
	rejoin *wire.ReplRejoin
	// drained is the apply backlog the promotion that made this node a primary
	// had to execute first, in command records.
	drained int
	// acceptedRecs counts shipped command records accepted since the last
	// follower-side checkpoint; checkpointing guards against overlapping
	// async checkpoints.
	acceptedRecs  int
	checkpointing bool
}

func (s *Server) isReplica() bool {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return s.repl.replica
}

// IsReplica reports whether the node is currently in replica role, so an
// embedding process can tell a demote order aimed at a primary from one that
// already took effect.
func (s *Server) IsReplica() bool { return s.isReplica() }

func (s *Server) replRole() string {
	if s.isReplica() {
		return "replica"
	}
	return "primary"
}

// MarkFenced records that this node, still configured as a primary, has seen
// proof of a higher epoch — its shipper was refused with CodeFenced. A
// fenced node refuses client transactions (a zombie serving writes is a
// split brain) until it is demoted into the new primary's followership.
func (s *Server) MarkFenced() {
	s.repl.mu.Lock()
	if !s.repl.replica {
		s.repl.fenced = true
	}
	s.repl.mu.Unlock()
}

func (s *Server) isFenced() bool {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return s.repl.fenced
}

// handleReplSync seeds a follower: one ReplSyncMeta frame, then one
// BucketFrame per hosted bucket. The ship cursor is taken before the
// snapshots, so every record a snapshot may already include arrives again
// with LSN <= the bucket's image LSN and is deduplicated follower-side;
// PlanSeq is read before the plan for the same reason (a racing plan change
// is re-shipped rather than lost). The cursor's segment is pinned against
// compaction before the snapshot starts so shipping can begin from it.
func (s *Server) handleReplSync(w http.ResponseWriter, r *http.Request) {
	var req wire.ReplSync
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	if s.isReplica() {
		writeNodeError(w, fmt.Errorf("%w: a replica cannot seed a follower", wire.ErrFenced))
		return
	}
	rm, err := s.nodeRecovery()
	if err != nil {
		writeNodeError(w, err)
		return
	}
	if !rm.Durable() {
		writeNodeError(w, errors.New("server: replication requires a durable store (-data-dir)"))
		return
	}
	eng := s.cfg.Engine
	if req.Resume != nil {
		// A warm rejoin: the follower's state already matches ours up to the
		// resume cursor (a truncated zombie, or a follower reconnecting after
		// our restart). Validate the cursor is still retained, pin it, and
		// ship from there — no snapshot stream.
		cur := *req.Resume
		if _, _, _, err := rm.ReadShip(cur, 1); err != nil {
			writeNodeError(w, err)
			return
		}
		rm.PinShip(cur.Seg)
		meta := wire.ReplSyncMeta{
			Epoch:    rm.Epoch(),
			Baseline: rm.BaselineSeq(),
			Cursor:   *req.Resume,
			PlanSeq:  rm.PlanSeq(),
			Active:   eng.ActiveMachines(),
		}
		var buf bytes.Buffer
		if err := wire.EncodeFrame(&buf, meta); err != nil {
			writeNodeError(w, err)
			return
		}
		w.Header().Set("Content-Type", wire.ContentTypeChunk)
		_, _ = w.Write(buf.Bytes())
		if cb := s.cfg.Node.OnReplicaSync; cb != nil && req.FollowerURL != "" {
			go cb(req.FollowerURL, meta.Cursor)
		}
		return
	}
	planSeq := rm.PlanSeq()
	plan := eng.Plan()
	active := eng.ActiveMachines()
	cursor, err := rm.ShipEnd()
	if err != nil {
		writeNodeError(w, err)
		return
	}
	rm.PinShip(cursor.Seg)
	var frames []wire.BucketFrame
	for _, m := range eng.HostedMachines() {
		if eng.MachineDown(m) {
			writeNodeError(w, fmt.Errorf("%w: machine %d is down; cannot seed a follower", store.ErrPartitionDown, m))
			return
		}
		for _, part := range eng.PartitionsOfMachine(m) {
			snaps, err := eng.SnapshotPartition(part)
			if err != nil {
				writeNodeError(w, err)
				return
			}
			for _, sn := range snaps {
				f, err := wire.FrameFromSnapshot(sn)
				if err != nil {
					writeNodeError(w, err)
					return
				}
				frames = append(frames, f)
			}
		}
	}
	meta := wire.ReplSyncMeta{
		Epoch:    rm.Epoch(),
		Baseline: rm.BaselineSeq(),
		Cursor:   cursor,
		PlanSeq:  planSeq,
		Plan:     plan,
		Active:   active,
		Buckets:  len(frames),
	}
	var buf bytes.Buffer
	if err := wire.EncodeFrame(&buf, meta); err != nil {
		writeNodeError(w, err)
		return
	}
	for i := range frames {
		if err := wire.EncodeFrame(&buf, frames[i]); err != nil {
			writeNodeError(w, err)
			return
		}
	}
	w.Header().Set("Content-Type", wire.ContentTypeChunk)
	_, _ = w.Write(buf.Bytes())
	if cb := s.cfg.Node.OnReplicaSync; cb != nil && req.FollowerURL != "" {
		go cb(req.FollowerURL, meta.Cursor)
	}
}

// InstallReplicaState applies a primary's sync stream to this node: discard
// whatever ship backlog an earlier sync left, fence local execution, adopt the
// primary's plan, restore every hosted partition from the snapshot frames, and
// make the snapshot this node's own recovery baseline in one checkpoint round
// (one image set, then the manifest; per-bucket LSN heads advanced to the
// snapshot's — so accepted ship records continue the primary's numbering and
// the log head doubles as the duplicate-batch filter). The serving process
// calls this after fetching /v1/repl/sync, before the node is ready for
// ship batches.
func (s *Server) InstallReplicaState(meta wire.ReplSyncMeta, frames []wire.BucketFrame) error {
	nc := s.cfg.Node
	if nc == nil || !s.isReplica() {
		return errors.New("server: InstallReplicaState on a non-replica node")
	}
	rm := nc.Recovery
	if rm == nil {
		return errors.New("server: replica has no recovery manager attached")
	}
	eng := s.cfg.Engine
	// Nothing accepted so far is meant for the state about to be installed:
	// refuse ship batches until the install completes, and let no apply run
	// into the wipe.
	s.repl.mu.Lock()
	s.repl.ready = false
	s.apply.reset(wire.ShipCursor{}, 0)
	s.repl.mu.Unlock()
	// Fence: no local transaction may interleave with the install. The
	// partitions come back up one by one through RestorePartition below.
	for _, m := range eng.HostedMachines() {
		if !eng.MachineDown(m) {
			if err := eng.Crash(m); err != nil {
				return err
			}
		}
	}
	cur := eng.Plan()
	if len(meta.Plan) != len(cur) {
		return fmt.Errorf("server: sync plan covers %d buckets, engine has %d", len(meta.Plan), len(cur))
	}
	byOwner := make(map[int][]int)
	for b := range cur {
		if cur[b] != meta.Plan[b] {
			byOwner[int(meta.Plan[b])] = append(byOwner[int(meta.Plan[b])], b)
		}
	}
	for owner, buckets := range byOwner {
		if err := eng.ApplyOwnership(buckets, owner); err != nil {
			return err
		}
	}
	if meta.Active > 0 && meta.Active != eng.ActiveMachines() {
		if err := eng.SetActiveMachines(meta.Active); err != nil {
			return err
		}
	}
	snaps := make([]store.BucketSnapshot, 0, len(frames))
	byPart := make(map[int][]store.BucketSnapshot)
	for _, f := range frames {
		sn, err := wire.SnapshotFromFrame(f, nc.DecodeRow)
		if err != nil {
			return err
		}
		snaps = append(snaps, sn)
		part := eng.OwnerOf(sn.Bucket)
		byPart[part] = append(byPart[part], sn)
	}
	// Every hosted partition restores — including empty ones, which simply
	// come back up — so the whole node is live and crash-consistent.
	for _, m := range eng.HostedMachines() {
		for _, part := range eng.PartitionsOfMachine(m) {
			if _, err := eng.RestorePartition(part, byPart[part], nil); err != nil {
				return err
			}
		}
	}
	// Discard whatever record stream this node's own WAL holds before the
	// snapshot becomes the baseline: a resyncing ex-primary (or a replica
	// resyncing mid-life) would otherwise keep diverged records above the
	// incoming images' LSNs that replay on a future cold start, and stale
	// high LSN heads that break ship dedup.
	if rm.Durable() {
		if err := rm.ResetReplica(); err != nil {
			return err
		}
	}
	if err := rm.SetEpoch(meta.Epoch); err != nil {
		return err
	}
	if err := rm.InstallReplicaBaseline(snaps); err != nil {
		return err
	}
	s.repl.mu.Lock()
	s.repl.received = meta.Cursor
	s.apply.reset(meta.Cursor, meta.PlanSeq)
	s.repl.baseline = meta.Baseline
	s.repl.ready = true
	s.repl.fenced = false
	s.repl.rejoin = nil
	s.repl.acceptedRecs = 0
	s.repl.mu.Unlock()
	return nil
}

// handleReplShip accepts one shipped WAL batch: it appends the frames of the
// batch's fresh commands to this node's own log, as they arrived, acknowledges
// once they are fsynced, and leaves applying them to the applier. The guards,
// in order: role (a non-replica fences the sender — the zombie-primary case),
// epoch (a batch under any other term is fenced), readiness (retryable until
// the sync snapshot is installed), baseline (the primary installed data
// outside the WAL since sync, or an apply failed here and memory trails the
// log for good — a Resync ack: only a fresh sync can continue), and position
// (a batch not starting at the received cursor gets a Gap ack carrying where
// to rewind to; duplicates land here too). Then every record is checked before
// any is appended — per-bucket LSN dedup against the log head (a snapshot's
// overlap is skipped, a skipped LSN refuses the batch), args decoded — so a
// batch is accepted whole or not at all, and the ack covers only what one
// fsync of the follower's log made durable.
func (s *Server) handleReplShip(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "server: POST required", http.StatusMethodNotAllowed)
		return
	}
	// The frame comes off the connection whole — from there on the request's
	// context ends when the sender hangs up — and stays encoded until there is
	// room for its records.
	frame, err := wire.ReadFrame(r.Body)
	if err != nil {
		writeNodeError(w, fmt.Errorf("%w: %v", errBadNodeRequest, err))
		return
	}
	rm, err := s.nodeRecovery()
	if err != nil {
		writeNodeError(w, err)
		return
	}
	// A full apply queue holds the batch back here, before anything is decoded,
	// locked or appended: a follower that cannot keep up stops acknowledging,
	// and a handler that waits holds one frame, for as long as its sender does.
	if err := s.apply.reserve(r.Context()); err != nil {
		writeNodeError(w, err)
		return
	}
	accepted := false
	defer func() {
		if !accepted {
			s.apply.release()
		}
	}()
	batch, err := wire.DecodeShipBatch(frame)
	if err != nil {
		writeNodeError(w, fmt.Errorf("%w: %v", errBadNodeRequest, err))
		return
	}
	st := &s.repl
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.replica {
		writeNodeError(w, fmt.Errorf("%w: node is not a replica (epoch %d)", wire.ErrFenced, rm.Epoch()))
		return
	}
	if epoch := rm.Epoch(); batch.Epoch != epoch {
		writeNodeError(w, fmt.Errorf("%w: batch epoch %d, replica epoch %d", wire.ErrFenced, batch.Epoch, epoch))
		return
	}
	if !st.ready {
		writeNodeError(w, fmt.Errorf("%w: replica sync incomplete", store.ErrStopped))
		return
	}
	pos := s.apply.position()
	ack := wire.ShipAck{Epoch: rm.Epoch(), Applied: pos.applied, Received: st.received}
	if batch.Baseline != st.baseline || pos.err != nil {
		// The stream cannot bring this node's memory to the primary's state any
		// more: the primary took in data outside its log, or an apply failed
		// here (logged when it did). The shipper stops on this answer.
		ack.Resync = true
		writeJSON(w, ack)
		return
	}
	if batch.From != st.received {
		ack.Gap = true
		writeJSON(w, ack)
		return
	}
	b, fresh, err := s.decodeShipBatch(rm, batch)
	if err != nil {
		writeNodeError(w, err)
		return
	}
	syncs := rm.WALStats().Syncs
	var ticket uint64
	for _, frame := range fresh {
		if ticket, err = rm.AppendShipped(frame); err != nil {
			writeNodeError(w, err)
			return
		}
	}
	if err := rm.WaitDurable(ticket); err != nil {
		writeNodeError(w, err)
		return
	}
	st.received = batch.Next
	accepted = true
	s.apply.push(b, rm.WALStats().Syncs-syncs)
	s.maybeFollowerCheckpointLocked(rm, len(b.cmds))
	ack.Received = st.received
	writeJSON(w, ack)
}

// decodeShipBatch turns a batch at the received cursor into what the applier
// takes and the frames the log takes, refusing it whole if any record cannot
// be accepted. Per bucket, a record at or below the log head is a duplicate
// (the sync snapshot's overlap) and is dropped; the next must be exactly
// head+1, so the survivors continue the bucket's log under the LSNs their
// primary gave them. Nothing is appended here.
func (s *Server) decodeShipBatch(rm *recovery.Manager, batch *wire.ShipBatch) (*shipApply, [][]byte, error) {
	b := &shipApply{next: batch.Next}
	var fresh [][]byte
	buckets := s.cfg.Engine.Config().Buckets
	heads := make(map[int]uint64)
	for i := range batch.Records {
		rec := &batch.Records[i]
		if rec.IsPlan() {
			b.plans = append(b.plans, shippedPlan{at: len(b.cmds), rec: *rec})
			continue
		}
		if rec.Bucket >= buckets {
			return nil, nil, fmt.Errorf("%w: ship record %d names bucket %d of %d", errBadNodeRequest, i, rec.Bucket, buckets)
		}
		head, seen := heads[rec.Bucket]
		if !seen {
			head = rm.LogHead(rec.Bucket)
		}
		if rec.LSN <= head {
			continue
		}
		if rec.LSN > head+1 {
			return nil, nil, fmt.Errorf("server: ship record %d skips bucket %d from lsn %d to %d", i, rec.Bucket, head, rec.LSN)
		}
		raw, _ := rec.Args.(json.RawMessage)
		args, err := s.cfg.Engine.DecodeArgs(rec.Txn, raw)
		if err != nil {
			return nil, nil, fmt.Errorf("server: decoding shipped %q args: %v", rec.Txn, err)
		}
		id, ok := s.handles[rec.Txn]
		if !ok {
			return nil, nil, fmt.Errorf("%w: shipped %q", store.ErrUnknownTxn, rec.Txn)
		}
		heads[rec.Bucket] = rec.LSN
		b.cmds = append(b.cmds, store.ReplayCommand{Bucket: rec.Bucket, ID: id, Key: rec.Key, Args: args})
		fresh = append(fresh, batch.Frames[i])
	}
	return b, fresh, nil
}

// maybeFollowerCheckpointLocked kicks off an async checkpoint of the
// replica's own WAL once FollowerCheckpointEvery freshly accepted command
// records have accumulated, so a long-lived follower's cold start stays
// bounded. At most one is in flight. Caller holds s.repl.mu.
func (s *Server) maybeFollowerCheckpointLocked(rm *recovery.Manager, fresh int) {
	every := s.cfg.Node.FollowerCheckpointEvery
	if every <= 0 {
		return
	}
	st := &s.repl
	st.acceptedRecs += fresh
	if st.acceptedRecs < every || st.checkpointing {
		return
	}
	st.acceptedRecs = 0
	st.checkpointing = true
	go func() {
		_, err := s.checkpoint(rm)
		st.mu.Lock()
		st.checkpointing = false
		st.mu.Unlock()
		if err != nil {
			log.Printf("server: follower checkpoint failed: %v", err)
		}
	}()
}

// checkpoint runs one checkpoint round of this node's log. A partition stamps
// each bucket image with the bucket's log head, and a replica's log head runs
// ahead of its memory by the apply backlog — an image stamped ahead of its
// contents would make a cold start skip records it never executed. So on a
// replica the in-memory snapshots are taken with the ship handler held off
// and the backlog drained, where log head and memory agree; the image writes
// run after the handler is released.
func (s *Server) checkpoint(rm *recovery.Manager) (int, error) {
	st := &s.repl
	st.mu.Lock()
	if !st.replica {
		st.mu.Unlock()
		return rm.Checkpoint()
	}
	if err := s.apply.drain(); err != nil {
		st.mu.Unlock()
		return 0, err
	}
	return rm.CheckpointAfter(st.mu.Unlock)
}

// applyShippedPlan re-runs a primary-side plan change locally: changed
// buckets move between partitions this node hosts (a real local migration,
// so rows follow ownership), leave hosted partitions when their new owner
// lives elsewhere (that node's own WAL covers them now), or merely flip
// ownership when neither side is hosted here. An inbound migration from
// another node has no row source in the WAL at all — the primary received
// those rows out-of-band, bumped its baseline, and this replica resyncs.
func (s *Server) applyShippedPlan(rec *wal.Record) error {
	eng := s.cfg.Engine
	cur := eng.Plan()
	if len(rec.Plan) != len(cur) {
		return fmt.Errorf("server: shipped plan covers %d buckets, engine has %d", len(rec.Plan), len(cur))
	}
	type hop struct{ from, to int }
	groups := make(map[hop][]int)
	for b := range cur {
		if cur[b] != rec.Plan[b] {
			h := hop{int(cur[b]), int(rec.Plan[b])}
			groups[h] = append(groups[h], b)
		}
	}
	for h, buckets := range groups {
		fromHosted := eng.Hosted(eng.MachineOfPartition(h.from))
		toHosted := eng.Hosted(eng.MachineOfPartition(h.to))
		switch {
		case fromHosted && toHosted:
			if _, err := eng.MoveBuckets(buckets, h.from, h.to, 0, 0); err != nil {
				return err
			}
		case fromHosted:
			if _, err := eng.ExtractBuckets(buckets, h.from, h.to, 0, 0, false); err != nil {
				return err
			}
		default:
			if err := eng.ApplyOwnership(buckets, h.to); err != nil {
				return err
			}
		}
	}
	if rec.Active > 0 && rec.Active != eng.ActiveMachines() {
		return eng.SetActiveMachines(rec.Active)
	}
	return nil
}

// handleReplPromote turns a replica into a primary under a strictly higher
// epoch, persisted before the role flips so the fence survives a restart.
// Everything the replica has acknowledged is applied first: the call returns
// only once the apply backlog has drained, so a write its old primary told a
// client was committed is readable on the promoted node from its first
// transaction on. Promoting a node that is already primary at (or above) the
// requested epoch is idempotent success — the coordinator may retry.
func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	var req wire.ReplPromote
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	rm, err := s.nodeRecovery()
	if err != nil {
		writeNodeError(w, err)
		return
	}
	st := &s.repl
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.replica {
		if !st.ready {
			writeNodeError(w, fmt.Errorf("%w: replica sync incomplete; cannot promote", store.ErrStopped))
			return
		}
		if req.Epoch <= rm.Epoch() {
			writeNodeError(w, fmt.Errorf("%w: promote epoch %d not above current %d", wire.ErrFenced, req.Epoch, rm.Epoch()))
			return
		}
		// The ship handler is held off by st.mu, so the backlog only shrinks.
		// A node whose apply failed is not promotable: it would serve state
		// that is missing acknowledged writes.
		backlog := s.apply.position().backlog
		if err := s.apply.drain(); err != nil {
			writeNodeError(w, fmt.Errorf("server: cannot promote: %w", err))
			return
		}
		st.drained = backlog
	}
	if req.Epoch > rm.Epoch() {
		if err := rm.SetEpoch(req.Epoch); err != nil {
			writeNodeError(w, err)
			return
		}
	}
	if st.replica {
		// Capture the standing rejoin offer for the deposed primary: shipping
		// to it resumes at this node's current durable end — taken after the
		// drain, which logs the plan records it applies, and with no
		// transaction able to land between here and the role flip (the
		// replica refusal is still up). The zombie's truncated-to state must
		// match the received cursor, which the drain made the applied one
		// (both left intact below precisely so the zombie can read its
		// divergence point from our status), and plan/baseline must not have
		// drifted. Pin the cursor so our own checkpoints keep the rejoin
		// window shippable.
		if end, err := rm.ShipEnd(); err == nil {
			rm.PinShip(end.Seg)
			st.rejoin = &wire.ReplRejoin{
				Cursor:   end,
				PlanSeq:  s.apply.position().planSeq,
				Baseline: rm.BaselineSeq(),
			}
		}
	}
	st.replica = false
	st.fenced = false
	writeJSON(w, s.replStatusLocked(rm))
}

// handleReplDemote orders this fenced ex-primary to stand down and rejoin
// the given primary as a follower. The demotion itself runs on the serving
// process (NodeConfig.OnDemote — it needs the transport client); this
// handler validates and fires it, replying with the current status so the
// coordinator can poll for convergence.
func (s *Server) handleReplDemote(w http.ResponseWriter, r *http.Request) {
	var req wire.ReplDemote
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	if req.PrimaryURL == "" {
		writeNodeError(w, fmt.Errorf("%w: demote needs a primary URL", errBadNodeRequest))
		return
	}
	rm, err := s.nodeRecovery()
	if err != nil {
		writeNodeError(w, err)
		return
	}
	st := &s.repl
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.replica {
		if s.cfg.Node.OnDemote == nil {
			writeNodeError(w, errors.New("server: node has no demote hook; restart it as a replica"))
			return
		}
		st.fenced = true // stop serving writes immediately, not when the rejoin lands
		go s.cfg.Node.OnDemote(req.PrimaryURL)
	}
	writeJSON(w, s.replStatusLocked(rm))
}

// DemoteToFollower turns this (possibly fenced) ex-primary into a warm
// follower of the node whose ReplStatus is given: fence local execution,
// shed the WAL suffix past the divergence point (the new primary's Applied
// cursor — a cursor into *this* node's WAL), adopt the new epoch, and
// rebuild memory from the truncated log so the node holds exactly the state
// the new primary acknowledged. On success (true) the node is a ready
// replica positioned at pst.Rejoin.Cursor: the caller resumes shipping via
// a Resume sync against the new primary.
//
// False with a nil error means a warm rejoin is impossible — the rejoin
// offer is missing or stale, or truncation was refused (wal.ErrNeedResync) —
// and the node is left a fenced non-replica; the caller must run a full
// snapshot resync (InstallReplicaState), which wipes and rebuilds the WAL.
//
// The caller must have stopped this node's own shipper and released any
// sync-commit waiters (recovery.AbortSync) first: fencing the engine blocks
// on in-flight transactions, and a waiter parked on the barrier would never
// drain.
func (s *Server) DemoteToFollower(pst wire.ReplStatus) (bool, error) {
	rm, err := s.nodeRecovery()
	if err != nil {
		return false, err
	}
	if !rm.Durable() {
		return false, errors.New("server: demotion requires a durable store (-data-dir)")
	}
	eng := s.cfg.Engine
	st := &s.repl
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.replica {
		return false, errors.New("server: node is already a replica")
	}
	if pst.Epoch <= rm.Epoch() {
		return false, fmt.Errorf("%w: demote toward epoch %d, ours is %d", wire.ErrFenced, pst.Epoch, rm.Epoch())
	}
	st.fenced = true
	// Fence: every hosted machine goes down, so nothing interleaves with the
	// truncation and the rebuild below replays onto empty partitions.
	for _, m := range eng.HostedMachines() {
		if !eng.MachineDown(m) {
			if err := rm.Crash(m); err != nil {
				return false, err
			}
		}
	}
	warm := pst.Rejoin != nil &&
		pst.Rejoin.PlanSeq == rm.PlanSeq() &&
		pst.Rejoin.Baseline == rm.BaselineSeq()
	if warm {
		if _, err := rm.TruncateShip(pst.Applied); err != nil {
			if !errors.Is(err, wal.ErrNeedResync) {
				return false, err
			}
			warm = false
		}
	}
	if !warm {
		return false, nil
	}
	if err := rm.SetEpoch(pst.Epoch); err != nil {
		return false, err
	}
	// Rebuild memory at the divergence point: the truncated suffix already
	// executed here, so images + replay of the retained log are the only
	// correct source of state now.
	for _, m := range eng.HostedMachines() {
		if _, err := rm.Restore(m); err != nil {
			return false, err
		}
	}
	if _, err := rm.Checkpoint(); err != nil {
		return false, err
	}
	st.replica = true
	st.ready = true
	st.fenced = false
	st.rejoin = nil
	st.drained = 0
	st.acceptedRecs = 0
	st.received = pst.Rejoin.Cursor
	s.apply.reset(pst.Rejoin.Cursor, pst.Rejoin.PlanSeq)
	st.baseline = pst.Rejoin.Baseline
	return true, nil
}

// PrepareFullResync flips a node that failed a warm rejoin into replica
// role so InstallReplicaState (which requires it) can rebuild it from a
// fresh snapshot stream.
func (s *Server) PrepareFullResync() {
	s.repl.mu.Lock()
	s.repl.replica = true
	s.repl.ready = false
	s.repl.drained = 0
	s.repl.received = wire.ShipCursor{}
	s.apply.reset(wire.ShipCursor{}, 0)
	s.repl.mu.Unlock()
}

// handleReplStatus reports the node's replication self-description.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	rm, err := s.nodeRecovery()
	if err != nil {
		writeNodeError(w, err)
		return
	}
	st := &s.repl
	st.mu.Lock()
	defer st.mu.Unlock()
	writeJSON(w, s.replStatusLocked(rm))
}

// replStatusLocked builds a ReplStatus; the caller holds s.repl.mu.
func (s *Server) replStatusLocked(rm *recovery.Manager) wire.ReplStatus {
	pos := s.apply.position()
	out := wire.ReplStatus{
		Epoch:        rm.Epoch(),
		Baseline:     rm.BaselineSeq(),
		Applied:      pos.applied,
		Received:     s.repl.received,
		ApplyBacklog: pos.backlog,
		Drained:      s.repl.drained,
		PlanSeq:      pos.planSeq,
		Fenced:       s.repl.fenced,
		Rejoin:       s.repl.rejoin,
	}
	if s.repl.replica {
		out.Role = "replica"
	} else {
		out.Role = "primary"
	}
	if rm.Durable() {
		if end, err := rm.ShipEnd(); err == nil {
			out.Durable = end
		}
		ws := rm.WALStats()
		out.ShipTailReads, out.ShipFileReads = ws.ShipTailReads, ws.ShipFileReads
	}
	return out
}
