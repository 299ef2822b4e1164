package server

import (
	"bytes"
	"fmt"
	"log"
	"net/http"

	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// Replication plane. A node is a primary or a follower of one (its role, in
// role.go, says which and how far it has got). The primary serves
// /v1/repl/sync — a fuzzy snapshot of everything it hosts plus the WAL
// cursor shipping starts from — and its shipper (follow.go) sends batches of
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

// handleReplSync seeds a follower (syncBody), and when the follower names its
// URL, ships to it from the body's cursor (serveSync).
func (s *Server) handleReplSync(w http.ResponseWriter, r *http.Request) {
	var req wire.ReplSync
	if !decodeNodeJSON(w, r, &req) {
		return
	}
	if c := s.answer(reqSync); c.do == refuse {
		writeNodeError(w, c.err)
		return
	}
	body, err := s.serveSync(req)
	if err != nil {
		writeNodeError(w, err)
		return
	}
	w.Header().Set("Content-Type", wire.ContentTypeChunk)
	_, _ = w.Write(body)
}

// syncBody is a follower's sync stream: one ReplSyncMeta frame, then one image
// set holding every hosted bucket. The ship cursor is taken before the
// snapshots, so every record a snapshot may already include arrives again
// with LSN <= the bucket's image LSN and is deduplicated follower-side;
// PlanSeq is read before the plan for the same reason (a racing plan change
// is re-shipped rather than lost). A chunk install is all before the cursor
// or all after the snapshot, never astride them (installMu). The cursor's
// segment is pinned against compaction before the snapshot starts so
// shipping can begin from it.
func (s *Server) syncBody() (wire.ReplSyncMeta, []byte, error) {
	eng := s.eng
	s.installMu.Lock()
	defer s.installMu.Unlock()
	meta := wire.ReplSyncMeta{Epoch: s.rm.Epoch(), PlanSeq: s.rm.PlanSeq(), Plan: eng.Plan(), Active: eng.ActiveMachines()}
	var err error
	if meta.Cursor, err = s.rm.ShipEnd(); err != nil {
		return meta, nil, err
	}
	s.rm.PinShip(meta.Cursor.Seg)
	var imgs []*wal.Image
	for _, m := range eng.HostedMachines() {
		if eng.MachineDown(m) {
			return meta, nil, fmt.Errorf("%w: machine %d is down; cannot seed a follower", store.ErrPartitionDown, m)
		}
		for _, part := range eng.PartitionsOfMachine(m) {
			snaps, err := eng.SnapshotPartition(part)
			if err != nil {
				return meta, nil, err
			}
			for i := range snaps {
				img := wal.Image(snaps[i])
				imgs = append(imgs, &img)
			}
		}
	}
	meta.Buckets = len(imgs)
	var buf bytes.Buffer
	if err := wire.EncodeFrame(&buf, meta); err != nil {
		return meta, nil, err
	}
	body, err := wal.EncodeImageSet(buf.Bytes(), imgs)
	return meta, body, err
}

// InstallReplicaState applies a primary's sync stream — its meta frame and
// the image set after it — to this node: decode the set (every CRC checked,
// one pass), discard whatever ship backlog an earlier sync left, fence local
// execution, adopt the primary's plan, restore every hosted partition from the
// snapshot, and make the set this node's own recovery baseline in one
// checkpoint round (the set's bytes as they arrived, then the manifest;
// per-bucket LSN heads advanced to the snapshot's — so accepted ship records
// continue the primary's numbering and the log head doubles as the
// duplicate-batch filter). A resync calls this after fetching /v1/repl/sync,
// before the node is ready for ship batches.
func (s *Server) InstallReplicaState(meta wire.ReplSyncMeta, set []byte) error {
	if c := s.answer(reqInstall); c.do == refuse {
		return c.err
	}
	imgs, err := wal.DecodeImages(set)
	if err != nil {
		return fmt.Errorf("server: sync snapshot: %w", err)
	}
	if len(imgs) != meta.Buckets {
		return fmt.Errorf("server: sync snapshot holds %d buckets, its meta frame declares %d", len(imgs), meta.Buckets)
	}
	eng := s.eng
	// Ship batches wait until the install completes, and no apply runs into
	// the wipe.
	s.repl.mu.Lock()
	_ = s.become(roleSyncing) // every role may start a sync
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
	if err := eng.AdoptPlan(meta.Plan, meta.Active); err != nil {
		return err
	}
	snaps := make([]store.BucketSnapshot, len(imgs))
	byPart := make(map[int][]store.BucketSnapshot)
	for i, img := range imgs {
		snaps[i] = store.BucketSnapshot(*img)
		part := eng.OwnerOf(img.Bucket)
		byPart[part] = append(byPart[part], snaps[i])
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
	if s.rm.Durable() {
		if err := s.rm.ResetReplica(); err != nil {
			return err
		}
	}
	if err := s.rm.SetEpoch(meta.Epoch); err != nil {
		return err
	}
	if err := s.rm.InstallReplicaBaseline(snaps, set); err != nil {
		return err
	}
	st := &s.repl
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.become(roleReplica); err != nil {
		return err
	}
	st.received = meta.Cursor
	s.apply.reset(meta.Cursor, meta.PlanSeq)
	return nil
}

// handleReplShip accepts one shipped WAL batch: it appends the frames of the
// batch's fresh commands and chunks to this node's own log, as they arrived,
// acknowledges once they are fsynced, and leaves applying them to the applier.
// The guards, in order: role (see guards: a primary fences the sender — the
// zombie case; a syncing node, whose epoch the install has yet to set, has it
// retry; a replica whose apply failed answers Resync: memory trails its log
// for good), epoch (a batch under any other term is fenced), and position (a
// batch not starting at the received cursor gets a Gap ack carrying where to
// rewind to; duplicates land here too). Then every record is checked before
// any is appended — per-bucket LSN dedup against the log head (a snapshot's
// overlap is skipped, a skipped LSN refuses the batch), args and rows decoded
// — so a batch is accepted whole or not at all, and the ack covers only what
// one fsync of the follower's log made durable.
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
	c := s.answer(reqShip)
	if c.do == refuse {
		writeNodeError(w, c.err)
		return
	}
	if epoch := s.rm.Epoch(); batch.Epoch != epoch {
		writeNodeError(w, fmt.Errorf("%w: batch epoch %d, replica epoch %d", wire.ErrFenced, batch.Epoch, epoch))
		return
	}
	ack := wire.ShipAck{Epoch: s.rm.Epoch(), Received: st.received}
	if c.do == resync {
		// The shipper stops on this answer.
		ack.Resync = true
		writeJSON(w, ack)
		return
	}
	if batch.From != st.received {
		ack.Gap = true
		writeJSON(w, ack)
		return
	}
	b, fresh, err := s.decodeShipBatch(batch)
	if err != nil {
		writeNodeError(w, err)
		return
	}
	syncs := s.rm.WALStats().Syncs
	var ticket uint64
	for _, frame := range fresh {
		if ticket, err = s.rm.AppendShipped(frame); err != nil {
			writeNodeError(w, err)
			return
		}
	}
	if err := s.rm.WaitDurable(ticket); err != nil {
		writeNodeError(w, err)
		return
	}
	st.received = batch.Next
	accepted = true
	s.apply.push(b, s.rm.WALStats().Syncs-syncs)
	s.maybeFollowerCheckpointLocked(len(b.cmds))
	ack.Received = st.received
	writeJSON(w, ack)
}

// decodeShipBatch turns a batch at the received cursor into what the applier
// takes and the frames the log takes, refusing it whole if any record cannot
// be accepted. Per bucket, a record at or below the log head is a duplicate
// (the sync snapshot's overlap) and is dropped; a command must be exactly
// head+1, so the survivors continue the bucket's log under the LSNs their
// primary gave them. A chunk replaces its buckets' rows whatever they held, so
// its share of a bucket only has to be above the head: a bucket that lived on
// the primary before this node synced has a history here that stops short.
// Nothing is appended here.
func (s *Server) decodeShipBatch(batch *wire.ShipBatch) (*shipApply, [][]byte, error) {
	b := &shipApply{next: batch.Next}
	var fresh [][]byte
	buckets := s.eng.Config().Buckets
	heads := make(map[int]uint64)
	type share struct {
		cmd store.ReplayCommand
		lsn uint64
	}
	for i := range batch.Records {
		rec := &batch.Records[i]
		if rec.IsPlan() {
			b.plans = append(b.plans, shippedPlan{at: len(b.cmds), rec: *rec})
			continue
		}
		var shares []share
		total := 0
		var err error
		rec.EachBucket(func(r *wal.Record) {
			total++
			if err != nil {
				return
			}
			if r.Bucket >= buckets {
				err = fmt.Errorf("%w: ship record %d names bucket %d of %d", errBadNodeRequest, i, r.Bucket, buckets)
				return
			}
			head, seen := heads[r.Bucket]
			if !seen {
				head = s.rm.LogHead(r.Bucket)
			}
			var c store.ReplayCommand
			switch {
			case r.LSN <= head:
				return
			case !r.IsChunk() && r.LSN > head+1:
				err = fmt.Errorf("server: ship record %d skips bucket %d from lsn %d to %d", i, r.Bucket, head, r.LSN)
			default:
				c, err = recovery.Replay(s.eng, r)
			}
			shares = append(shares, share{c, r.LSN})
		})
		switch {
		case err != nil:
			return nil, nil, err
		case len(shares) == 0:
			continue // a duplicate
		case len(shares) != total:
			return nil, nil, fmt.Errorf("server: ship record %d is a chunk this node holds part of", i)
		}
		for _, sh := range shares {
			heads[sh.cmd.Bucket] = sh.lsn
			b.cmds = append(b.cmds, sh.cmd)
		}
		fresh = append(fresh, batch.Frames[i])
	}
	return b, fresh, nil
}

// maybeFollowerCheckpointLocked kicks off an async checkpoint of the
// replica's own WAL once FollowerCheckpointEvery freshly accepted command
// records have accumulated, so a long-lived follower's cold start stays
// bounded. At most one is in flight. Caller holds s.repl.mu.
func (s *Server) maybeFollowerCheckpointLocked(fresh int) {
	every := s.cfg.FollowerCheckpointEvery
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
		_, err := s.checkpoint()
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
func (s *Server) checkpoint() (int, error) {
	release, err := s.quiesceApply()
	if err != nil {
		return 0, err
	}
	return s.rm.CheckpointAfter(release)
}

// applyShippedPlan re-runs a primary-side plan change locally: changed
// buckets move between partitions this node hosts (a real local migration,
// so rows follow ownership), leave hosted partitions when their new owner
// lives elsewhere (that node's own WAL covers them now), or merely flip
// ownership otherwise — an inbound migration's rows arrived before the flip,
// as the chunk record the primary logged ahead of it.
func (s *Server) applyShippedPlan(rec *wal.Record) error {
	eng := s.eng
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
// transaction on. Promoting a primary at (or above) the requested epoch is
// idempotent success — the coordinator may retry — but a fenced node is
// refused: it already knows a higher epoch has a primary, and un-fencing it
// would make two.
func (s *Server) handleReplPromote(req wire.ReplPromote) (any, error) {
	st := &s.repl
	st.mu.Lock()
	defer st.mu.Unlock()
	c := s.answer(reqPromote)
	if c.do == refuse {
		return nil, c.err
	}
	backlog := 0
	if c.do == drain {
		if req.Epoch <= s.rm.Epoch() {
			return nil, fmt.Errorf("%w: promote epoch %d not above current %d", wire.ErrFenced, req.Epoch, s.rm.Epoch())
		}
		// The ship handler is held off by st.mu, so the backlog only shrinks.
		// A node whose apply failed is not promotable: it would serve state
		// that is missing acknowledged writes.
		backlog = s.apply.position().backlog
		if err := s.apply.drain(); err != nil {
			return nil, fmt.Errorf("server: cannot promote: %w", err)
		}
	}
	if req.Epoch > s.rm.Epoch() {
		if err := s.rm.SetEpoch(req.Epoch); err != nil {
			return nil, err
		}
	}
	if c.do == drain {
		_ = s.become(rolePrimary) // a replica may always be promoted
		st.drained = backlog
	}
	return s.replStatusLocked(), nil
}

// handleReplDemote orders this fenced ex-primary to stand down and rejoin
// the given primary as a follower (standDown), replying with the current
// status so the coordinator can poll for convergence.
func (s *Server) handleReplDemote(req wire.ReplDemote) (any, error) {
	if req.PrimaryURL == "" {
		return nil, fmt.Errorf("%w: demote needs a primary URL", errBadNodeRequest)
	}
	s.standDown(req.PrimaryURL)
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return s.replStatusLocked(), nil
}

// handleReplStatus reports the node's replication self-description.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	writeJSON(w, s.replStatusLocked())
}

// replStatusLocked builds a ReplStatus; the caller holds s.repl.mu.
func (s *Server) replStatusLocked() wire.ReplStatus {
	pos := s.apply.position()
	r := s.role()
	out := wire.ReplStatus{
		Role:         r.wire(),
		Epoch:        s.rm.Epoch(),
		Applied:      pos.applied,
		Received:     s.repl.received,
		ApplyBacklog: pos.backlog,
		Drained:      s.repl.drained,
		PlanSeq:      pos.planSeq,
		Fenced:       r == roleFenced,
	}
	if r != roleReplica {
		out.Received = pos.applied // all a non-replica ever received, it applied
	}
	if s.rm.Durable() {
		if end, err := s.rm.ShipEnd(); err == nil {
			out.Durable = end
		}
		ws := s.rm.WALStats()
		out.ShipTailReads, out.ShipFileReads = ws.ShipTailReads, ws.ShipFileReads
	}
	return out
}
