package wal

import (
	"errors"
	"fmt"
	"path/filepath"
)

// Self-healing surface: the pieces a fenced ex-primary needs to fold itself
// back into the cluster as a follower, plus the remote-ack barrier the
// synchronous-commit mode arms on a serving primary.
//
// A zombie's WAL agrees with the promoted follower's up to the divergence
// point (the cursor the follower had applied when it was promoted) and then
// carries a suffix of records the follower never saw — records whose
// submitters were acknowledged under the old term but which lost the
// election, so to speak. TruncateTo physically discards that suffix so a
// future replay cannot resurrect it; Reset wipes the record stream entirely
// for the cases where surgical truncation cannot work and a fresh snapshot
// resync is the only correct move.

// ErrNeedResync reports that the log cannot be truncated to the requested
// divergence point — a checkpoint image or the manifest already folded in
// discarded records, or the cursor points below retention. The caller must
// full-resync from a fresh snapshot instead.
var ErrNeedResync = errors.New("wal: cannot truncate to divergence point; full resync required")

// ErrSyncAborted fails the wait on a record that was locally durable but
// still owed a follower ack when its fate became unknowable: the shipper
// died before the follower confirmed it, or a divergence truncation discarded
// it outright. The submitter must not be told the write committed. It is the
// outcome of those records, not of the log: later appends are unaffected.
var ErrSyncAborted = errors.New("wal: sync commit aborted before the follower acknowledged the record")

// TruncateResult describes what TruncateTo discarded.
type TruncateResult struct {
	// Heads maps each bucket whose largest retained LSN dropped to its new
	// head — the owner must lower its in-memory LSN counters to match.
	Heads map[int]uint64
	// DiscardedRecords counts discarded command records; DiscardedBytes the
	// segment bytes released.
	DiscardedRecords int
	DiscardedBytes   int64
}

// SetSyncCommit arms or disarms the synchronous-commit barrier. While armed,
// Wait (and so Append) returns only once the remote ack cursor
// (SetRemoteAck) covers the record; disarming releases every waiter — the
// shipper disarms when it stops or latches a terminal error, so appends
// degrade to local durability instead of deadlocking.
func (l *Log) SetSyncCommit(on bool) {
	l.mu.Lock()
	l.syncCommit = on
	if !on {
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// SetRemoteAck records the follower's acknowledged ship cursor. Appends at
// or below the covered position are released; the cursor only ever advances.
func (l *Log) SetRemoteAck(cur ShipCursor) {
	l.mu.Lock()
	if seq := l.ackSeqLocked(cur); seq > l.remoteAckSeq {
		l.remoteAckSeq = seq
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// AbortSync fails every record enqueued under the armed barrier and not yet
// acknowledged by the follower with ErrSyncAborted — whether its waiter is
// parked on the barrier now or only arrives later: the records are durable
// locally but the follower never confirmed them, and the caller (a shipper
// that hit a terminal error, or a fenced primary standing down) knows no
// confirmation is coming. The barrier stays armed; records the follower did
// ack are unaffected. With the barrier disarmed there is nothing to abort.
func (l *Log) AbortSync() {
	l.mu.Lock()
	if l.syncCommit && l.appendSeq > l.remoteAckSeq {
		l.discardLo, l.discardHi = l.remoteAckSeq, l.appendSeq
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// ackSeqLocked maps a ship cursor onto the append-sequence space: how many
// of this life's appends the cursor covers. Cursors into segments recovered
// from a previous life (or already compacted) cover none of them.
func (l *Log) ackSeqLocked(cur ShipCursor) uint64 {
	if cur.Seg > l.activeSeq {
		return l.appendSeq
	}
	if cur.Seg == l.activeSeq {
		rec := cur.Rec
		if rec > l.activeRecs {
			rec = l.activeRecs
		}
		return l.activeAckBase + uint64(rec)
	}
	for i := len(l.segs) - 1; i >= 0; i-- {
		s := &l.segs[i]
		if s.seq < cur.Seg {
			break
		}
		if s.seq == cur.Seg {
			if s.ackBase < 0 {
				return 0
			}
			rec := cur.Rec
			if rec > s.recs {
				rec = s.recs
			}
			return uint64(s.ackBase) + uint64(rec)
		}
	}
	return 0
}

// TruncateTo discards every durable record beyond the cursor — the unshipped
// suffix a fenced ex-primary must shed before rejoining as a follower. The
// caller guarantees no appends are in flight (the engine is fenced).
//
// Truncation is refused with ErrNeedResync when the retained prefix would be
// inconsistent: the cursor's segment is below retention, a checkpoint image
// covers a discarded record, or the suffix contains a plan record (the
// manifest and in-memory plan would disagree with the log). Those cases need
// a fresh snapshot resync instead.
func (l *Log) TruncateTo(cur ShipCursor) (TruncateResult, error) {
	res := TruncateResult{Heads: make(map[int]uint64)}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return res, l.err
	}
	if l.closed {
		return res, errClosed
	}
	if l.syncing || len(l.buf) > 0 {
		return res, errors.New("wal: truncate with appends in flight")
	}
	if cur.Seg > l.activeSeq || (cur.Seg == l.activeSeq && cur.Rec > l.durableRecs) {
		return res, fmt.Errorf("wal: truncate cursor %+v beyond durable end", cur)
	}
	if cur.Seg == 0 {
		// The follower applied nothing: every retained record is suffix. Only
		// consistent if no image has folded records in.
		for b, ref := range l.images {
			if base := ref.frame.LSN; base > 0 {
				return res, fmt.Errorf("%w: bucket %d image at lsn %d predates the divergence point", ErrNeedResync, b, base)
			}
		}
	} else {
		found := cur.Seg == l.activeSeq
		for _, s := range l.segs {
			if s.seq == cur.Seg {
				found = true
				if cur.Rec > s.recs {
					return res, fmt.Errorf("wal: truncate cursor %d records into segment %d, which holds %d", cur.Rec, cur.Seg, s.recs)
				}
				break
			}
		}
		if !found {
			return res, fmt.Errorf("%w: divergence segment %d is below retention", ErrNeedResync, cur.Seg)
		}
	}

	// Map the cut point into append-sequence space while the segment table is
	// still intact: waiters at or below it were acked (or predate this life),
	// waiters above it are about to lose their records.
	keepSeq := l.ackSeqLocked(cur)

	// Decode every discarded record first — the plan-record and image checks
	// must pass before any file is touched, so a refused truncation leaves
	// the log exactly as it was.
	type cutFile struct {
		name string
		keep []byte // retained prefix to rewrite (nil = delete the file)
		seal segment
	}
	var cuts []cutFile
	minDiscarded := make(map[int]uint64) // bucket -> smallest discarded LSN
	examine := func(name string, seq, fromRec int, size int64, ackBase int64) error {
		data, err := l.readExtent(name, size)
		if err != nil {
			return err
		}
		// The prefix that stays is re-indexed, the suffix that goes is checked;
		// off ends up as the offset the cut falls on.
		cut := cutFile{name: name}
		seal := segment{name: name, seq: seq, maxLSN: make(map[int]uint64), ackBase: ackBase}
		var planErr error
		_, derr := scanSegment(data, func(r *Record, end int64) {
			switch {
			case seal.recs < fromRec:
				seal.recs, seal.size = seal.recs+1, end
				if r.IsPlan() {
					seal.maxPlanSeq = max(seal.maxPlanSeq, r.PlanSeq)
				} else {
					seal.maxLSN[r.Bucket] = max(seal.maxLSN[r.Bucket], r.LSN)
				}
			case r.IsPlan():
				planErr = fmt.Errorf("%w: discarded suffix contains plan record %d", ErrNeedResync, r.PlanSeq)
			default:
				if cutLSN, ok := minDiscarded[r.Bucket]; !ok || r.LSN < cutLSN {
					minDiscarded[r.Bucket] = r.LSN
				}
				res.DiscardedRecords++
			}
		})
		if derr == nil && seal.recs < fromRec {
			derr = fmt.Errorf("holds %d records, cursor wants %d", seal.recs, fromRec)
		}
		if derr != nil {
			return fmt.Errorf("wal: truncating %s: %w", name, derr)
		}
		if planErr != nil {
			return planErr
		}
		if fromRec > 0 {
			cut.keep, cut.seal = data[:seal.size], seal
		}
		res.DiscardedBytes += size - seal.size
		cuts = append(cuts, cut)
		return nil
	}

	kept := make([]segment, 0, len(l.segs))
	for _, s := range l.segs {
		switch {
		case cur.Seg != 0 && s.seq < cur.Seg:
			kept = append(kept, s)
		case s.seq == cur.Seg && cur.Rec == s.recs:
			kept = append(kept, s) // cursor sits exactly on the boundary
		case s.seq == cur.Seg:
			if err := examine(s.name, s.seq, cur.Rec, s.size, s.ackBase); err != nil {
				return res, err
			}
		default:
			if err := examine(s.name, s.seq, 0, s.size, s.ackBase); err != nil {
				return res, err
			}
		}
	}
	if cur.Seg == l.activeSeq {
		if err := examine(l.activeName, l.activeSeq, cur.Rec, l.activeSize, int64(l.activeAckBase)); err != nil {
			return res, err
		}
	} else if l.activeSize > 0 {
		if err := examine(l.activeName, l.activeSeq, 0, l.activeSize, int64(l.activeAckBase)); err != nil {
			return res, err
		}
	} else {
		cuts = append(cuts, cutFile{name: l.activeName})
	}

	// An image whose LSN reaches into the discarded suffix has folded records
	// in that are about to vanish — replay on top of it would be wrong.
	for b, lsn := range minDiscarded {
		if base := l.baseLocked(b); base >= lsn {
			return res, fmt.Errorf("%w: bucket %d image at lsn %d covers discarded records from lsn %d", ErrNeedResync, b, base, lsn)
		}
		res.Heads[b] = lsn - 1
	}

	// All checks passed: rewrite the cut segment, delete the rest, and start
	// a fresh active segment right after the retained prefix.
	if err := l.active.Close(); err != nil {
		return res, fmt.Errorf("wal: closing segment %s: %w", l.activeName, err)
	}
	for _, c := range cuts {
		path := filepath.Join(l.dir, c.name)
		if c.keep != nil {
			if err := writeFileAtomic(l.fs, path, c.keep); err != nil {
				l.err = fmt.Errorf("wal: truncating %s: %w", c.name, err)
				return res, l.err
			}
			kept = append(kept, c.seal)
			continue
		}
		if err := l.fs.Remove(path); err != nil {
			l.err = fmt.Errorf("wal: discarding %s: %w", c.name, err)
			return res, l.err
		}
	}
	l.segs = kept
	l.dropTailLocked()
	l.diskBytes.Add(-res.DiscardedBytes)
	l.activeSeq = cur.Seg
	if cur.Seg == 0 {
		for _, s := range kept {
			if s.seq > l.activeSeq {
				l.activeSeq = s.seq
			}
		}
	}
	// A rejoined follower's shipper (if this node is ever promoted again)
	// starts from a fresh sync; the old pin protected a stream that no longer
	// exists. Sync-commit waiters below the cut were acked remotely and are
	// released; waiters above it just lost their records and must fail.
	l.shipPin = 0
	if keepSeq > l.remoteAckSeq {
		l.remoteAckSeq = keepSeq
	}
	l.discardLo, l.discardHi = l.remoteAckSeq, l.appendSeq
	l.cond.Broadcast()
	if err := l.openActive(); err != nil {
		l.err = err
		return res, err
	}
	return res, nil
}

// Reset discards the entire record stream and every checkpoint image,
// leaving an empty log with its identity (manifest, epoch, plan counters)
// intact — the preamble to installing a fresh snapshot resync in place. The
// caller guarantees no appends are in flight.
func (l *Log) Reset() error {
	l.imgMu.Lock()
	defer l.imgMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return errClosed
	}
	if l.syncing || len(l.buf) > 0 {
		return errors.New("wal: reset with appends in flight")
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: closing segment %s: %w", l.activeName, err)
	}
	for _, s := range l.segs {
		if err := l.fs.Remove(filepath.Join(l.dir, s.name)); err != nil {
			l.err = fmt.Errorf("wal: discarding %s: %w", s.name, err)
			return l.err
		}
	}
	if err := l.fs.Remove(filepath.Join(l.dir, l.activeName)); err != nil {
		l.err = fmt.Errorf("wal: discarding %s: %w", l.activeName, err)
		return l.err
	}
	imgDir := filepath.Join(l.dir, imgDirName)
	names, err := l.fs.ReadDir(imgDir)
	if err != nil {
		l.err = err
		return err
	}
	for _, n := range names {
		if err := l.fs.Remove(filepath.Join(imgDir, n)); err != nil {
			l.err = fmt.Errorf("wal: discarding image set %s: %w", n, err)
			return l.err
		}
	}
	l.images = make(map[int]imageRef)
	l.setLive = make(map[int]int)
	l.diskBytes.Store(0)
	l.segs = nil
	l.dropTailLocked()
	l.shipPin = 0
	// Unacked sync-commit waiters lose their records with the stream.
	l.discardLo, l.discardHi = l.remoteAckSeq, l.appendSeq
	l.cond.Broadcast()
	if err := l.openActive(); err != nil {
		l.err = err
		return err
	}
	return nil
}
