package wal

import (
	"errors"
	"fmt"
	"path/filepath"
)

// Self-healing surface: Reset, which a node runs before it installs a
// primary's snapshot over its own data directory — a fenced ex-primary
// rejoining its successor, or a replica resyncing mid-life — plus the
// remote-ack barrier the synchronous-commit mode arms on a serving primary.

// ErrSyncAborted fails the wait on a record that was locally durable but
// still owed a follower ack when its fate became unknowable: the shipper
// died before the follower confirmed it, or a Reset discarded it outright.
// The submitter must not be told the write committed. It is the outcome of
// those records, not of the log: later appends are unaffected.
var ErrSyncAborted = errors.New("wal: sync commit aborted before the follower acknowledged the record")

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
