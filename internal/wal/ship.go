package wal

import (
	"errors"
	"fmt"
	"sort"
)

// WAL shipping: a primary streams its durable record stream — commands and
// plan records alike — to a follower by cursor. A cursor addresses a point
// in the stream as (segment sequence, records consumed within it). What is
// shipped is the records' frames, byte for byte (see record.go). The most
// recent frames are kept in memory (the tail), and a cursor inside the tail
// is served from it; a cursor older than the tail costs a read of its segment
// file, stepping over the consumed frames by their length prefixes.
//
// Retention interacts with shipping through PinShip: Checkpoint normally
// deletes sealed segments once images cover them, which would tear the ship
// stream out from under a slow follower. The shipper pins the oldest segment
// its follower has not acknowledged; a cursor pointing into a segment that
// was compacted anyway (pin set too late, or no shipper at all) gets
// ErrShipGone and the follower must full-resync.

// ErrShipGone reports that a ship cursor points at log records that no
// longer exist — the segment was compacted. The only recovery is a full
// resync from a fresh snapshot.
var ErrShipGone = errors.New("wal: shipped records compacted")

// ShipCursor addresses a point in the durable record stream. It crosses the
// wire as it is (wire.ShipCursor is this type).
type ShipCursor struct {
	// Seg is the segment sequence number (1-based; 0 means "start of log").
	Seg int `json:"seg"`
	// Rec is how many records of the segment are already consumed.
	Rec int `json:"rec"`
}

// ShipEnd returns the cursor addressing the durable end of the log: shipping
// from here yields nothing until new records are appended. Taken before a
// snapshot, it bounds exactly what the snapshot may already include.
func (l *Log) ShipEnd() ShipCursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ShipCursor{Seg: l.activeSeq, Rec: l.durableRecs}
}

// PinShip keeps segments with sequence >= seg out of compaction, protecting
// a follower's unacknowledged records. seg <= 0 clears the pin.
func (l *Log) PinShip(seg int) {
	l.mu.Lock()
	if seg < 0 {
		seg = 0
	}
	l.shipPin = seg
	l.mu.Unlock()
}

// PlanSeq returns the current plan-change sequence number.
func (l *Log) PlanSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.planSeq
}

// Epoch returns the replication fencing term.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// SetEpoch raises the fencing term and persists it in the manifest before
// returning, so a promotion survives a restart. Lowering the term is
// refused — that is exactly the zombie-primary case fencing exists for.
func (l *Log) SetEpoch(e uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if e < l.epoch {
		return fmt.Errorf("wal: epoch %d below current %d", e, l.epoch)
	}
	if e == l.epoch {
		return nil
	}
	prev := l.epoch
	l.epoch = e
	if err := l.writeManifest(); err != nil {
		l.epoch = prev
		return err
	}
	l.manifestPlanSeq = l.planSeq
	return nil
}

// shipTailBytes sizes the in-memory ship tail: the most recent frames the log
// keeps so a follower that is keeping up never makes the primary open a file.
// The tail holds between one and two times this many bytes of them.
const shipTailBytes = 2 << 20

// tailRec is one record of the ship tail: record idx (0-based) of segment
// seg, and its frame.
// Nothing in it changes after enqueue — the frame was encoded from the
// submitter's value before the procedure ran — so what a reader gets is what
// the segment holds whatever the procedure did to its input afterwards.
type tailRec struct {
	seg, idx int
	frame    []byte
}

// pushTailLocked adds the frame just placed in the active segment to the
// ship tail, dropping the oldest records once the tail holds twice its size.
// Caller holds l.mu and has not yet counted the record in activeRecs.
func (l *Log) pushTailLocked(frame []byte) {
	l.tail = append(l.tail, tailRec{seg: l.activeSeq, idx: l.activeRecs, frame: frame})
	l.tailBytes += len(frame)
	if l.tailBytes >= 2*shipTailBytes {
		drop := 0
		for ; l.tailBytes > shipTailBytes; drop++ {
			l.tailBytes -= len(l.tail[drop].frame)
		}
		n := copy(l.tail, l.tail[drop:])
		clear(l.tail[n:])
		l.tail = l.tail[:n]
	}
}

// dropTailLocked empties the ship tail: the segments it mirrored were cut or
// deleted, and the stream restarts from the files. Caller holds l.mu.
func (l *Log) dropTailLocked() {
	clear(l.tail)
	l.tail, l.tailBytes = l.tail[:0], 0
}

// shipExt is one segment's durable extent as a ship read sees it.
type shipExt struct {
	seq  int
	name string
	size int64
	recs int
}

// shipExtentsLocked snapshots the durable extent of every retained segment,
// oldest first, the active one last. Caller holds l.mu.
func (l *Log) shipExtentsLocked() []shipExt {
	exts := make([]shipExt, 0, len(l.segs)+1)
	for _, s := range l.segs {
		exts = append(exts, shipExt{s.seq, s.name, s.size, s.recs})
	}
	return append(exts, shipExt{l.activeSeq, l.activeName, l.activeSize, l.durableRecs})
}

// shipFetch appends the frames of records [from, to) of one segment to dst,
// stopping short of the first that does not fit in room bytes.
type shipFetch func(dst [][]byte, e shipExt, from, to, room int) ([][]byte, error)

// errTailMiss is tailFetchLocked's answer for records older than the tail.
var errTailMiss = errors.New("wal: ship cursor is older than the in-memory tail")

// tailFetchLocked serves a segment's records from the ship tail. The tail is
// contiguous up to the last enqueued record, so it holds either all of
// [from, to) or not its first record. Caller holds l.mu.
func (l *Log) tailFetchLocked(dst [][]byte, e shipExt, from, to, room int) ([][]byte, error) {
	i := sort.Search(len(l.tail), func(k int) bool {
		t := &l.tail[k]
		return t.seg > e.seq || (t.seg == e.seq && t.idx >= from)
	})
	if i+(to-from) > len(l.tail) || l.tail[i].seg != e.seq || l.tail[i].idx != from {
		return dst, errTailMiss
	}
	for _, t := range l.tail[i : i+(to-from)] {
		if room -= len(t.frame); room < 0 {
			break
		}
		dst = append(dst, t.frame)
	}
	return dst, nil
}

// fileFetch serves a segment's records from its file: it steps over the first
// from frames by their length prefixes, decoding none of them, and validates
// the ones it hands out.
func (l *Log) fileFetch(dst [][]byte, e shipExt, from, to, room int) ([][]byte, error) {
	data, err := l.readExtent(e.name, e.size)
	if err != nil {
		return dst, err
	}
	off := 0
	for k := 0; k < to; k++ {
		n, err := frameLen(data[off:])
		if err == nil && k >= from {
			_, _, err = DecodeRecord(data[off : off+n])
		}
		if err != nil {
			// The snapshotted durable extent holds e.recs whole records.
			return dst, fmt.Errorf("wal: ship read of %s: record %d of %d at %d: %w", e.name, k, e.recs, off, err)
		}
		if k >= from {
			if room -= n; room < 0 {
				break
			}
			dst = append(dst, data[off:off+n])
		}
		off += n
	}
	return dst, nil
}

// walkShip is the one cursor walk behind ReadShip: from cur, across segment
// boundaries, until the batch holds maxRecords records or MaxShipBytes bytes
// or reaches the durable end of exts, taking each segment's frames from fetch.
// Whatever fetch reads from, the batch boundaries and the returned cursor are
// the same. Every frame fits an empty batch, so a batch short of the durable
// end is never empty.
func walkShip(exts []shipExt, cur ShipCursor, maxRecords int, fetch shipFetch) ([][]byte, ShipCursor, error) {
	if cur.Seg == 0 {
		cur = ShipCursor{Seg: exts[0].seq}
	}
	i := -1
	for j := range exts {
		if exts[j].seq == cur.Seg {
			i = j
			break
		}
	}
	if i < 0 {
		return nil, cur, fmt.Errorf("%w: segment %d is not retained", ErrShipGone, cur.Seg)
	}
	var out [][]byte
	room := MaxShipBytes
	for ; i < len(exts); i++ {
		e := exts[i]
		if cur.Rec > e.recs {
			return nil, cur, fmt.Errorf("wal: ship cursor %d records into segment %d, which holds %d", cur.Rec, e.seq, e.recs)
		}
		if cur.Rec < e.recs {
			to := min(e.recs, cur.Rec+maxRecords-len(out))
			got, err := fetch(out, e, cur.Rec, to, room)
			if err != nil {
				return nil, cur, err
			}
			for _, f := range got[len(out):] {
				cur.Rec, room = cur.Rec+1, room-len(f)
			}
			out = got
			if len(out) >= maxRecords || cur.Rec < to {
				break
			}
		}
		// This segment's durable extent is consumed; step into the next one.
		if i+1 >= len(exts) {
			break
		}
		if exts[i+1].seq != e.seq+1 {
			return nil, cur, fmt.Errorf("%w: segments %d..%d were compacted", ErrShipGone, e.seq+1, exts[i+1].seq-1)
		}
		cur = ShipCursor{Seg: exts[i+1].seq}
	}
	return out, cur, nil
}

// ReadShip returns the frames of up to maxRecords durable records beyond the
// cursor — one ship batch, so never more than MaxShipRecords (which is also
// what maxRecords <= 0 asks for) or MaxShipBytes — in log order, and the cursor addressing the position after them. A cursor
// inside the in-memory tail — any follower that is keeping up — is answered
// from it under the lock, with no file opened and nothing decoded. An older
// cursor (a restart, a rewind after a gap ack, a follower far behind) falls
// back to the segment files: like LoadTails it reads them outside the lock,
// against the durable extent snapshotted under it, so it never blocks the
// append path for the duration of the I/O. The frames are the log's own
// bytes: the caller must not change them.
//
// An empty result with a nil error means the cursor is caught up, and comes
// with a channel that is closed once the durable extent has grown. The
// channel is taken under the same lock as the extent, so a record made
// durable between the read and the wait is never slept through.
func (l *Log) ReadShip(cur ShipCursor, maxRecords int) ([][]byte, ShipCursor, <-chan struct{}, error) {
	if maxRecords <= 0 || maxRecords > MaxShipRecords {
		maxRecords = MaxShipRecords
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return nil, cur, nil, err
	}
	exts := l.shipExtentsLocked()
	recs, next, err := walkShip(exts, cur, maxRecords, l.tailFetchLocked)
	var wake <-chan struct{}
	if err == nil && len(recs) == 0 {
		if l.wake == nil {
			l.wake = make(chan struct{})
		}
		wake = l.wake
	}
	l.mu.Unlock()

	fromFile := err == errTailMiss
	if fromFile {
		recs, next, err = walkShip(exts, cur, maxRecords, l.fileFetch)
	}
	if err != nil {
		return nil, cur, nil, err
	}
	switch {
	case len(recs) == 0:
		l.shipEmptyReads.Add(1)
	case fromFile:
		l.shipFileReads.Add(1)
	default:
		l.shipTailReads.Add(1)
	}
	return recs, next, wake, nil
}

// wakeShipLocked releases whoever waits on the channel a caught-up ReadShip
// handed out. Caller holds l.mu and has just grown the durable extent.
func (l *Log) wakeShipLocked() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}
