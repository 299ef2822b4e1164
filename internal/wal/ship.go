package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
)

// WAL shipping: a primary streams its durable record stream — commands and
// plan records alike — to a follower by cursor. A cursor addresses a point
// in the stream as (segment sequence, records consumed within it). The most
// recent records are kept in memory in ship form (the tail), and a cursor
// inside the tail is served from it; segments are single gob streams, so a
// cursor older than the tail costs a decode of its segment from byte zero
// with the consumed prefix skipped. The byte offset rides along purely for
// lag accounting.
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

// ShipCursor addresses a point in the durable record stream.
type ShipCursor struct {
	// Seg is the segment sequence number (1-based; 0 means "start of log").
	Seg int
	// Rec is how many records of the segment are already consumed.
	Rec int
	// Off is the byte offset after the consumed records, for lag accounting.
	Off int64
}

// ShipRecord is one shipped record: either a command (Txn != "") or a plan
// change (PlanSeq > 0) — the same union a segment stores.
type ShipRecord struct {
	// Command fields.
	Bucket int
	LSN    uint64
	Txn    string
	Key    string
	// Args is the ship encoding of the procedure's args (see shipArgs), nil
	// when it took none.
	Args json.RawMessage
	// Plan fields.
	PlanSeq uint64
	Plan    []int32
	Active  int
}

// IsPlan reports whether the record is a plan change.
func (r *ShipRecord) IsPlan() bool { return r.PlanSeq > 0 }

// ShipEnd returns the cursor addressing the durable end of the log: shipping
// from here yields nothing until new records are appended. Taken before a
// snapshot, it bounds exactly what the snapshot may already include.
func (l *Log) ShipEnd() ShipCursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ShipCursor{Seg: l.activeSeq, Rec: l.durableRecs, Off: l.activeSize}
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

// ShipLag returns how many durable log bytes lie beyond the cursor — the
// follower's replication lag in bytes.
func (l *Log) ShipLag(cur ShipCursor) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var lag int64
	for _, s := range l.segs {
		if s.seq > cur.Seg {
			lag += s.size
		} else if s.seq == cur.Seg {
			lag += s.size - cur.Off
		}
	}
	if l.activeSeq > cur.Seg {
		lag += l.activeSize
	} else if l.activeSeq == cur.Seg {
		lag += l.activeSize - cur.Off
	}
	if lag < 0 {
		lag = 0
	}
	return lag
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

// shipTailRecords sizes the in-memory ship tail: the most recent records the
// log keeps in ship form so a follower that is keeping up never makes the
// primary open a file. Records are procedure inputs (a few hundred bytes), so
// the tail is a few megabytes at most; it holds between one and two times
// this many records.
const shipTailRecords = 4096

// tailRec is one record of the ship tail: record idx (0-based) of segment
// seg, the byte offset after its frame within that segment, and the record
// in ship form. Nothing in it changes after enqueue — the args were encoded
// from the submitter's value before the procedure ran — so what a reader
// gets is what the segment holds whatever the procedure did to its input
// afterwards.
type tailRec struct {
	seg, idx int
	end      int64
	rec      ShipRecord
}

// shipArgs is the ship encoding of a command's args: JSON, the
// representation a client request used, so the follower's registered codec
// decodes them identically. Nil args ship as no args at all.
func shipArgs(args any) (json.RawMessage, error) {
	if args == nil {
		return nil, nil
	}
	raw, err := json.Marshal(args)
	if err != nil {
		return nil, fmt.Errorf("wal: encoding args for shipping: %w", err)
	}
	return raw, nil
}

// shipRecordOf is a segment record in ship form; args is its args' ship
// encoding.
func shipRecordOf(sr *segRecord, args json.RawMessage) ShipRecord {
	if sr.Kind == recPlan {
		return ShipRecord{PlanSeq: sr.PlanSeq, Plan: sr.Plan, Active: int(sr.Active)}
	}
	return ShipRecord{Bucket: int(sr.Bucket), LSN: sr.LSN, Txn: sr.Txn, Key: sr.Key, Args: args}
}

// pushTailLocked adds the record just framed into the active segment to the
// ship tail, dropping the oldest half once the tail holds twice its size.
// Caller holds l.mu and has not yet counted the record in activeRecs.
func (l *Log) pushTailLocked(rec ShipRecord) {
	l.tail = append(l.tail, tailRec{seg: l.activeSeq, idx: l.activeRecs, end: l.activeEnc, rec: rec})
	if len(l.tail) >= 2*l.tailCap {
		n := copy(l.tail, l.tail[len(l.tail)-l.tailCap:])
		clear(l.tail[n:])
		l.tail = l.tail[:n]
	}
}

// dropTailLocked empties the ship tail: the segments it mirrored were cut or
// deleted, and the stream restarts from the files. Caller holds l.mu.
func (l *Log) dropTailLocked() {
	clear(l.tail)
	l.tail = l.tail[:0]
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

// shipFetch appends records [from, to) of one segment to dst in ship form and
// returns the byte offset after the last of them.
type shipFetch func(dst []ShipRecord, e shipExt, from, to int) ([]ShipRecord, int64, error)

// errTailMiss is tailFetchLocked's answer for records older than the tail.
var errTailMiss = errors.New("wal: ship cursor is older than the in-memory tail")

// tailFetchLocked serves a segment's records from the ship tail. The tail is
// contiguous up to the last enqueued record, so it holds either all of
// [from, to) or not its first record. Caller holds l.mu.
func (l *Log) tailFetchLocked(dst []ShipRecord, e shipExt, from, to int) ([]ShipRecord, int64, error) {
	i := sort.Search(len(l.tail), func(k int) bool {
		t := &l.tail[k]
		return t.seg > e.seq || (t.seg == e.seq && t.idx >= from)
	})
	last := i + (to - from) - 1
	if last >= len(l.tail) || l.tail[i].seg != e.seq || l.tail[i].idx != from {
		return dst, 0, errTailMiss
	}
	for k := i; k <= last; k++ {
		dst = append(dst, l.tail[k].rec)
	}
	return dst, l.tail[last].end, nil
}

// fileFetch serves a segment's records from its file. A segment is one gob
// stream, so this decodes it from byte zero whatever the range: the cost the
// tail exists to keep off the steady-state path.
func (l *Log) fileFetch(dst []ShipRecord, e shipExt, from, to int) ([]ShipRecord, int64, error) {
	data, err := readAll(l.fs, filepath.Join(l.dir, e.name))
	if err != nil {
		return dst, 0, err
	}
	if int64(len(data)) > e.size {
		data = data[:e.size] // ignore bytes synced after the snapshot
	}
	srs, _, derr := decodeSegRecords(data)
	if len(srs) < e.recs {
		// The snapshotted durable extent must decode cleanly.
		if derr == nil {
			derr = fmt.Errorf("holds %d records, expected %d", len(srs), e.recs)
		}
		return dst, 0, fmt.Errorf("wal: ship read of %s: %w", e.name, derr)
	}
	for k := from; k < to; k++ {
		args, err := shipArgs(srs[k].Args)
		if err != nil {
			return dst, 0, err
		}
		dst = append(dst, shipRecordOf(&srs[k], args))
	}
	return dst, frameEnd(data, to), nil
}

// walkShip is the one cursor walk behind ReadShip: from cur, across segment
// boundaries, up to maxRecords records or the durable end of exts, taking
// each segment's records from fetch. Whatever fetch reads from, the batch
// boundaries and the returned cursor are the same.
func walkShip(exts []shipExt, cur ShipCursor, maxRecords int, fetch shipFetch) ([]ShipRecord, ShipCursor, error) {
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
	var out []ShipRecord
	for ; i < len(exts); i++ {
		e := exts[i]
		if cur.Rec > e.recs {
			return nil, cur, fmt.Errorf("wal: ship cursor %d records into segment %d, which holds %d", cur.Rec, e.seq, e.recs)
		}
		if cur.Rec < e.recs {
			end := min(e.recs, cur.Rec+maxRecords-len(out))
			var err error
			if out, cur.Off, err = fetch(out, e, cur.Rec, end); err != nil {
				return nil, cur, err
			}
			cur.Rec = end
			if len(out) >= maxRecords {
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

// ReadShip returns up to maxRecords durable records beyond the cursor, in
// log order, and the cursor addressing the position after them. A cursor
// inside the in-memory tail — any follower that is keeping up — is answered
// from it under the lock, with no file opened and nothing decoded. An older
// cursor (a restart, a rewind after a gap ack, a follower far behind) falls
// back to the segment files: like LoadTails it reads them outside the lock,
// against the durable extent snapshotted under it, so it never blocks the
// append path for the duration of the I/O.
//
// An empty result with a nil error means the cursor is caught up, and comes
// with a channel that is closed once the durable extent has grown. The
// channel is taken under the same lock as the extent, so a record made
// durable between the read and the wait is never slept through.
func (l *Log) ReadShip(cur ShipCursor, maxRecords int) ([]ShipRecord, ShipCursor, <-chan struct{}, error) {
	if maxRecords <= 0 {
		maxRecords = 512
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

// frameEnd returns the byte offset after the first n frames of a segment.
// The caller has already decoded at least n records, so the headers are
// known-valid.
func frameEnd(data []byte, n int) int64 {
	off := int64(0)
	for k := 0; k < n; k++ {
		length := binary.BigEndian.Uint32(data[off : off+4])
		off += frameHeaderSize + int64(length)
	}
	return off
}
