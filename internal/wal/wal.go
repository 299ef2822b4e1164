// Package wal is the engine's durable storage tier: a segmented on-disk
// write-ahead log of command records plus per-bucket checkpoint images,
// written a checkpoint round at a time.
//
// The log is H-Store-style: records are procedure *inputs* (transaction
// name, key, args), appended before the procedure runs and made durable
// before the submitter is acknowledged. Durability is group commit — concurrent
// appenders encode into a shared buffer and one of them (the batch leader)
// writes and fsyncs the whole batch, so a busy log pays one sync per batch,
// not per transaction.
//
// On-disk layout under the data directory:
//
//	MANIFEST.json        store identity, geometry, last checkpointed plan
//	seg-00000001.log     CRC-framed record segments, in sequence order
//	seg-00000002.log
//	img/set-00000003.ckpt  one checkpoint round's bucket images (imageset.go)
//
// Open scans every segment, truncates a torn tail (last segment only — a
// bad frame in any earlier segment is real corruption and refuses to open),
// and returns the recovered state: the latest plan and, per bucket, its
// image LSN and command tail. Checkpoint rewrites the manifest and deletes
// segments made fully redundant by the images — the log's truncation story.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultSegmentBytes is the rotation threshold when Config leaves it zero.
const DefaultSegmentBytes = 4 << 20

// Config parameterizes Open.
type Config struct {
	// Dir is the data directory; created if missing.
	Dir string
	// Geometry is the engine shape the log serves; validated against the
	// manifest on reopen.
	Geometry Geometry
	// SegmentBytes rotates the active segment once it grows past this many
	// bytes. Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// FS substitutes the filesystem (crash-injection tests). Nil means the
	// real one.
	FS FS
}

// Stats are the log's cumulative I/O counters. Syncs much smaller than
// Appends is the group-commit effect made visible.
type Stats struct {
	// Appends counts durable record appends (commands + plan records).
	Appends int64
	// Syncs counts fsync batches on the record path.
	Syncs int64
	// Rotations counts segment rollovers.
	Rotations int64
	// CompactedSegments counts segments deleted at checkpoints.
	CompactedSegments int64
	// AppendedBytes counts framed record bytes written to segments.
	AppendedBytes int64
	// TornBytes is how many bytes the last Open truncated from a torn tail.
	TornBytes int64
	// ShipTailReads and ShipFileReads count the ReadShip calls that returned
	// records, by where the records came from: the in-memory tail, or the
	// segment files. A follower that keeps up is served from
	// the tail; file reads after its first batch mean the tail is too small
	// for its lag or was dropped by a Reset. ShipEmptyReads counts the
	// calls that found the cursor caught up — one per wake-up for a shipper
	// that waits on the log, a steady stream for one that polls.
	ShipTailReads  int64
	ShipFileReads  int64
	ShipEmptyReads int64
	// ImageSetDecodes counts image sets LoadImages read: one per set per call,
	// however many of its images the call wanted.
	ImageSetDecodes int64
}

// BucketRecovery is one bucket's state as recovered by Open; LoadTails reads
// its records back.
type BucketRecovery struct {
	// Base is the LSN covered by the bucket's checkpoint image (0 = none).
	Base uint64
	// Head is the largest LSN known for the bucket.
	Head uint64
}

// Recovered is everything Open learned from the directory.
type Recovered struct {
	// Existing reports whether the directory already held a manifest — the
	// difference between a fresh store and a restart.
	Existing bool
	// Plan is the latest recovered bucket plan (nil if none was ever
	// logged); Active and PlanSeq accompany it.
	Plan    []int32
	Active  int
	PlanSeq uint64
	// Buckets maps bucket id to its recovered state; buckets with no image
	// and no records are absent.
	Buckets map[int]*BucketRecovery
	// TornBytes is how many trailing bytes were discarded as torn.
	TornBytes int64
	// SegmentBytes is the total size of the recovered segments — the
	// on-disk log volume a cold start must scan.
	SegmentBytes int64
}

// segment is one sealed (immutable) segment's compaction bookkeeping.
type segment struct {
	name       string
	seq        int
	size       int64
	recs       int            // record count; ship cursors address (seq, rec)
	maxLSN     map[int]uint64 // bucket -> largest LSN in this segment
	maxPlanSeq uint64
	// ackBase maps a ship cursor into this segment onto the append-sequence
	// space: record k of the segment is append sequence ackBase+k. Segments
	// recovered from a previous life carry -1 — none of their records were
	// appended (or awaited) in this life.
	ackBase int64
}

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	cfg Config
	fs  FS
	dir string

	mu   sync.Mutex
	cond *sync.Cond
	// buf accumulates framed-but-not-yet-durable bytes.
	buf []byte
	// appendSeq numbers encoded records (a record's number is its commit
	// ticket); syncedSeq is the largest sequence made durable. Wait blocks
	// until its ticket's sequence is synced, electing itself leader if no
	// sync is in flight.
	appendSeq, syncedSeq uint64
	syncing              bool
	err                  error // first fatal I/O error; latched

	active      File
	activeName  string
	activeSeq   int
	activeSize  int64          // durable bytes in the active segment
	activeEnc   int64          // bytes framed into the active segment, durable or not
	activeRecs  int            // records encoded into the active segment
	durableRecs int            // records durable in the active segment
	activeMax   map[int]uint64 // active segment's bucket -> max LSN
	activePlan  uint64         // active segment's max plan seq

	segs []segment // sealed segments, oldest first

	// images maps a bucket to its current image — whose LSN is the bucket's
	// base — and setLive an image set to how many current images it holds
	// (0 = retired, about to be deleted); both under mu. imgMu orders set writes, which hold it across their one
	// fsync and take mu only to publish, against each other and against set
	// reads; setSeq, under it, is the last set sequence used.
	images  map[int]imageRef
	setLive map[int]int
	imgMu   sync.RWMutex
	setSeq  int

	planSeq         uint64
	lastPlan        []int32
	lastActive      int
	manifestPlanSeq uint64

	// epoch is the replication fencing term (persisted in the manifest);
	// shipPin, when non-zero, keeps segments with seq >= shipPin out of
	// compaction so a follower's unacked records stay shippable.
	epoch   uint64
	shipPin int

	// tail is the in-memory ship tail: the frames of the last shipTailBytes to
	// 2*shipTailBytes (tailBytes counts them) enqueued records, contiguous up
	// to the newest, addressed by ship cursor. wake, when non-nil, is the
	// channel a caught-up ReadShip handed out; the next group-commit leader
	// closes it.
	tail      []tailRec
	tailBytes int
	wake      chan struct{}

	// Synchronous commit: when armed, Wait also blocks until the follower's
	// acknowledged cursor covers the record (remoteAckSeq, in append-sequence
	// space). activeAckBase is appendSeq at the moment the active segment
	// opened, so a ship cursor into it maps onto append sequences.
	syncCommit    bool
	remoteAckSeq  uint64
	activeAckBase uint64
	// (discardLo, discardHi] is the append-sequence window whose un-acked
	// waiters must fail instead of ack: their records were reset away or
	// their shipper died before the follower confirmed them.
	discardLo, discardHi uint64

	appends   atomic.Int64
	diskBytes atomic.Int64 // durable segment bytes; kept lock-free for stats
	syncs     atomic.Int64
	rotations atomic.Int64
	compacted atomic.Int64
	appBytes  atomic.Int64
	tornBytes int64

	shipTailReads, shipFileReads, shipEmptyReads atomic.Int64
	setDecodes                                   atomic.Int64

	closed bool
}

// Open opens (or creates) a log directory, recovers its contents, and
// leaves the log ready for appends on a fresh segment.
func Open(cfg Config) (*Log, *Recovered, error) {
	if cfg.Dir == "" {
		return nil, nil, errors.New("wal: Config.Dir is required")
	}
	g := cfg.Geometry
	if g.Buckets <= 0 || g.MaxMachines <= 0 || g.PartitionsPerMachine <= 0 {
		return nil, nil, fmt.Errorf("wal: invalid geometry %+v", g)
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	l := &Log{cfg: cfg, fs: cfg.FS, dir: cfg.Dir,
		images: make(map[int]imageRef), setLive: make(map[int]int)}
	if l.fs == nil {
		l.fs = OSFS{}
	}
	l.cond = sync.NewCond(&l.mu)
	if err := l.fs.MkdirAll(l.dir); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", l.dir, err)
	}
	if err := l.fs.MkdirAll(filepath.Join(l.dir, imgDirName)); err != nil {
		return nil, nil, err
	}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := l.openActive(); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// recover loads the manifest, image-set headers, and every segment, rebuilding
// the log's in-memory indexes and the caller's Recovered view.
func (l *Log) recover() (*Recovered, error) {
	rec := &Recovered{Buckets: make(map[int]*BucketRecovery)}

	// Manifest: identity or creation.
	mpath := filepath.Join(l.dir, manifestName)
	if data, err := readAll(l.fs, mpath); err == nil {
		m, err := DecodeManifest(data)
		if err != nil {
			return nil, err
		}
		if m.Geometry != l.cfg.Geometry {
			return nil, fmt.Errorf("wal: %s was created for geometry %+v, engine has %+v",
				l.dir, m.Geometry, l.cfg.Geometry)
		}
		rec.Existing = true
		rec.Plan, rec.Active, rec.PlanSeq = m.Plan, m.Active, m.PlanSeq
		l.planSeq, l.manifestPlanSeq = m.PlanSeq, m.PlanSeq
		l.lastPlan, l.lastActive = m.Plan, m.Active
		l.epoch = m.Epoch
	} else if errors.Is(err, os.ErrNotExist) {
		if err := l.writeManifest(); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("wal: reading manifest: %w", err)
	}

	// Leftover temp files from an interrupted atomic write are garbage.
	for _, sub := range []string{l.dir, filepath.Join(l.dir, imgDirName)} {
		names, err := l.fs.ReadDir(sub)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			if strings.HasSuffix(n, ".tmp") {
				if err := l.fs.Remove(filepath.Join(sub, n)); err != nil {
					return nil, err
				}
			}
		}
	}

	// Image headers establish each bucket's base LSN.
	if err := l.recoverImages(rec); err != nil {
		return nil, err
	}

	// Segments, in sequence order.
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, n := range names {
		var seq int
		if _, err := fmt.Sscanf(n, "seg-%08d.log", &seq); err == nil && segName(seq) == n {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	for i, seq := range seqs {
		path := filepath.Join(l.dir, segName(seq))
		data, err := readAll(l.fs, path)
		if err != nil {
			return nil, err
		}
		seg := segment{name: segName(seq), seq: seq, maxLSN: make(map[int]uint64), ackBase: -1}
		var rangeErr error
		valid, derr := scanSegment(data, func(r *Record, _ int64) {
			seg.recs++
			if r.IsPlan() {
				if r.PlanSeq > seg.maxPlanSeq {
					seg.maxPlanSeq = r.PlanSeq
				}
				if r.PlanSeq > l.planSeq {
					l.planSeq = r.PlanSeq
					l.lastPlan, l.lastActive = r.Plan, r.Active
					rec.Plan, rec.Active, rec.PlanSeq = r.Plan, r.Active, r.PlanSeq
				}
				return
			}
			r.EachBucket(func(r *Record) {
				b := r.Bucket
				if b >= l.cfg.Geometry.Buckets {
					rangeErr = fmt.Errorf("wal: segment %s names bucket %d out of range", path, b)
					return
				}
				seg.maxLSN[b] = max(seg.maxLSN[b], r.LSN)
				br := rec.Buckets[b]
				if br == nil {
					br = &BucketRecovery{}
					rec.Buckets[b] = br
				}
				br.Head = max(br.Head, r.LSN)
			})
		})
		if rangeErr != nil {
			return nil, rangeErr
		}
		if derr != nil {
			if i != len(seqs)-1 {
				// Only the final segment may have a torn tail; damage in the
				// middle of the log is corruption, not a crash artifact.
				return nil, fmt.Errorf("wal: segment %s is corrupt mid-log: %w", path, derr)
			}
			// Truncate the torn tail by rewriting the valid prefix
			// atomically, so every future open sees a clean segment.
			if err := writeFileAtomic(l.fs, path, data[:valid]); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
			l.tornBytes = int64(len(data)) - valid
			rec.TornBytes = l.tornBytes
		}
		seg.size = valid
		l.segs = append(l.segs, seg)
		rec.SegmentBytes += seg.size
		l.activeSeq = seq
	}
	l.diskBytes.Store(rec.SegmentBytes)
	return rec, nil
}

// openActive starts a fresh segment for appends. Appends never extend a
// recovered segment: none of its records were enqueued in this life, which is
// what its ackBase of -1 says of the whole segment.
func (l *Log) openActive() error {
	l.activeSeq++
	l.activeName = segName(l.activeSeq)
	f, err := l.fs.Create(filepath.Join(l.dir, l.activeName))
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", l.activeName, err)
	}
	l.active = f
	l.activeSize = 0
	l.activeEnc = 0
	l.activeRecs = 0
	l.durableRecs = 0
	l.activeMax = make(map[int]uint64)
	l.activePlan = 0
	l.activeAckBase = l.appendSeq
	return nil
}

func segName(seq int) string { return fmt.Sprintf("seg-%08d.log", seq) }

// errClosed fails appends to, and waits on, a log that has been closed.
var errClosed = errors.New("wal: log is closed")

// Append makes one command record durable: Enqueue, then Wait. It returns
// once the record (and every record enqueued before it) has been fsynced
// and, with the sync-commit barrier armed, acknowledged by the follower.
func (l *Log) Append(r Record) error {
	seq, err := l.Enqueue(r)
	if err != nil {
		return err
	}
	return l.Wait(seq)
}

// Enqueue encodes one command record into the group-commit buffer and
// returns its commit ticket without waiting for any I/O. Records reach the
// disk in Enqueue order, so a caller that must fix an order (a partition
// executor logging in execution order) fixes it here and can leave the
// waiting to someone else. The record is not durable, and nobody may be told
// it committed, until Wait on the ticket returns nil.
//
// The record is encoded here, once and before the lock is taken, so it is the
// value the caller passed whatever happens to that value afterwards.
func (l *Log) Enqueue(r Record) (uint64, error) {
	if r.Bucket < 0 || r.Bucket >= l.cfg.Geometry.Buckets {
		return 0, fmt.Errorf("wal: append to bucket %d out of range", r.Bucket)
	}
	r.PlanSeq = 0 // a command, whatever else the caller filled in
	frame, err := appendRecord(nil, &r)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.enqueueLocked(frame, &r)
}

// EnqueueFrame is Enqueue for a command or chunk that arrives encoded — a
// record a primary shipped. The frame is decoded for the log's own bookkeeping
// (one that is not exactly one such record of this log's bucket space is
// refused) and those bytes are what the segment gets, so the follower's copy
// of the record is the primary's. It returns the record the frame carried.
func (l *Log) EnqueueFrame(frame []byte) (Record, uint64, error) {
	r, n, err := DecodeRecord(frame)
	ok := err == nil && n == len(frame) && !r.IsPlan()
	r.EachBucket(func(b *Record) { ok = ok && b.Bucket < l.cfg.Geometry.Buckets })
	if err == nil && !ok {
		err = fmt.Errorf("not one command or chunk record of %d buckets", l.cfg.Geometry.Buckets)
	}
	if err != nil {
		return r, 0, fmt.Errorf("wal: refusing shipped frame: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, err := l.enqueueLocked(frame, &r)
	return r, seq, err
}

// EnqueueChunk logs a migrated chunk installed into partition part. set is the
// chunk's image set, each frame stamped with the LSN the chunk takes in its
// bucket's log. The frames are cut, in order and at frame boundaries, into as
// few chunk records as MaxRecordBytes allows, and enqueued back to back; it
// returns the last one's ticket. A set that does not walk cleanly, a bucket out
// of range, or a frame no record can hold refuses the whole chunk with
// ErrRecordRefused, before anything is enqueued.
func (l *Log) EnqueueChunk(part int, set []byte) (uint64, error) {
	frames, _, err := DecodeImageSet(set)
	if err == nil && part < 0 {
		err = fmt.Errorf("partition %d", part)
	}
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrRecordRefused, err)
	}
	// A cut appendRecord refuses holds a frame that fits no record.
	var recs []Record
	var encoded [][]byte
	cut := func(from, to int64) error {
		r := Record{Part: part, Images: set[from:to]}
		frame, err := appendRecord(nil, &r)
		recs, encoded = append(recs, r), append(encoded, frame)
		return err
	}
	from := int64(0)
	for _, f := range frames {
		if f.Bucket >= l.cfg.Geometry.Buckets {
			return 0, fmt.Errorf("%w: chunk names bucket %d out of range", ErrRecordRefused, f.Bucket)
		}
		if chunkHeaderSize+f.Off+int64(f.Size)-from > MaxRecordBytes && f.Off > from {
			if err := cut(from, f.Off); err != nil {
				return 0, err
			}
			from = f.Off
		}
	}
	if len(frames) > 0 {
		if err := cut(from, int64(len(set))); err != nil {
			return 0, err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var seq uint64
	for i := range recs {
		if seq, err = l.enqueueLocked(encoded[i], &recs[i]); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// LogPlan makes a bucket-plan change durable: the full plan and active
// machine count, stamped with the next plan sequence number.
func (l *Log) LogPlan(plan []int32, active int) error {
	if len(plan) != l.cfg.Geometry.Buckets {
		return fmt.Errorf("wal: plan covers %d buckets, want %d", len(plan), l.cfg.Geometry.Buckets)
	}
	l.mu.Lock()
	l.rotateIfFullLocked() // first: it may let another plan change in
	r := Record{PlanSeq: l.planSeq + 1, Plan: append([]int32(nil), plan...), Active: active}
	frame, err := appendRecord(nil, &r)
	var seq uint64
	if err == nil {
		seq, err = l.enqueueLocked(frame, &r)
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.Wait(seq)
}

// enqueueLocked places r's frame in the group-commit buffer and on the ship
// tail and returns its append sequence — the ticket Wait takes. It never
// blocks on I/O except to rotate a full segment. Caller holds l.mu.
func (l *Log) enqueueLocked(frame []byte, r *Record) (uint64, error) {
	l.rotateIfFullLocked()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, errClosed
	}
	if r.IsPlan() {
		l.planSeq = r.PlanSeq
		l.lastPlan, l.lastActive = r.Plan, r.Active
		l.activePlan = r.PlanSeq
	} else {
		r.EachBucket(func(b *Record) { l.activeMax[b.Bucket] = max(l.activeMax[b.Bucket], b.LSN) })
	}
	l.buf = append(l.buf, frame...)
	l.activeEnc += int64(len(frame))
	l.pushTailLocked(frame)
	l.appendSeq++
	l.activeRecs++
	l.appends.Add(1)
	return l.appendSeq, nil
}

// Wait blocks until the record behind a ticket from Enqueue is durable —
// fsynced, and acknowledged by the follower while the sync-commit barrier
// is armed — or can no longer become so. Whoever waits and finds no sync in
// flight leads one: it writes and syncs everything buffered so far outside
// the lock, then wakes the rest, so concurrent waiters share sync batches.
// Ticket 0 (no record) is durable by definition.
func (l *Log) Wait(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.appendSeq {
		return fmt.Errorf("wal: wait on ticket %d, only %d records enqueued", seq, l.appendSeq)
	}
	for l.syncedSeq < seq && l.err == nil {
		if l.closed {
			return errClosed
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncLocked()
	}
	// Synchronous commit: the record is durable here; with the barrier armed,
	// also wait until the follower's ack covers it. The whole fsync batch
	// ships as (at most) one batch and is released by one ack, so the round
	// trip amortizes exactly like the fsync does. A record enqueued before
	// an abort and never acknowledged fails whenever its waiter gets here,
	// even after the barrier was disarmed; otherwise disarming releases
	// waiters to local durability.
	for l.err == nil && l.remoteAckSeq < seq {
		if seq > l.discardLo && seq <= l.discardHi {
			return ErrSyncAborted
		}
		if !l.syncCommit {
			break
		}
		if l.closed {
			return errors.New("wal: log closed before the follower acknowledged the record")
		}
		l.cond.Wait()
	}
	return l.err
}

// rotateIfFullLocked rotates at the first record boundary past the
// threshold, so a sealed segment is at most SegmentBytes plus the one record
// that crossed it. What is buffered belongs to the active segment, and a sync
// in flight writes to its file: both finish first — the caller leads the sync
// if nobody else does, since the buffered records' waiters may include itself.
// The lock is released meanwhile. Caller holds l.mu.
func (l *Log) rotateIfFullLocked() {
	for l.err == nil && !l.closed && l.activeEnc >= l.cfg.SegmentBytes {
		switch {
		case l.syncing:
			l.cond.Wait()
		case len(l.buf) > 0:
			l.syncLocked()
		default:
			if err := l.rotateLocked(); err != nil {
				l.err = err
				l.cond.Broadcast()
			}
		}
	}
}

// syncLocked makes its caller the batch leader: it writes and syncs
// everything buffered, outside the lock, then wakes every waiter. Caller holds
// l.mu with no sync in flight.
func (l *Log) syncLocked() {
	l.syncing = true
	batch := l.buf
	l.buf = nil
	target := l.appendSeq
	targetRecs := l.activeRecs
	file := l.active
	l.mu.Unlock()

	var werr error
	if _, err := file.Write(batch); err != nil {
		werr = fmt.Errorf("wal: writing segment %s: %w", l.activeName, err)
	} else if err := file.Sync(); err != nil {
		werr = fmt.Errorf("wal: syncing segment %s: %w", l.activeName, err)
	}

	l.mu.Lock()
	l.syncing = false
	if werr != nil {
		l.err = werr
	} else {
		l.syncedSeq = target
		l.activeSize += int64(len(batch))
		l.durableRecs = targetRecs
		l.syncs.Add(1)
		l.appBytes.Add(int64(len(batch)))
		l.diskBytes.Add(int64(len(batch)))
		l.wakeShipLocked()
	}
	l.cond.Broadcast()
}

// rotateLocked seals the active segment and opens the next one. Caller
// holds l.mu with an empty buffer and no sync in flight, so every byte of
// the active segment is durable.
func (l *Log) rotateLocked() error {
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: closing segment %s: %w", l.activeName, err)
	}
	l.segs = append(l.segs, segment{
		name: l.activeName, seq: l.activeSeq, size: l.activeSize, recs: l.durableRecs,
		maxLSN: l.activeMax, maxPlanSeq: l.activePlan, ackBase: int64(l.activeAckBase),
	})
	l.rotations.Add(1)
	return l.openActive()
}

// LoadTails re-reads the durable log and returns, for each requested
// bucket, its records beyond the bucket's base LSN, in order. This is the
// restore path's authoritative read: it scans the segment files, not any
// in-memory copy. Records buffered but not yet synced are invisible — they
// are not durable, and their submitters have not been acknowledged.
func (l *Log) LoadTails(buckets []int) (map[int][]Record, error) {
	want := make(map[int]bool, len(buckets))
	for _, b := range buckets {
		want[b] = true
	}
	// Snapshot the durable extent under the lock; reads happen outside it.
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return nil, err
	}
	exts := l.shipExtentsLocked()
	bases := make(map[int]uint64, len(want))
	for b := range want {
		bases[b] = l.baseLocked(b)
	}
	l.mu.Unlock()

	out := make(map[int][]Record)
	for _, e := range exts {
		if e.size == 0 {
			continue
		}
		data, err := l.readExtent(e.name, e.size)
		if err != nil {
			return nil, err
		}
		if _, derr := scanSegment(data, func(r *Record, _ int64) {
			r.EachBucket(func(r *Record) {
				if b := r.Bucket; want[b] && r.LSN > bases[b] {
					out[b] = append(out[b], *r)
				}
			})
		}); derr != nil && int64(len(data)) == e.size {
			// The durable extent must decode cleanly; a scan error inside it
			// is corruption.
			return nil, fmt.Errorf("wal: segment %s: %w", e.name, derr)
		}
	}
	return out, nil
}

// readExtent reads a segment file up to size, its durable extent as it was
// snapshotted under the lock: bytes synced since are ignored.
func (l *Log) readExtent(name string, size int64) ([]byte, error) {
	data, err := readAll(l.fs, filepath.Join(l.dir, name))
	if err == nil && int64(len(data)) > size {
		data = data[:size]
	}
	return data, err
}

// Checkpoint folds the current plan into the manifest and deletes every
// sealed segment whose records are all covered — command records at or
// below their bucket's image LSN, plan records at or below the manifest's
// plan sequence. Call it after a checkpoint round has written its images.
func (l *Log) Checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if err := l.writeManifest(); err != nil {
		return err
	}
	l.manifestPlanSeq = l.planSeq
	kept := l.segs[:0]
	for _, s := range l.segs {
		if l.segCoveredLocked(&s) {
			if err := l.fs.Remove(filepath.Join(l.dir, s.name)); err != nil {
				return fmt.Errorf("wal: compacting %s: %w", s.name, err)
			}
			l.compacted.Add(1)
			l.diskBytes.Add(-s.size)
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	return nil
}

// segCoveredLocked reports whether a sealed segment carries any record the
// recovery path could still need.
func (l *Log) segCoveredLocked(s *segment) bool {
	if l.shipPin > 0 && s.seq >= l.shipPin {
		// A follower has not acknowledged this segment's records yet;
		// compacting it would force a full resync.
		return false
	}
	if s.maxPlanSeq > l.manifestPlanSeq {
		return false
	}
	for b, lsn := range s.maxLSN {
		if lsn > l.baseLocked(b) {
			return false
		}
	}
	return true
}

// writeManifest rewrites the manifest with the current identity and plan.
// Caller holds l.mu (or is still single-threaded in Open).
func (l *Log) writeManifest() error {
	m := &Manifest{
		Version:  manifestVersion,
		Geometry: l.cfg.Geometry,
		PlanSeq:  l.planSeq,
		Plan:     l.lastPlan,
		Active:   l.lastActive,
		Epoch:    l.epoch,
	}
	data, err := encodeManifest(m)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(l.fs, filepath.Join(l.dir, manifestName), data); err != nil {
		return fmt.Errorf("wal: writing manifest: %w", err)
	}
	return nil
}

// DiskBytes returns the durable log volume: segment bytes a cold start
// would scan (images excluded). Lock-free — stats readers never contend
// with the append path.
func (l *Log) DiskBytes() int64 { return l.diskBytes.Load() }

// AppendedBytes returns the framed record bytes made durable since Open,
// ActiveStart what it was when the active segment opened, and SegmentBytes the
// rotation threshold in force.
func (l *Log) AppendedBytes() int64 { return l.appBytes.Load() }
func (l *Log) SegmentBytes() int64  { return l.cfg.SegmentBytes }
func (l *Log) ActiveStart() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appBytes.Load() - l.activeSize
}

// Stats snapshots the log's cumulative counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	torn := l.tornBytes
	l.mu.Unlock()
	return Stats{
		Appends:           l.appends.Load(),
		Syncs:             l.syncs.Load(),
		Rotations:         l.rotations.Load(),
		CompactedSegments: l.compacted.Load(),
		AppendedBytes:     l.appBytes.Load(),
		TornBytes:         torn,
		ShipTailReads:     l.shipTailReads.Load(),
		ShipFileReads:     l.shipFileReads.Load(),
		ShipEmptyReads:    l.shipEmptyReads.Load(),
		ImageSetDecodes:   l.setDecodes.Load(),
	}
}

// Close flushes nothing (everything acknowledged is already durable) and
// releases the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.cond.Broadcast() // release sync-commit waiters; durability is local-only now
	if l.active != nil {
		return l.active.Close()
	}
	return nil
}
