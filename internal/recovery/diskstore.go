package recovery

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pstore/internal/store"
	"pstore/internal/wal"
)

// diskStore is the durable LogStore: command records go through the WAL's
// group commit (Append enqueues in execution order, Wait returns once the
// record's batch is fsynced), a checkpoint round's images spill to one image
// set, and Checkpoint compacts the log.
//
// Records travel by transaction *name*, not dense TxnID — handles are
// assigned in registration order and need not survive a restart. The
// id<->name catalog is resolved lazily from the engine on first use,
// because transactions are registered after the manager (and its store) is
// constructed.
type diskStore struct {
	eng *store.Engine
	log *wal.Log

	// heads is each bucket's last-assigned LSN; bases each bucket's image
	// LSN. One executor appends per bucket, but installs happen on the
	// manager goroutine, so both are atomics.
	heads []atomic.Uint64
	bases []atomic.Uint64

	// failErr latches the first fatal log error (write, fsync). The store is
	// fail-stop from then on: every Append and Wait returns it, so no
	// submitter is told a write committed, and the operator learns via Err.
	// wal.ErrSyncAborted and wal.ErrRecordRefused are never latched — they are
	// the outcome of the records a dead shipper left unconfirmed, or of one
	// record the log cannot hold, not a fault of the log.
	failMu  sync.Mutex
	failErr error

	nameOnce sync.Once
	names    []string // dense id -> name
}

func newDiskStore(eng *store.Engine, log *wal.Log, rec *wal.Recovered) *diskStore {
	buckets := eng.Config().Buckets
	s := &diskStore{
		eng:   eng,
		log:   log,
		heads: make([]atomic.Uint64, buckets),
		bases: make([]atomic.Uint64, buckets),
	}
	for b, br := range rec.Buckets {
		s.heads[b].Store(br.Head)
		s.bases[b].Store(br.Base)
	}
	return s
}

// resolve returns the name of a dense handle, snapshotting the engine's
// catalog on first use (registration is complete by the time the first
// transaction executes).
func (s *diskStore) resolve(id store.TxnID) string {
	s.nameOnce.Do(func() { s.names = s.eng.TxnNames() })
	if int(id) < 0 || int(id) >= len(s.names) {
		return ""
	}
	return s.names[id]
}

func (s *diskStore) fail(err error) {
	s.failMu.Lock()
	if s.failErr == nil {
		s.failErr = err
	}
	s.failMu.Unlock()
}

func (s *diskStore) Err() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failErr
}

func (s *diskStore) Append(bucket int, id store.TxnID, key string, args any) (uint64, error) {
	if bucket < 0 || bucket >= len(s.heads) {
		return 0, nil
	}
	if err := s.Err(); err != nil {
		return 0, err
	}
	lsn := s.heads[bucket].Add(1)
	ticket, err := s.log.Enqueue(wal.Record{
		Bucket: bucket, LSN: lsn, Txn: s.resolve(id), Key: key, Args: args,
	})
	if errors.Is(err, wal.ErrRecordRefused) {
		// The record's fault, not the log's: only its transaction fails. The
		// LSN goes back — this executor is the bucket's sole appender.
		s.heads[bucket].Add(^uint64(0))
		return 0, err
	}
	if err != nil {
		s.fail(err)
		return 0, err
	}
	return ticket, nil
}

func (s *diskStore) AppendChunk(part int, set []byte) (uint64, error) {
	if err := s.Err(); err != nil {
		return 0, err
	}
	ticket, err := s.log.EnqueueChunk(part, set)
	if errors.Is(err, wal.ErrRecordRefused) {
		return 0, err // the chunk's fault, not the log's
	}
	if err != nil {
		s.fail(err)
		return 0, err
	}
	frames, _, _ := wal.DecodeImageSet(set)
	for _, f := range frames {
		s.heads[f.Bucket].Store(f.LSN)
	}
	return ticket, nil
}

// appendFrame logs a command or chunk a primary shipped, as the frame it
// arrived in, and moves each bucket's head to the LSN its primary gave it.
func (s *diskStore) appendFrame(frame []byte) (uint64, error) {
	if err := s.Err(); err != nil {
		return 0, err
	}
	r, ticket, err := s.log.EnqueueFrame(frame)
	if err != nil {
		s.fail(err)
		return 0, err
	}
	r.EachBucket(func(b *wal.Record) { s.heads[b.Bucket].Store(b.LSN) })
	return ticket, nil
}

func (s *diskStore) Wait(ticket uint64) error {
	err := s.log.Wait(ticket)
	if err != nil && !errors.Is(err, wal.ErrSyncAborted) {
		s.fail(err)
	}
	return err
}

func (s *diskStore) Head(bucket int) uint64 {
	if bucket < 0 || bucket >= len(s.heads) {
		return 0
	}
	return s.heads[bucket].Load()
}

func (s *diskStore) Install(snaps []store.BucketSnapshot, set []byte) error {
	var err error
	if set != nil {
		err = s.log.WriteImageSet(set)
	} else {
		imgs := make([]*wal.Image, len(snaps))
		for i := range snaps {
			img := wal.Image(snaps[i])
			imgs[i] = &img
		}
		err = s.log.WriteImages(imgs)
	}
	if err != nil {
		s.fail(err)
		return err
	}
	for _, snap := range snaps {
		if snap.LSN > s.bases[snap.Bucket].Load() {
			s.bases[snap.Bucket].Store(snap.LSN)
		}
	}
	return nil
}

func (s *diskStore) Load(buckets []int) ([]store.BucketSnapshot, []store.ReplayCommand, error) {
	tails, err := s.log.LoadTails(buckets)
	if err != nil {
		return nil, nil, err
	}
	imgs, err := s.log.LoadImages(buckets)
	if err != nil {
		return nil, nil, err
	}
	var snaps []store.BucketSnapshot
	var cmds []store.ReplayCommand
	for _, b := range buckets {
		if img := imgs[b]; img != nil {
			snaps = append(snaps, store.BucketSnapshot{
				Bucket: b, Rows: img.Rows, LSN: img.LSN, Tables: img.Tables,
			})
		}
		for i := range tails[b] {
			c, err := Replay(s.eng, &tails[b][i])
			if err != nil {
				return nil, nil, err
			}
			cmds = append(cmds, c)
		}
	}
	return snaps, cmds, nil
}

// Replay turns one bucket's log record — a command, or a chunk's share of the
// bucket (wal.Record.EachBucket) — into what the engine replays: the chunk's
// image decoded, or the command's handle resolved and its args, logged as the
// JSON they were submitted in, decoded into its procedure's registered type.
// A cold start, a restore and a follower's apply all replay through it.
func Replay(eng *store.Engine, r *wal.Record) (store.ReplayCommand, error) {
	if r.IsChunk() {
		imgs, err := wal.DecodeImages(r.Images)
		if err != nil {
			return store.ReplayCommand{}, fmt.Errorf("recovery: chunk at bucket %d lsn %d: %w", r.Bucket, r.LSN, err)
		}
		return store.ReplayCommand{Bucket: r.Bucket, Chunk: imgs[0].Tables, Part: r.Part}, nil
	}
	id, ok := eng.Handle(r.Txn)
	if !ok {
		return store.ReplayCommand{}, fmt.Errorf("recovery: %w: the log names %q", store.ErrUnknownTxn, r.Txn)
	}
	raw, _ := r.Args.(json.RawMessage)
	args, err := eng.DecodeArgs(id, raw)
	if err != nil {
		return store.ReplayCommand{}, fmt.Errorf("recovery: replaying %q at bucket %d lsn %d: %w", r.Txn, r.Bucket, r.LSN, err)
	}
	return store.ReplayCommand{Bucket: r.Bucket, ID: id, Key: r.Key, Args: args}, nil
}

func (s *diskStore) LogPlan(plan []int32, active int) {
	if err := s.log.LogPlan(plan, active); err != nil {
		s.fail(err)
	}
}

func (s *diskStore) AdvanceHead(bucket int, lsn uint64) {
	if bucket < 0 || bucket >= len(s.heads) {
		return
	}
	for {
		cur := s.heads[bucket].Load()
		if lsn <= cur || s.heads[bucket].CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// reset zeroes every durability counter after a full WAL reset; the next
// baseline install re-seeds heads and bases from the primary's snapshot.
func (s *diskStore) reset() {
	for b := range s.heads {
		s.heads[b].Store(0)
		s.bases[b].Store(0)
	}
}

func (s *diskStore) Epoch() uint64           { return s.log.Epoch() }
func (s *diskStore) SetEpoch(e uint64) error { return s.log.SetEpoch(e) }

func (s *diskStore) Checkpoint() error { return s.log.Checkpoint() }
func (s *diskStore) Bytes() int64      { return s.log.DiskBytes() }
func (s *diskStore) Close() error      { return s.log.Close() }

// Records is what the log holds: per bucket, the records between its image
// and its head. A replica's baseline raises a base before the head follows
// it, and the records below it were never appended here, so a bucket whose
// head is not past its base holds none.
func (s *diskStore) Records() int64 {
	var n int64
	for b := range s.heads {
		if head, base := s.heads[b].Load(), s.bases[b].Load(); head > base {
			n += int64(head - base)
		}
	}
	return n
}
