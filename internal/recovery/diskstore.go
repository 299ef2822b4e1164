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

// appendFrame logs a command a primary shipped, as the frame it arrived in,
// and moves the bucket's head to the LSN its primary gave it.
func (s *diskStore) appendFrame(frame []byte) (uint64, error) {
	if err := s.Err(); err != nil {
		return 0, err
	}
	r, ticket, err := s.log.EnqueueFrame(frame)
	if err != nil {
		s.fail(err)
		return 0, err
	}
	s.heads[r.Bucket].Store(r.LSN)
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

func (s *diskStore) Install(snaps []store.BucketSnapshot) error {
	imgs := make([]*wal.Image, len(snaps))
	for i, snap := range snaps {
		imgs[i] = &wal.Image{Bucket: snap.Bucket, Rows: snap.Rows, LSN: snap.LSN, Tables: snap.Tables}
	}
	if err := s.log.WriteImages(imgs); err != nil {
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
		for _, r := range tails[b] {
			id, okID := s.eng.Handle(r.Txn)
			if !okID {
				return nil, nil, fmt.Errorf("recovery: log names unregistered transaction %q", r.Txn)
			}
			// The log holds args as the JSON they were submitted in; the engine's
			// decoder makes them the value the procedure asserts again.
			raw, _ := r.Args.(json.RawMessage)
			args, err := s.eng.DecodeArgs(r.Txn, raw)
			if err != nil {
				return nil, nil, fmt.Errorf("recovery: replaying %q at bucket %d lsn %d: %w", r.Txn, b, r.LSN, err)
			}
			cmds = append(cmds, store.ReplayCommand{Bucket: b, ID: id, Key: r.Key, Args: args})
		}
	}
	return snaps, cmds, nil
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

// truncate lowers the per-bucket LSN counters after the WAL discarded an
// unshipped suffix. Images are untouched — TruncateTo refuses whenever an
// image had folded a discarded record in, so bases stay below the new heads.
func (s *diskStore) truncate(res wal.TruncateResult) {
	for b, head := range res.Heads {
		if b >= 0 && b < len(s.heads) {
			s.heads[b].Store(head)
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
