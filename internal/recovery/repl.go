package recovery

import (
	"errors"
	"fmt"

	"pstore/internal/store"
	"pstore/internal/wal"
)

// Replication surface: the Manager exposes the durable WAL's ship plane
// (cursor reads, retention pinning, lag) and the epoch/baseline state the
// ship protocol is fenced with. Shipping requires a durable store — a
// memory-backed manager has no byte-addressable record stream to ship.

// ErrNotDurable is returned by ship operations on a memory-backed manager.
var ErrNotDurable = errors.New("recovery: replication requires a durable store (-data-dir)")

// Durable reports whether the manager has an on-disk WAL to ship from.
func (m *Manager) Durable() bool { return m.wal != nil }

// Epoch returns the replication fencing term.
func (m *Manager) Epoch() uint64 { return m.log.Epoch() }

// SetEpoch raises the fencing term (persisted in the WAL manifest for a
// durable store). Lowering it is an error — that is the zombie case.
func (m *Manager) SetEpoch(e uint64) error { return m.log.SetEpoch(e) }

// BaselineSeq returns the out-of-WAL install counter ship batches carry.
func (m *Manager) BaselineSeq() uint64 { return m.baseline.Load() }

// PlanSeq returns the WAL's current plan sequence (0 when not durable) —
// the skip threshold a freshly synced follower applies to shipped plan
// records.
func (m *Manager) PlanSeq() uint64 {
	if m.wal == nil {
		return 0
	}
	return m.wal.PlanSeq()
}

// ShipEnd returns the cursor addressing the durable end of the WAL.
func (m *Manager) ShipEnd() (wal.ShipCursor, error) {
	if m.wal == nil {
		return wal.ShipCursor{}, ErrNotDurable
	}
	return m.wal.ShipEnd(), nil
}

// ReadShip returns the frames of up to max durable records beyond the cursor
// (as many as fit one ship batch) and the cursor after them; a caught-up
// cursor gets none and a channel that is closed when the log next grows.
// wal.ErrShipGone means the cursor's records were compacted and the follower
// must full-resync.
func (m *Manager) ReadShip(cur wal.ShipCursor, max int) ([][]byte, wal.ShipCursor, <-chan struct{}, error) {
	if m.wal == nil {
		return nil, cur, nil, ErrNotDurable
	}
	return m.wal.ReadShip(cur, max)
}

// AppendShipped is AppendCommand on a follower: it logs a command record the
// primary shipped, in the frame it arrived in, under the LSN the primary gave
// it. The caller has checked that the LSN continues the bucket's log.
func (m *Manager) AppendShipped(frame []byte) (uint64, error) {
	ds, ok := m.log.(*diskStore)
	if !ok {
		return 0, ErrNotDurable
	}
	return ds.appendFrame(frame)
}

// WALStats returns the durable log's I/O and ship-read counters (zero when
// not durable).
func (m *Manager) WALStats() wal.Stats {
	if m.wal == nil {
		return wal.Stats{}
	}
	return m.wal.Stats()
}

// ShipLag returns the durable bytes beyond the cursor.
func (m *Manager) ShipLag(cur wal.ShipCursor) int64 {
	if m.wal == nil {
		return 0
	}
	return m.wal.ShipLag(cur)
}

// PinShip protects segments at or beyond seg from compaction while a
// follower catches up. seg <= 0 clears the pin.
func (m *Manager) PinShip(seg int) {
	if m.wal != nil {
		m.wal.PinShip(seg)
	}
}

// TruncateShip discards the durable suffix past the divergence cursor — the
// records a fenced ex-primary acked under its old term that the promoted
// follower never saw — and lowers the per-bucket LSN counters to match, so
// shipped records applied afterwards continue the survivor's numbering.
// wal.ErrNeedResync means surgical truncation would leave an inconsistent
// prefix and the caller must ResetReplica + full-resync instead.
func (m *Manager) TruncateShip(cur wal.ShipCursor) (wal.TruncateResult, error) {
	if m.wal == nil {
		return wal.TruncateResult{}, ErrNotDurable
	}
	res, err := m.wal.TruncateTo(cur)
	if err != nil {
		return res, err
	}
	if ds, ok := m.log.(*diskStore); ok {
		ds.truncate(res)
	}
	return res, nil
}

// ResetReplica wipes the durable record stream and every checkpoint image,
// keeping the log's identity (manifest, epoch). A replica must call this
// before installing a full snapshot baseline over a non-empty data dir:
// without it, diverged records above the incoming images' LSNs would replay
// on a future cold start, and stale high LSN heads would break ship dedup.
func (m *Manager) ResetReplica() error {
	if m.wal == nil {
		return ErrNotDurable
	}
	if err := m.wal.Reset(); err != nil {
		return err
	}
	if ds, ok := m.log.(*diskStore); ok {
		ds.reset()
	}
	return nil
}

// SetSyncCommit arms or disarms synchronous commit: while armed, appends
// return only once the follower's ack (SetRemoteAck) covers them. A no-op
// without a durable store.
func (m *Manager) SetSyncCommit(on bool) {
	if m.wal != nil {
		m.wal.SetSyncCommit(on)
	}
}

// SetRemoteAck feeds the follower's acknowledged ship cursor — everything
// before it is fsynced in the follower's own log — to the sync-commit barrier.
func (m *Manager) SetRemoteAck(cur wal.ShipCursor) {
	if m.wal != nil {
		m.wal.SetRemoteAck(cur)
	}
}

// AbortSync fails every append blocked on the sync-commit barrier — called
// when the shipper dies or the node is fenced, so submitters learn their
// writes were never confirmed instead of hanging (or worse, being acked).
func (m *Manager) AbortSync() {
	if m.wal != nil {
		m.wal.AbortSync()
	}
}

// InstallReplicaBaseline installs a primary's snapshot frames as the local
// recovery baseline and advances each bucket's LSN head to the snapshot LSN,
// so subsequently applied ship records continue the primary's numbering and
// the log head doubles as the dedup state for duplicate batches. It is a whole
// checkpoint round whose images came over the wire instead of out of memory:
// one image set, then the manifest (which is what carries the adopted plan
// once ResetReplica has dropped the record stream), counted as a checkpoint.
func (m *Manager) InstallReplicaBaseline(snaps []store.BucketSnapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.log.Install(snaps); err != nil {
		return fmt.Errorf("recovery: installing replica baseline: %w", err)
	}
	for _, s := range snaps {
		m.log.AdvanceHead(s.Bucket, s.LSN)
	}
	return m.completeCheckpointLocked()
}
