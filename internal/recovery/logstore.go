package recovery

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pstore/internal/store"
)

// LogStore is the durability substrate behind the Manager: the per-bucket
// command log plus the bucket checkpoint images. Two implementations exist —
// memStore, the fast in-process default and the deterministic oracle the
// disk path is tested against, and diskStore, a segmented on-disk WAL
// (internal/wal) enabled by Config.DataDir.
type LogStore interface {
	// Append logs one command about to execute: it assigns the bucket's next
	// LSN and places the record in the log, in call order, without waiting for
	// I/O. Called on partition executor goroutines right before the procedure
	// runs; one executor is the sole appender for the buckets it owns, so
	// per-bucket calls are serial and log order is execution order. The returned ticket
	// is 0 when the record is already as durable as it will get (the memory
	// store); otherwise the submitter may be acknowledged only after Wait on
	// it returns nil. An error means the record was not logged, and the
	// executor does not run the command.
	Append(bucket int, id store.TxnID, key string, args any) (ticket uint64, err error)
	// Wait blocks until the record behind a ticket is durable (on disk, and
	// on the follower under synchronous commit), or reports why it will not
	// be. Safe to call from any goroutine.
	Wait(ticket uint64) error
	// Head returns the bucket's last-assigned LSN.
	Head(bucket int) uint64
	// Install makes one checkpoint round's bucket snapshots their buckets'
	// recovery baselines and releases the command records they cover. The
	// round is installed whole or, on an error, not at all; the disk store
	// writes it as one image set, so a round costs one fsync however many
	// buckets it covers.
	Install(snaps []store.BucketSnapshot) error
	// Load returns the restore inputs for the given buckets — each bucket's
	// baseline image (if any) and its command tail beyond the image, per-
	// bucket in LSN order — reading from the store's authoritative medium
	// (disk, for the disk store; the restore path is only as honest as this
	// read). The returned structures are owned by the caller; replay mutates
	// them.
	Load(buckets []int) ([]store.BucketSnapshot, []store.ReplayCommand, error)
	// LogPlan records a bucket-plan change (no-op in memory — a live process
	// always knows its plan; a cold start must recover it).
	LogPlan(plan []int32, active int)
	// Checkpoint marks the end of a full checkpoint round, after its Install:
	// the disk store folds the plan into its manifest and compacts segments.
	Checkpoint() error
	// Records returns the retained command-record count — the replay debt a
	// crash right now would incur. It reads a counter, never the log itself,
	// so stats paths cannot contend with Append.
	Records() int64
	// Bytes returns the on-disk log volume (0 for the in-memory store), the
	// same way: a counter, not a scan.
	Bytes() int64
	// Err returns the store's latched fatal error, if any. Once a write,
	// fsync or encode fails the store stops accepting records, fails every
	// Append and Wait with that error, and reports it here.
	Err() error
	// AdvanceHead raises a bucket's last-assigned LSN (never lowers it). A
	// replica bootstrapping from a primary's snapshot uses it to continue
	// the primary's LSN numbering: Install raises only the recovery base,
	// but subsequent local appends must also start above the snapshot LSN.
	AdvanceHead(bucket int, lsn uint64)
	// Epoch returns the replication fencing term; SetEpoch raises it (for a
	// durable store, persisted before returning). Lowering the term is an
	// error.
	Epoch() uint64
	SetEpoch(e uint64) error
	// Close releases the store's resources.
	Close() error
}

// Command is one command-log record: the input of one executed procedure.
type Command struct {
	// LSN is the bucket-local sequence number, starting at 1.
	LSN uint64
	// ID is the procedure's dense engine handle.
	ID store.TxnID
	// Key and Args are the procedure's original input.
	Key  string
	Args any
}

// ckptImage is one bucket's latest checkpoint: its tables (row values
// aliased, immutable by convention) and row count as of the covered LSN.
type ckptImage struct {
	rows   int
	tables map[string]map[string]any
}

// bucketLog is one bucket's recovery state: its command tail and latest
// checkpoint image. base is the LSN the image covers; cmds[i] has LSN
// base+1+i. The mutex makes appends (executor goroutines) safe against
// checkpoint truncation and restore reads (manager goroutine).
type bucketLog struct {
	mu   sync.Mutex
	head uint64
	base uint64
	cmds []Command
	ckpt *ckptImage
}

// memStore is the in-memory LogStore: the recovery behavior the engine has
// always had, and the oracle disk-backed recovery must match byte for byte.
type memStore struct {
	logs    []bucketLog
	records atomic.Int64
	epoch   atomic.Uint64
}

func newMemStore(buckets int) *memStore {
	return &memStore{logs: make([]bucketLog, buckets)}
}

func (m *memStore) Append(bucket int, id store.TxnID, key string, args any) (uint64, error) {
	if bucket < 0 || bucket >= len(m.logs) {
		return 0, nil
	}
	l := &m.logs[bucket]
	l.mu.Lock()
	l.head++
	l.cmds = append(l.cmds, Command{LSN: l.head, ID: id, Key: key, Args: args})
	l.mu.Unlock()
	m.records.Add(1)
	return 0, nil
}

func (m *memStore) Wait(uint64) error { return nil }

func (m *memStore) Head(bucket int) uint64 {
	if bucket < 0 || bucket >= len(m.logs) {
		return 0
	}
	l := &m.logs[bucket]
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

func (m *memStore) Install(snaps []store.BucketSnapshot) error {
	for _, s := range snaps {
		l := &m.logs[s.Bucket]
		l.mu.Lock()
		if s.LSN > l.base {
			drop := int(s.LSN - l.base)
			if drop > len(l.cmds) {
				drop = len(l.cmds)
			}
			l.cmds = append([]Command(nil), l.cmds[drop:]...)
			l.base = s.LSN
			m.records.Add(int64(-drop))
		}
		l.ckpt = &ckptImage{rows: s.Rows, tables: s.Tables}
		l.mu.Unlock()
	}
	return nil
}

func (m *memStore) Load(buckets []int) ([]store.BucketSnapshot, []store.ReplayCommand, error) {
	var snaps []store.BucketSnapshot
	var cmds []store.ReplayCommand
	for _, b := range buckets {
		l := &m.logs[b]
		l.mu.Lock()
		if l.ckpt != nil {
			snaps = append(snaps, store.BucketSnapshot{
				Bucket: b,
				Rows:   l.ckpt.rows,
				LSN:    l.base,
				Tables: cloneTables(l.ckpt.tables),
			})
		}
		for _, c := range l.cmds {
			cmds = append(cmds, store.ReplayCommand{Bucket: b, ID: c.ID, Key: c.Key, Args: c.Args})
		}
		l.mu.Unlock()
	}
	return snaps, cmds, nil
}

func (m *memStore) AdvanceHead(bucket int, lsn uint64) {
	if bucket < 0 || bucket >= len(m.logs) {
		return
	}
	l := &m.logs[bucket]
	l.mu.Lock()
	if lsn > l.head {
		l.head = lsn
	}
	l.mu.Unlock()
}

func (m *memStore) Epoch() uint64 { return m.epoch.Load() }

func (m *memStore) SetEpoch(e uint64) error {
	for {
		cur := m.epoch.Load()
		if e < cur {
			return fmt.Errorf("recovery: epoch %d below current %d", e, cur)
		}
		if m.epoch.CompareAndSwap(cur, e) {
			return nil
		}
	}
}

func (m *memStore) LogPlan([]int32, int) {}
func (m *memStore) Checkpoint() error    { return nil }
func (m *memStore) Records() int64       { return m.records.Load() }
func (m *memStore) Bytes() int64         { return 0 }
func (m *memStore) Err() error           { return nil }
func (m *memStore) Close() error         { return nil }

// cloneTables copies the map structure of a checkpoint image, aliasing row
// values. Replay mutates the installed maps, and the baseline may serve
// later restores, so each restore gets its own copy.
func cloneTables(tables map[string]map[string]any) map[string]map[string]any {
	out := make(map[string]map[string]any, len(tables))
	for tn, t := range tables {
		ct := make(map[string]any, len(t))
		for k, v := range t {
			ct[k] = v
		}
		out[tn] = ct
	}
	return out
}
