// Package recovery is the machine-level crash-recovery subsystem: fuzzy
// checkpoints of the engine's bucket stores plus a logical command log,
// combined into deterministic replay that rebuilds a crashed machine's
// partitions to their exact pre-crash state. The log lives behind the
// LogStore interface: in memory by default (fast, and the deterministic
// oracle the disk path is tested against), or on disk as a segmented WAL
// with group commit and per-bucket checkpoint images when Config.DataDir is
// set — in which case ColdStart can rebuild an entire engine, all machines,
// from a directory left behind by a dead process.
//
// The design is H-Store-style command logging, adapted to this engine's
// bucket-granular data plane:
//
//   - The log is kept per *bucket*, not per partition. A bucket's data and
//     its history travel together across live migrations, so recovery never
//     needs to know where a command originally executed: restoring a
//     partition means restoring the buckets the current plan assigns to it,
//     each from its own checkpoint image + command tail.
//
//   - Each record is the *input* of one executed procedure (TxnID, key,
//     args), not its effects. Procedures are deterministic and partitions
//     execute serially, so replaying the inputs in log order on top of the
//     checkpoint image reproduces the state byte for byte — including the
//     partial effects of procedures that returned errors.
//
//   - Checkpoints are fuzzy per partition but exact per bucket: the owning
//     executor snapshots its buckets together with each bucket's log head
//     (it is the only appender for buckets it owns), so the invariant
//     "image@LSN + commands>LSN = current state" holds bucket by bucket
//     without any global barrier.
//
// Determinism contract (shared with the engine): procedures are
// deterministic functions of (stored state, key, args); stored rows are
// immutable after Put (procedures copy before mutating — see internal/b2w);
// and submitters do not mutate args after submission. Under that contract
// the checkpoint can alias row values and replay is exact.
package recovery

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/store"
	"pstore/internal/wal"
)

// Config selects and parameterizes the manager's log store.
type Config struct {
	// DataDir enables the durable store: a segmented WAL plus checkpoint
	// images under this directory. Empty keeps the log in memory.
	DataDir string
	// SegmentBytes is the WAL's segment rotation threshold (0 = default).
	SegmentBytes int64
	// FS substitutes the WAL's filesystem (crash-injection tests).
	FS wal.FS
}

// Stats are the manager's cumulative recovery counters.
type Stats struct {
	// Crashes and Recoveries count machine-level events.
	Crashes, Recoveries int64
	// Checkpoints counts checkpoint rounds (one round covers every live
	// partition).
	Checkpoints int64
	// ReplayedCommands is the total number of commands replayed across all
	// recoveries.
	ReplayedCommands int64
	// MaxReplayLag is the largest command tail replayed by a single machine
	// recovery — the replay-lag metric a checkpoint interval trades against.
	MaxReplayLag int64
	// Downtime is the cumulative wall time machines spent down before being
	// restored.
	Downtime time.Duration
}

// RestoreStats describe one completed machine restoration.
type RestoreStats struct {
	// Machine is the restored machine.
	Machine int
	// Partitions is how many partitions were rebuilt.
	Partitions int
	// Snapshots is how many bucket checkpoint images were installed.
	Snapshots int
	// Replayed is how many log commands were replayed on top of them.
	Replayed int
	// ReplayWall is the wall time spent loading and replaying partitions.
	ReplayWall time.Duration
	// Downtime is how long the machine was down.
	Downtime time.Duration
}

// ColdStartStats describe one completed cold start: a whole engine rebuilt
// from a data directory.
type ColdStartStats struct {
	// Machines and Partitions count what was rebuilt.
	Machines, Partitions int
	// Snapshots is how many bucket images were installed; Replayed how many
	// log commands ran on top of them.
	Snapshots, Replayed int
	// LogBytes is the on-disk log volume the cold start scanned.
	LogBytes int64
	// PlanRecovered reports whether a durable plan was reinstalled.
	PlanRecovered bool
	// Duration is the wall time of the rebuild; ReplayWall the part spent
	// loading and replaying partitions (in parallel across workers).
	Duration   time.Duration
	ReplayWall time.Duration
}

// Manager owns the command log and drives crash/checkpoint/restore against
// one engine. It implements store.CommandLogger and store.PlanLogger;
// New attaches it, so every transaction executed afterwards is recoverable.
type Manager struct {
	eng *store.Engine
	log LogStore
	// wal is the durable store's underlying log (nil with the in-memory
	// store); the replication plane ships from it directly.
	wal *wal.Log

	// cold is the state a durable store recovered at open, consumed by
	// ColdStart; planMuted suppresses plan re-logging while ColdStart is
	// reinstalling the very plan that was just read back from disk; loading
	// suppresses command records while Bootstrap's load runs.
	cold      *wal.Recovered
	planMuted atomic.Bool
	loading   atomic.Bool

	// mu serializes the orchestration paths (Crash / Checkpoint / Restore /
	// ColdStart); the log store alone protects the append hot path.
	mu        sync.Mutex
	downSince map[int]time.Time

	// The log bound (SetRound): the next round is due at AppendedBytes roundAt,
	// roundBytes (two segments, so each deletes a sealed one) past where the
	// last left the log; roundMu is held while one runs, and guards round.
	roundBytes int64
	roundAt    atomic.Int64
	roundMu    sync.Mutex
	round      func()

	crashes      atomic.Int64
	recoveries   atomic.Int64
	checkpoints  atomic.Int64
	replayed     atomic.Int64
	maxReplayLag atomic.Int64
	downtimeNs   atomic.Int64
}

// New builds a recovery manager for the engine and attaches it as the
// engine's command logger, so call it before loading any data (through
// Bootstrap). Without Config.DataDir the log is in memory. With it, the log
// is a segmented on-disk WAL: the directory is opened (or created), its
// contents recovered, and — if it holds a previous life's state —
// HasColdState reports true and ColdStart will rebuild the engine from it.
func New(eng *store.Engine, cfg Config) (*Manager, error) {
	m := &Manager{
		eng:       eng,
		downSince: make(map[int]time.Time),
	}
	if cfg.DataDir == "" {
		m.log = newMemStore(eng.Config().Buckets)
	} else {
		ec := eng.Config()
		l, rec, err := wal.Open(wal.Config{
			Dir: cfg.DataDir,
			Geometry: wal.Geometry{
				Buckets:              ec.Buckets,
				MaxMachines:          ec.MaxMachines,
				PartitionsPerMachine: ec.PartitionsPerMachine,
			},
			SegmentBytes: cfg.SegmentBytes,
			FS:           cfg.FS,
		})
		if err != nil {
			return nil, err
		}
		m.log = newDiskStore(eng, l, rec)
		m.wal = l
		m.cold = rec
		m.roundBytes = 2 * l.SegmentBytes()
		m.roundAt.Store(m.roundBytes - rec.SegmentBytes) // a previous life's segments count
	}
	eng.SetCommandLog(m)
	eng.SetPlanLog(m)
	return m, nil
}

// AppendCommand implements store.CommandLogger. It runs on partition
// executor goroutines, right before the procedure does, and never waits for
// I/O: with a durable store it assigns the bucket LSN and encodes the record
// — args included, so what the procedure then does to them is not logged —
// into the WAL's group-commit buffer, and the returned ticket is what the
// partition's commit stage hands to WaitDurable, while the procedure runs,
// before it acknowledges the transaction. During Bootstrap's load it only
// takes the LSN: the executor is the bucket's sole appender, and the image
// set that ends the load is the record.
func (m *Manager) AppendCommand(bucket int, id store.TxnID, key string, args any) (uint64, error) {
	if m.loading.Load() {
		m.log.AdvanceHead(bucket, m.log.Head(bucket)+1)
		return 0, nil
	}
	return m.log.Append(bucket, id, key, args)
}

// LogChunk logs a migrated chunk about to be installed into partition part,
// set being its image set as it arrived, and returns once the record is
// durable — fsynced, and acknowledged by the follower under synchronous
// commit — so the install it precedes can be recovered, and shipped, from the
// log alone. The caller installs only after a nil return, and keeps every
// other appender off the chunk's buckets until then.
func (m *Manager) LogChunk(part int, set []byte) error {
	stamped, err := wal.StampImageSet(set, func(b int) uint64 { return m.log.Head(b) + 1 })
	if err != nil {
		return fmt.Errorf("%w: %v", wal.ErrRecordRefused, err)
	}
	ticket, err := m.log.AppendChunk(part, stamped)
	if err != nil {
		return err
	}
	return m.WaitDurable(ticket)
}

// WaitDurable implements store.CommandLogger: it blocks until the record
// behind the ticket is fsynced (and follower-acked under synchronous
// commit), leading the group-commit fsync if none is in flight, and then
// checks the log bound: every durable append ends here.
func (m *Manager) WaitDurable(ticket uint64) error {
	defer m.boundLog()
	return m.log.Wait(ticket)
}

// LogHead implements store.CommandLogger: the LSN of the last command
// appended for the bucket.
func (m *Manager) LogHead(bucket int) uint64 { return m.log.Head(bucket) }

// LogPlan implements store.PlanLogger: plan mutations flow into the log so
// a cold start reinstalls the exact plan the process died with.
func (m *Manager) LogPlan(plan []int32, active int) {
	if m.planMuted.Load() {
		return
	}
	m.log.LogPlan(plan, active)
}

// LogSize returns the number of command records currently retained across
// all buckets — the replay debt a crash right now would incur. It reads
// per-bucket atomic counters; it never walks the log, so summary pollers
// cannot contend with the AppendCommand hot path.
func (m *Manager) LogSize() int { return int(m.log.Records()) }

// LogBytes returns the on-disk log volume (0 with the in-memory store),
// also from a counter.
func (m *Manager) LogBytes() int64 { return m.log.Bytes() }

// Err returns the log store's latched fatal error, if any. A durable store
// whose write or fsync fails stops persisting and reports here; from then on
// every transaction fails at commit. A sync-commit abort is not such an
// error: it fails the transactions it covers and leaves the log healthy.
func (m *Manager) Err() error { return m.log.Err() }

// Close releases the log store (the WAL's active segment, for a durable
// store). Everything acknowledged is already durable; Close flushes
// nothing.
func (m *Manager) Close() error { return m.log.Close() }

// SetRound arms the durable log's bound with the node's checkpoint round (nil
// disarms it, once a round in flight has finished): the first append made
// durable two segments past where the last completed round left the log starts
// round on a goroutine, one at a time; a failed one is due at the next bound.
func (m *Manager) SetRound(round func()) {
	m.roundMu.Lock()
	m.round = round
	m.roundMu.Unlock()
}

// boundLog starts a round at the bound: two atomic loads and a compare below it.
func (m *Manager) boundLog() {
	if m.wal == nil || m.wal.AppendedBytes() < m.roundAt.Load() || !m.roundMu.TryLock() {
		return
	}
	m.roundAt.Store(m.wal.AppendedBytes() + m.roundBytes) // the next bound, should this round fail
	if m.round == nil {
		m.roundMu.Unlock()
		return
	}
	go func(round func()) {
		defer m.roundMu.Unlock()
		round()
	}(m.round)
}

// Bootstrap loads a fresh engine's dataset and makes it durable as one
// checkpoint round instead of as a command log: load runs with nothing logged
// (each command still takes the LSN a logged one would), then the round's
// image set, stamped with those LSNs, is the load's only durable form — so it
// images every bucket whose head the load moved, a bucket left without rows
// too. A crash before that set lands leaves no cold state, so the loader runs
// again; one after leaves the whole dataset. Nothing else may execute during
// load, and on an error the loaded rows have no durable form. It returns the
// number of images installed.
func (m *Manager) Bootstrap(load func() error) (int, error) {
	m.loading.Store(true)
	err := load()
	m.loading.Store(false)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	all, err := m.snapshotLiveLocked()
	if err != nil {
		return 0, err
	}
	imaged := make(map[int]bool, len(all))
	for _, s := range all {
		imaged[s.Bucket] = true
	}
	for b := 0; b < m.eng.Config().Buckets; b++ {
		if head := m.log.Head(b); head > 0 && !imaged[b] {
			all = append(all, store.BucketSnapshot{Bucket: b, LSN: head, Tables: map[string]map[string]any{}})
		}
	}
	return len(all), m.installRoundLocked(all)
}

// Checkpoint snapshots every live partition and installs the images as the
// buckets' new recovery baseline, truncating each bucket's command log up to
// the covered LSN (on disk: the round's images are spilled as one image set,
// then fully covered segments are deleted). Down partitions are skipped (their
// buckets keep their older baseline, which is exactly what their restore will
// need). It returns the number of bucket images installed; on an error the
// round installed nothing and compacted nothing.
func (m *Manager) Checkpoint() (int, error) { return m.CheckpointAfter(func() {}) }

// CheckpointAfter is Checkpoint with a hook between its halves: every
// partition's in-memory image is taken first, then snapshotted runs — exactly
// once, also when a snapshot failed — and only then is the round written. A
// warm follower's log head runs ahead of its memory by the records it has
// accepted and not yet applied, and a partition stamps its images with the log
// head; so the follower takes the snapshots with its backlog drained and its
// ship handler held off, and releases the handler from the hook — the image
// write, the slow half, stays off the ship path.
func (m *Manager) CheckpointAfter(snapshotted func()) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	all, err := m.snapshotLiveLocked()
	snapshotted()
	if err != nil {
		return 0, err
	}
	if err := m.installRoundLocked(all); err != nil {
		return 0, err
	}
	return len(all), nil
}

// installRoundLocked writes one round's images and completes the round.
func (m *Manager) installRoundLocked(all []store.BucketSnapshot) error {
	if err := m.log.Install(all, nil); err != nil {
		return fmt.Errorf("recovery: installing checkpoint images: %w", err)
	}
	return m.completeCheckpointLocked()
}

// completeCheckpointLocked ends a round whose images are installed: the
// manifest is rewritten, covered segments go, the round is counted, and the
// log bound counts again from the active segment, which no round deletes.
func (m *Manager) completeCheckpointLocked() error {
	if err := m.log.Checkpoint(); err != nil {
		return fmt.Errorf("recovery: completing checkpoint: %w", err)
	}
	if m.wal != nil {
		m.roundAt.Store(m.wal.ActiveStart() + m.roundBytes)
	}
	m.checkpoints.Add(1)
	return nil
}

// snapshotLiveLocked takes a fuzzy image of each live partition this engine
// hosts, stopping at the first that fails.
func (m *Manager) snapshotLiveLocked() ([]store.BucketSnapshot, error) {
	cfg := m.eng.Config()
	var all []store.BucketSnapshot
	for part := 0; part < cfg.MaxMachines*cfg.PartitionsPerMachine; part++ {
		if !m.eng.Hosted(part / cfg.PartitionsPerMachine) {
			// A multi-process node checkpoints only the data it hosts —
			// buckets living elsewhere are that node's responsibility.
			continue
		}
		if m.eng.PartitionDown(part) {
			continue
		}
		snaps, err := m.eng.SnapshotPartition(part)
		if err != nil {
			return nil, fmt.Errorf("recovery: checkpointing partition %d: %w", part, err)
		}
		all = append(all, snaps...)
	}
	return all, nil
}

// Crash takes a machine down. Its partitions stop executing transactions
// (everything queued or submitted fails with store.ErrPartitionDown) until
// Restore rebuilds them.
func (m *Manager) Crash(machine int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.eng.MachineDown(machine) {
		return fmt.Errorf("recovery: machine %d is already down", machine)
	}
	if err := m.eng.Crash(machine); err != nil {
		return err
	}
	m.downSince[machine] = time.Now()
	m.crashes.Add(1)
	return nil
}

// Restore rebuilds every partition of a down machine from checkpoint images
// plus command replay and brings the machine back up. The buckets to rebuild
// are taken from the *current* plan — a bucket that migrated onto the
// machine after its last checkpoint is still recovered exactly, because its
// image and log tail traveled with it — from another node, as the chunk record
// that starts its tail here. With a durable store, the images and tails are
// read back from disk, not from process memory.
func (m *Manager) Restore(machine int) (RestoreStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := RestoreStats{Machine: machine}
	if !m.eng.MachineDown(machine) {
		return st, fmt.Errorf("recovery: machine %d is not down", machine)
	}
	replayStart := time.Now()
	parts := m.eng.PartitionsOfMachine(machine)
	snaps, replayed, err := m.restoreLocked(parts)
	if err != nil {
		return st, err
	}
	st.Partitions, st.Snapshots, st.Replayed = len(parts), snaps, replayed
	st.ReplayWall = time.Since(replayStart)
	if since, ok := m.downSince[machine]; ok {
		st.Downtime = time.Since(since)
		delete(m.downSince, machine)
	}
	m.recoveries.Add(1)
	m.replayed.Add(int64(st.Replayed))
	m.downtimeNs.Add(int64(st.Downtime))
	for {
		cur := m.maxReplayLag.Load()
		if int64(st.Replayed) <= cur || m.maxReplayLag.CompareAndSwap(cur, int64(st.Replayed)) {
			break
		}
	}
	return st, nil
}

// restoreLocked rebuilds down partitions from one read of the log store —
// every image set and segment it needs is read and decoded once, however many
// partitions share it — and replays them on a GOMAXPROCS-bounded worker pool:
// distinct partitions replay through independent executors, so the replay's
// wall time scales with cores, not partitions. Each partition gets exactly
// the snapshots and commands a load of its own buckets would have returned.
func (m *Manager) restoreLocked(parts []int) (snapshots, replayed int, err error) {
	var buckets []int
	share := make(map[int]int) // bucket -> index into parts
	for i, part := range parts {
		for _, b := range m.eng.OwnedBuckets(part) {
			buckets = append(buckets, b)
			share[b] = i
		}
	}
	snaps, cmds, err := m.log.Load(buckets)
	if err != nil {
		return 0, 0, fmt.Errorf("recovery: loading partitions %v: %w", parts, err)
	}
	type partRestore struct {
		snaps    []store.BucketSnapshot
		cmds     []store.ReplayCommand
		replayed int
		err      error
	}
	work := make([]partRestore, len(parts))
	for _, s := range snaps {
		w := &work[share[s.Bucket]]
		w.snaps = append(w.snaps, s)
	}
	for _, c := range cmds {
		w := &work[share[c.Bucket]]
		w.cmds = append(w.cmds, c)
	}
	workers := min(runtime.GOMAXPROCS(0), len(parts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(parts) {
					return
				}
				r := &work[i]
				r.replayed, r.err = m.eng.RestorePartition(parts[i], r.snaps, r.cmds)
			}
		}()
	}
	wg.Wait()
	for i, r := range work {
		if r.err != nil {
			return 0, 0, fmt.Errorf("recovery: restoring partition %d: %w", parts[i], r.err)
		}
		snapshots += len(r.snaps)
		replayed += r.replayed
	}
	return snapshots, replayed, nil
}

// HasColdState reports whether the manager's data directory held a previous
// life's state — a recovered plan or bucket data — so the owner knows to
// ColdStart instead of bootstrapping fresh data.
func (m *Manager) HasColdState() bool {
	return m.cold != nil && m.cold.Existing &&
		(m.cold.Plan != nil || len(m.cold.Buckets) > 0)
}

// ColdStart rebuilds the entire engine — every hosted machine, not one
// crashed slot — from the data directory: the durable plan is reinstalled,
// then each hosted partition is fenced and restored from its buckets'
// checkpoint images plus replayed log tails. Call it after Start (and after
// registering every transaction), in place of loading fresh data.
func (m *Manager) ColdStart() (ColdStartStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	st := ColdStartStats{}
	if m.cold == nil {
		return st, fmt.Errorf("recovery: cold start requires a durable store")
	}
	st.LogBytes = m.cold.SegmentBytes

	// Reinstall the durable plan before touching data: OwnedBuckets below
	// must see the ownership the process died with. The plan logger is
	// muted — re-logging the plan we just read back would be noise.
	m.planMuted.Store(true)
	err := m.eng.AdoptPlan(m.cold.Plan, m.cold.Active)
	m.planMuted.Store(false)
	if err != nil {
		return st, fmt.Errorf("recovery: reinstalling plan: %w", err)
	}
	st.PlanRecovered = m.cold.Plan != nil

	// Fence every hosted machine first, then restore all their partitions in
	// one go.
	var parts []int
	for _, machine := range m.eng.HostedMachines() {
		// Fence first: RestorePartition rebuilds only down partitions.
		if !m.eng.MachineDown(machine) {
			if err := m.eng.Crash(machine); err != nil {
				return st, fmt.Errorf("recovery: fencing machine %d: %w", machine, err)
			}
		}
		parts = append(parts, m.eng.PartitionsOfMachine(machine)...)
		st.Machines++
	}
	replayStart := time.Now()
	snaps, replayed, err := m.restoreLocked(parts)
	st.ReplayWall = time.Since(replayStart)
	if err != nil {
		return st, err
	}
	st.Partitions, st.Snapshots, st.Replayed = len(parts), snaps, replayed
	m.replayed.Add(int64(st.Replayed))
	st.Duration = time.Since(start)
	return st, nil
}

// Stats snapshots the manager's cumulative counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Crashes:          m.crashes.Load(),
		Recoveries:       m.recoveries.Load(),
		Checkpoints:      m.checkpoints.Load(),
		ReplayedCommands: m.replayed.Load(),
		MaxReplayLag:     m.maxReplayLag.Load(),
		Downtime:         time.Duration(m.downtimeNs.Load()),
	}
}
