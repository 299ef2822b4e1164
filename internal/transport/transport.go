// Package transport is the node-boundary abstraction that lets a partition
// group run either inside this process or as its own engine process behind
// the wire. The migration executor (internal/squall) and the cluster runtime
// (internal/cluster) program against the Node and Topology interfaces; the
// Local implementation is today's direct calls (the byte-identical
// single-process reference oracle), and Remote drives the same operations
// over the node RPC vocabulary in internal/wire.
package transport

import (
	"time"

	"pstore/internal/recovery"
	"pstore/internal/store"
)

// Node is the migration-facing surface of a cluster: exactly the operations
// the Squall executor needs to plan and drive a reconfiguration. A
// *store.Engine is a Node (single-process mode); a Remote topology is a Node
// whose MoveBuckets decomposes into extract/install/flip RPCs against node
// processes.
type Node interface {
	// Config returns the cluster geometry (machines, partitions, buckets).
	Config() store.Config
	// ActiveMachines and SetActiveMachines manage the active cluster size.
	ActiveMachines() int
	SetActiveMachines(n int) error
	// TotalRows is the cluster-wide row count, used to size chunks.
	TotalRows() int
	// OwnedBuckets lists the buckets a partition currently owns; OwnerOf
	// is the inverse lookup for one bucket.
	OwnedBuckets(part int) []int
	OwnerOf(bucket int) int
	// PartitionDown and MachineDown report crash fencing, so planning can
	// route around dead capacity.
	PartitionDown(part int) bool
	MachineDown(m int) bool
	// MoveBuckets live-migrates buckets between two partitions, returning
	// rows moved; MoveBucketsRollback is its fault-injection-exempt undo.
	MoveBuckets(buckets []int, from, to int, perRow, overhead time.Duration) (int, error)
	MoveBucketsRollback(buckets []int, from, to int, perRow, overhead time.Duration) (int, error)
}

// The reference oracle must remain a Node without adapters: if this stops
// compiling, single-process mode has drifted from the interface.
var _ Node = (*store.Engine)(nil)

// Topology extends Node with everything the cluster runtime needs placement
// to be oblivious: the plan fingerprint, load/health introspection for the
// decision loop, and the crash/restore recovery plane.
type Topology interface {
	Node
	// Plan snapshots the bucket -> partition plan (the placement
	// fingerprint the chaos suites compare across modes).
	Plan() []int32
	// Sweep reads the decision loop's load signals in one pass over the
	// topology: the counters summed over it and its worst queue sojourn.
	Sweep() (store.Counters, time.Duration)
	// DownMachines lists crashed machines, sorted ascending.
	DownMachines() []int
	// Crash fences a machine; Restore rebuilds it from its node's
	// checkpoint + command log.
	Crash(machine int) error
	Restore(machine int) (recovery.RestoreStats, error)
	// SetFaultInjector attaches the chunk-level chaos plane at whatever
	// point of the topology consults it (engine-side locally, coordinator-
	// side remotely — same decision sequence either way).
	SetFaultInjector(fi store.FaultInjector)
	// Close releases topology resources; it does not stop remote nodes.
	Close() error
}

// Local is the single-process topology: one node's engine hosting every
// machine, recovery driven through the node's in-process manager. Every Node
// and engine method delegates directly, so behavior is byte-identical to
// calling the engine — the property the fixed-seed chaos suites pin.
type Local struct {
	*store.Engine
	rm *recovery.Manager
}

// NewLocal wraps an engine and its recovery manager as a Topology.
func NewLocal(eng *store.Engine, rm *recovery.Manager) *Local {
	return &Local{Engine: eng, rm: rm}
}

// Recovery returns the in-process recovery manager.
func (l *Local) Recovery() *recovery.Manager { return l.rm }

// Sweep implements Topology from the engine's own counters.
func (l *Local) Sweep() (store.Counters, time.Duration) {
	return l.Engine.Counters(), l.Engine.MaxQueueSojourn()
}

func (l *Local) Crash(machine int) error { return l.rm.Crash(machine) }

func (l *Local) Restore(machine int) (recovery.RestoreStats, error) { return l.rm.Restore(machine) }

func (l *Local) Close() error { return nil }
