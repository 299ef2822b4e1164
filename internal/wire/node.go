package wire

import (
	"fmt"

	"pstore/internal/store"
	"pstore/internal/wal"
)

// This file is the node-to-node vocabulary: the message shapes a migration
// coordinator exchanges with node processes. A chunk — the rows a move
// carries — travels as an image set (internal/wal), the one serialized form
// of bucket state: one frame per bucket the move names, in its order.

// Node endpoint paths served by a `pstore serve -node` process.
const (
	// PathNodeMove executes a same-node MoveBuckets (both partitions hosted
	// by the receiving node). Body: NodeMove JSON; reply: NodeRows.
	PathNodeMove = "/v1/node/move"
	// PathNodeExtract extracts buckets at the source node and flips its
	// local ownership. Body: NodeMove JSON; reply: the chunk.
	PathNodeExtract = "/v1/node/extract"
	// PathNodeInstall installs a chunk at the destination node and flips its
	// local ownership. Body: one NodeMove frame, then the chunk; reply:
	// NodeRows.
	PathNodeInstall = "/v1/node/install"
	// PathNodeFlip applies an ownership reassignment with no data movement —
	// the coordinator's broadcast to bystander nodes. Body: NodeFlip.
	PathNodeFlip = "/v1/node/flip"
	// PathNodeCrash crashes a hosted machine (NodeMachine); PathNodeRestore
	// rebuilds it from the node-local checkpoint + command log and replies
	// with NodeRestoreResult.
	PathNodeCrash   = "/v1/node/crash"
	PathNodeRestore = "/v1/node/restore"
	// PathNodeCheckpoint checkpoints every live hosted partition; reply:
	// NodeRows with the number of bucket images installed.
	PathNodeCheckpoint = "/v1/node/checkpoint"
	// PathNodeStatus reports the node's identity, hosted machines, plan and
	// counters (NodeStatus) — the coordinator's bootstrap and poll surface.
	PathNodeStatus = "/v1/node/status"
	// PathNodeMachines sets the active machine count (NodeActive).
	PathNodeMachines = "/v1/node/machines"
)

// ContentTypeChunk marks a binary node-plane body: a chunk, a ship batch or a
// sync stream.
const ContentTypeChunk = "application/x-pstore-chunk"

// NodeMove describes one chunk-level bucket move between two partitions;
// it parameterizes move, extract and install operations. Durations travel
// as nanoseconds so the JSON is locale- and unit-unambiguous.
type NodeMove struct {
	Buckets    []int `json:"buckets"`
	From       int   `json:"from"`
	To         int   `json:"to"`
	PerRowNs   int64 `json:"per_row_ns,omitempty"`
	OverheadNs int64 `json:"overhead_ns,omitempty"`
	Rollback   bool  `json:"rollback,omitempty"`
}

// NodeRows is the generic row-count reply.
type NodeRows struct {
	Rows int `json:"rows"`
}

// NodeFlip reassigns buckets to a new owning partition without moving data.
type NodeFlip struct {
	Buckets []int `json:"buckets"`
	Owner   int   `json:"owner"`
}

// NodeMachine names a machine for crash/restore operations.
type NodeMachine struct {
	Machine int `json:"machine"`
}

// NodeRestoreResult reports what a restore rebuilt.
type NodeRestoreResult struct {
	Machine    int   `json:"machine"`
	Partitions int   `json:"partitions"`
	Snapshots  int   `json:"snapshots"`
	Replayed   int   `json:"replayed"`
	DowntimeMs int64 `json:"downtime_ms"`
}

// NodeActive sets the cluster's active machine count on a node.
type NodeActive struct {
	Active int `json:"active"`
}

// NodeStatus is a node's self-description. The configuration fields let a
// coordinator reconstruct the cluster geometry without out-of-band flags,
// and Plan/DownMachines/TotalRows feed its authoritative mirrors.
type NodeStatus struct {
	Node                 int            `json:"node"`
	Nodes                int            `json:"nodes"`
	MaxMachines          int            `json:"max_machines"`
	PartitionsPerMachine int            `json:"partitions_per_machine"`
	Buckets              int            `json:"buckets"`
	InitialMachines      int            `json:"initial_machines"`
	Hosted               []int          `json:"hosted"`
	Active               int            `json:"active"`
	Plan                 []int32        `json:"plan"`
	DownMachines         []int          `json:"down_machines"`
	TotalRows            int            `json:"total_rows"`
	Counters             store.Counters `json:"counters"`
	MaxSojournNs         int64          `json:"max_sojourn_ns"`
	// Epoch and Role mirror the replication plane (see ReplStatus);
	// WALError surfaces the durable log's latched fail-stop error, so a
	// coordinator treats a node whose disk died as unhealthy even though
	// its engine still answers from memory.
	Epoch    uint64 `json:"epoch,omitempty"`
	Role     string `json:"role,omitempty"`
	WALError string `json:"wal_error,omitempty"`
	// ForwardStreams sums the streams this node forwards transactions over,
	// one per peer slot: a redial count that grows, or frames without dials,
	// is how a broken or unused transport shows.
	ForwardStreams MuxStats `json:"forward_streams"`
}

// EncodeChunk encodes the rows a move extracted as its chunk: one image per
// bucket the move names, in order, empty for a bucket that held no rows. The
// images carry no LSN — a bucket's history stays in the log of the node it
// executed on.
func EncodeChunk(buckets []int, d store.BucketData) ([]byte, error) {
	imgs := make([]*wal.Image, len(buckets))
	for i, b := range buckets {
		imgs[i] = &wal.Image{Bucket: b, Rows: d.BucketRows(b), Tables: d.Tables(b)}
	}
	return wal.EncodeImageSet(nil, imgs)
}

// DecodeChunk decodes the chunk of the move that names buckets. A chunk that
// does not hold exactly those buckets, in that order, is refused, so one cut
// short between two frames is an error too, never partial data.
func DecodeChunk(buckets []int, chunk []byte) (store.BucketData, error) {
	imgs, err := wal.DecodeImages(chunk)
	if err != nil {
		return store.BucketData{}, fmt.Errorf("wire: chunk: %w", err)
	}
	if len(imgs) != len(buckets) {
		return store.BucketData{}, fmt.Errorf("wire: chunk holds %d buckets, the move names %d", len(imgs), len(buckets))
	}
	d := store.NewBucketData()
	for i, img := range imgs {
		if img.Bucket != buckets[i] {
			return store.BucketData{}, fmt.Errorf("wire: chunk frame %d is bucket %d, the move names %d", i, img.Bucket, buckets[i])
		}
		d.AddBucket(img.Bucket, img.Tables)
	}
	return d, nil
}
