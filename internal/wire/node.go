package wire

import (
	"encoding/json"
	"fmt"
	"io"

	"pstore/internal/store"
)

// This file is the node-to-node vocabulary: the message shapes a migration
// coordinator exchanges with node processes. Chunk payloads reuse the
// length-prefixed framing of WriteFrame — a chunk stream is one ChunkMeta
// frame followed by exactly Meta.Buckets BucketFrame frames — so the 1MiB
// frame cap and the truncation-vs-EOF discipline apply unchanged.

// Node endpoint paths served by a `pstore serve -node` process.
const (
	// PathNodeMove executes a same-node MoveBuckets (both partitions hosted
	// by the receiving node). Body: NodeMove JSON; reply: NodeRows.
	PathNodeMove = "/v1/node/move"
	// PathNodeExtract extracts buckets at the source node and flips its
	// local ownership. Body: NodeMove JSON; reply: a chunk stream.
	PathNodeExtract = "/v1/node/extract"
	// PathNodeInstall installs a chunk at the destination node and flips its
	// local ownership. Body: one NodeMove frame, then a chunk stream; reply:
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
	// PathNodeSnapshot streams a fuzzy-checkpoint image of one partition
	// (?part=N) as a chunk stream whose frames carry LSNs.
	PathNodeSnapshot = "/v1/node/snapshot"
	// PathNodeStatus reports the node's identity, hosted machines, plan and
	// counters (NodeStatus) — the coordinator's bootstrap and poll surface.
	PathNodeStatus = "/v1/node/status"
	// PathNodeMachines sets the active machine count (NodeActive).
	PathNodeMachines = "/v1/node/machines"
	// PathNodeAccesses reports the node's per-bucket access counts
	// (NodeAccessesReq -> NodeAccesses); reset=true also clears them, the
	// fetch-and-reset a coordinator-side rebalance pass needs.
	PathNodeAccesses = "/v1/node/accesses"
)

// ContentTypeChunk marks a body carrying a length-prefixed chunk stream.
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

// NodeAccessesReq asks for per-bucket access counts, optionally resetting
// them as they are read.
type NodeAccessesReq struct {
	Reset bool `json:"reset"`
}

// NodeAccesses carries one node's per-bucket access counts (length =
// cluster bucket count; buckets hosted elsewhere read zero).
type NodeAccesses struct {
	Accesses []int64 `json:"accesses"`
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

// ChunkMeta heads a chunk stream: the total row count and the number of
// BucketFrame frames that follow.
type ChunkMeta struct {
	Rows    int `json:"rows"`
	Buckets int `json:"buckets"`
}

// BucketFrame is one bucket's contents on the wire: table -> key -> row.
// Rows travel as raw JSON; the receiving node decodes them back into the
// workload's concrete row types via its registered row codec, so type
// identity survives the process boundary. LSN is set only on snapshot
// streams (the bucket's command-log head at capture time).
type BucketFrame struct {
	Bucket int                                   `json:"bucket"`
	Rows   int                                   `json:"rows"`
	LSN    uint64                                `json:"lsn,omitempty"`
	Tables map[string]map[string]json.RawMessage `json:"tables"`
}

// RowDecoder rebuilds a workload row from its JSON form. The table name
// selects the concrete type, exactly as a txn-args decoder selects by
// transaction name.
type RowDecoder func(table string, raw json.RawMessage) (any, error)

// WriteChunkStream frames a chunk onto w: one ChunkMeta frame, then one
// frame per bucket.
func WriteChunkStream(w io.Writer, meta ChunkMeta, frames []BucketFrame) error {
	if meta.Buckets != len(frames) {
		return fmt.Errorf("wire: chunk meta declares %d buckets, have %d frames", meta.Buckets, len(frames))
	}
	b, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if err := WriteFrame(w, b); err != nil {
		return err
	}
	for i := range frames {
		b, err := json.Marshal(&frames[i])
		if err != nil {
			return err
		}
		if err := WriteFrame(w, b); err != nil {
			return err
		}
	}
	return nil
}

// ReadChunkStream reads a chunk stream written by WriteChunkStream,
// requiring exactly the declared number of bucket frames: a stream cut
// short mid-chunk is a transport error, never silently partial data.
func ReadChunkStream(r io.Reader) (ChunkMeta, []BucketFrame, error) {
	var meta ChunkMeta
	hdr, err := ReadFrame(r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return meta, nil, fmt.Errorf("wire: chunk stream header: %w", err)
	}
	if err := json.Unmarshal(hdr, &meta); err != nil {
		return meta, nil, fmt.Errorf("wire: chunk stream header: %w", err)
	}
	if meta.Buckets < 0 || meta.Buckets > MaxFrame {
		return meta, nil, fmt.Errorf("wire: chunk stream declares %d buckets", meta.Buckets)
	}
	frames := make([]BucketFrame, 0, meta.Buckets)
	for i := 0; i < meta.Buckets; i++ {
		body, err := ReadFrame(r)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return meta, nil, fmt.Errorf("wire: chunk stream frame %d/%d: %w", i, meta.Buckets, err)
		}
		var f BucketFrame
		if err := json.Unmarshal(body, &f); err != nil {
			return meta, nil, fmt.Errorf("wire: chunk stream frame %d: %w", i, err)
		}
		frames = append(frames, f)
	}
	return meta, frames, nil
}

// ChunkFromBucketData serializes a migrating chunk. Frames and rows are
// emitted in deterministic order (sorted buckets, tables, keys), so the
// same chunk always produces the same bytes.
func ChunkFromBucketData(d store.BucketData) (ChunkMeta, []BucketFrame, error) {
	var (
		frames  []BucketFrame
		current *BucketFrame
		encErr  error
	)
	d.ForEachRow(func(bucket int, table, key string, row any) {
		if encErr != nil {
			return
		}
		if current == nil || current.Bucket != bucket {
			frames = append(frames, BucketFrame{Bucket: bucket, Tables: make(map[string]map[string]json.RawMessage)})
			current = &frames[len(frames)-1]
		}
		raw, err := json.Marshal(row)
		if err != nil {
			encErr = fmt.Errorf("wire: encode row %s/%s of bucket %d: %w", table, key, bucket, err)
			return
		}
		t := current.Tables[table]
		if t == nil {
			t = make(map[string]json.RawMessage)
			current.Tables[table] = t
		}
		t[key] = raw
		current.Rows++
	})
	if encErr != nil {
		return ChunkMeta{}, nil, encErr
	}
	meta := ChunkMeta{Buckets: len(frames)}
	for i := range frames {
		meta.Rows += frames[i].Rows
	}
	return meta, frames, nil
}

// BucketDataFromChunk rebuilds a BucketData bundle from its wire form,
// decoding each row through the node's row codec. A nil decoder keeps rows
// as json.RawMessage — sufficient for row-count accounting, not for
// executing transactions against them.
func BucketDataFromChunk(frames []BucketFrame, decode RowDecoder) (store.BucketData, error) {
	d := store.NewBucketData()
	for _, f := range frames {
		for table, rows := range f.Tables {
			for key, raw := range rows {
				if decode == nil {
					d.AddRow(f.Bucket, table, key, raw)
					continue
				}
				row, err := decode(table, raw)
				if err != nil {
					return store.BucketData{}, fmt.Errorf("wire: decode row %s/%s of bucket %d: %w", table, key, f.Bucket, err)
				}
				d.AddRow(f.Bucket, table, key, row)
			}
		}
	}
	return d, nil
}

// FrameFromSnapshot serializes one bucket's fuzzy-checkpoint image.
func FrameFromSnapshot(s store.BucketSnapshot) (BucketFrame, error) {
	f := BucketFrame{Bucket: s.Bucket, Rows: s.Rows, LSN: s.LSN, Tables: make(map[string]map[string]json.RawMessage, len(s.Tables))}
	for table, rows := range s.Tables {
		t := make(map[string]json.RawMessage, len(rows))
		for key, row := range rows {
			raw, err := json.Marshal(row)
			if err != nil {
				return BucketFrame{}, fmt.Errorf("wire: encode row %s/%s of bucket %d: %w", table, key, s.Bucket, err)
			}
			t[key] = raw
		}
		f.Tables[table] = t
	}
	return f, nil
}

// SnapshotFromFrame rebuilds a bucket snapshot from its wire form.
func SnapshotFromFrame(f BucketFrame, decode RowDecoder) (store.BucketSnapshot, error) {
	s := store.BucketSnapshot{Bucket: f.Bucket, Rows: f.Rows, LSN: f.LSN, Tables: make(map[string]map[string]any, len(f.Tables))}
	for table, rows := range f.Tables {
		t := make(map[string]any, len(rows))
		for key, raw := range rows {
			if decode == nil {
				t[key] = raw
				continue
			}
			row, err := decode(table, raw)
			if err != nil {
				return store.BucketSnapshot{}, fmt.Errorf("wire: decode row %s/%s of bucket %d: %w", table, key, f.Bucket, err)
			}
			t[key] = row
		}
		s.Tables[table] = t
	}
	return s, nil
}
