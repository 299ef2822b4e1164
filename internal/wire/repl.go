package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pstore/internal/wal"
)

// This file is the replication vocabulary: the messages a primary node and
// its warm follower exchange to ship the primary's WAL, and the control
// surface a coordinator uses to promote the follower after a failure. Ship
// batches travel as one length-prefixed frame (WriteFrame's framing and 1 MiB
// cap), so the decoder inherits the truncation-vs-EOF
// discipline and is fuzzable in isolation (FuzzShipFrame).

// Replication endpoint paths served by a `pstore serve -node` process.
const (
	// PathReplSync bootstraps a follower: the primary replies with one
	// ReplSyncMeta frame followed by an image set (internal/wal) of
	// Meta.Buckets frames — a fuzzy snapshot of every hosted bucket — and
	// starts shipping from Meta.Cursor. Body: ReplSync JSON.
	PathReplSync = "/v1/repl/sync"
	// PathReplShip hands one ship batch to the follower, which appends it to
	// its own log, acknowledges, and applies it behind the ack. Body: one
	// ShipBatch frame; reply: ShipAck JSON.
	PathReplShip = "/v1/repl/ship"
	// PathReplPromote turns a follower into a primary under a new, higher
	// epoch. Body: ReplPromote JSON; reply: ReplStatus.
	PathReplPromote = "/v1/repl/promote"
	// PathReplStatus reports a node's replication role, epoch and cursors.
	PathReplStatus = "/v1/repl/status"
	// PathNodePeer repoints one peer slot's base URL on a node — the
	// coordinator's rewiring step after promoting a follower, so forwarded
	// transactions reach the new primary. Body: NodePeer JSON.
	PathNodePeer = "/v1/node/peer"
	// PathReplDemote tells a fenced ex-primary to stand down and rejoin the
	// given primary as a follower — the self-healing entry point. Body:
	// ReplDemote JSON; reply: ReplStatus once the demotion is underway.
	PathReplDemote = "/v1/repl/demote"
)

// CodeFenced: the request carried a stale replication epoch (a zombie
// primary shipping to a promoted follower) or targeted a role the node no
// longer has. HTTP 409; not retryable — the sender must stand down.
const CodeFenced = "fenced"

// ErrFenced is the client-side sentinel for CodeFenced.
var ErrFenced = errors.New("wire: fenced: stale replication epoch")

// maxShipHeader is what a batch frame has left for the header once it holds
// a batch's worth of record frames.
const (
	maxShipHeader = MaxFrame - 4 - wal.MaxShipBytes
	_             = uint(maxShipHeader - 1<<10) // a header is a few hundred bytes
)

// ShipCursor addresses a point in the primary's WAL.
type ShipCursor = wal.ShipCursor

// ShipBatch is one shipped slice of the primary's WAL: the records between
// the From and Next cursors, stamped with the primary's fencing epoch. Seq is
// the batch ordinal since sync — the fault injector's
// deterministic key. On the wire a batch is one frame holding a 4-byte
// big-endian header length, the header (these fields, as JSON) and then the
// record frames end to end, exactly as the primary's segment holds them.
type ShipBatch struct {
	Epoch uint64     `json:"epoch"`
	Seq   uint64     `json:"seq"`
	From  ShipCursor `json:"from"`
	Next  ShipCursor `json:"next"`
	// Frames are the record frames, one per record. Records, filled in by
	// DecodeShipBatch, is what wal.DecodeRecord read from each.
	Frames  [][]byte     `json:"-"`
	Records []wal.Record `json:"-"`
}

// ShipAck is the follower's reply to a batch. Received is its authoritative
// cursor into the stream: every record before it is fsynced in the follower's
// own log, which is what the ack certifies — procedures are deterministic, so
// a durable input fixes the outcome, and the follower executes it behind the
// ack. On success Received equals the batch's Next; on Gap it is where the
// shipper must rewind to. How far execution has got is ReplStatus.Applied.
// Resync means the stream can no longer bring the follower to the primary's
// state — an apply failed on it and its memory trails its log for good — and
// shipping cannot continue without a fresh sync.
type ShipAck struct {
	Epoch    uint64     `json:"epoch"`
	Received ShipCursor `json:"received"`
	Gap      bool       `json:"gap,omitempty"`
	Resync   bool       `json:"resync,omitempty"`
}

// ReplSync is a follower's bootstrap request. FollowerURL is where the
// primary should ship batches once the snapshot is streamed.
type ReplSync struct {
	FollowerURL string `json:"follower_url"`
}

// ReplDemote orders a fenced ex-primary to demote itself and rejoin
// PrimaryURL as a follower, by a full resync from its snapshot.
type ReplDemote struct {
	PrimaryURL string `json:"primary_url"`
}

// ReplSyncMeta heads a sync response stream: the primary's epoch and plan,
// the cursor shipping starts from, and the number of frames in the image set
// that follows. Snapshot/cursor overlap is resolved by the follower's
// per-bucket LSN dedup: the cursor is taken before the snapshot, so any
// record the snapshot already covers arrives with LSN <= the bucket's image
// LSN and is skipped.
type ReplSyncMeta struct {
	Epoch   uint64     `json:"epoch"`
	Cursor  ShipCursor `json:"cursor"`
	PlanSeq uint64     `json:"plan_seq"`
	Plan    []int32    `json:"plan,omitempty"`
	Active  int        `json:"active"`
	Buckets int        `json:"buckets"`
}

// ReplPromote asks a follower to become primary under the given epoch,
// which must exceed every epoch the cluster has seen.
type ReplPromote struct {
	Epoch uint64 `json:"epoch"`
}

// ReplStatus is a node's replication self-description.
type ReplStatus struct {
	// Role is "primary" or "replica".
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
	// Durable is the durable end of the node's own WAL.
	Durable ShipCursor `json:"durable"`
	// Applied is a replica's applied-ship cursor: the primary's records
	// before it have been executed here. Comparing it against the primary's
	// Durable cursor measures replication lag.
	Applied ShipCursor `json:"applied"`
	// Received is a replica's received-ship cursor: the primary's records
	// before it are durable in this node's own log and acknowledged, executed
	// or not. Applied never passes it; a promoted node reports them equal.
	// ApplyBacklog is the command records between the two — accepted, not yet
	// executed.
	Received     ShipCursor `json:"received"`
	ApplyBacklog int        `json:"apply_backlog"`
	// Drained, on a promoted primary, is the apply backlog (in command
	// records) its promotion had to execute before the role could flip.
	Drained int `json:"drained,omitempty"`
	// PlanSeq is a replica's last applied plan sequence.
	PlanSeq uint64 `json:"plan_seq,omitempty"`
	// Fenced reports a zombie: the node believes it is (or was) primary but
	// has seen proof of a higher epoch. A fenced node refuses transactions
	// and is waiting to be demoted into the new primary's followership.
	Fenced bool `json:"fenced,omitempty"`
	// ShipTailReads and ShipFileReads count the batches this node's WAL
	// handed its shipper, by source: its in-memory tail, or the segment
	// files. File reads that keep growing on a primary whose
	// follower is caught up mean the tail is too small or was invalidated.
	ShipTailReads int64 `json:"ship_tail_reads,omitempty"`
	ShipFileReads int64 `json:"ship_file_reads,omitempty"`
}

// NodePeer repoints the base URL a node uses to forward to peer `Node`.
type NodePeer struct {
	Node int    `json:"node"`
	URL  string `json:"url"`
}

// WriteShipBatch writes a batch as one frame.
func WriteShipBatch(w io.Writer, b *ShipBatch) error {
	hdr, err := json.Marshal(b)
	if err != nil || len(hdr) > maxShipHeader {
		return fmt.Errorf("wire: encoding ship batch header (%d bytes): %v", len(hdr), err)
	}
	payload := binary.BigEndian.AppendUint32(nil, uint32(len(hdr)))
	payload = append(payload, hdr...)
	for _, f := range b.Frames {
		payload = append(payload, f...)
	}
	return WriteFrame(w, payload)
}

// DecodeShipBatch decodes and validates a ship-batch frame's payload, for a
// receiver that takes the frame off the connection first (ReadFrame) and
// decodes it once it has somewhere to put the records. It never panics:
// garbage, truncation, or out-of-bounds shapes return an error (the
// FuzzShipFrame contract).
// Every record frame goes through wal.DecodeRecord, so a record the receiver
// sees passed its CRC; Frames and the records' args alias payload.
func DecodeShipBatch(payload []byte) (*ShipBatch, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: ship batch is shorter than its header length")
	}
	hlen := uint64(binary.BigEndian.Uint32(payload))
	if hlen > uint64(min(len(payload)-4, maxShipHeader)) {
		return nil, fmt.Errorf("wire: ship batch claims a %d-byte header", hlen)
	}
	hdr, rest := payload[4:4+hlen], payload[4+hlen:]
	var b ShipBatch
	if err := json.Unmarshal(hdr, &b); err != nil {
		return nil, fmt.Errorf("wire: decoding ship batch: %w", err)
	}
	if err := validCursor(b.From); err != nil {
		return nil, fmt.Errorf("wire: ship batch from-cursor: %w", err)
	}
	if err := validCursor(b.Next); err != nil {
		return nil, fmt.Errorf("wire: ship batch next-cursor: %w", err)
	}
	for len(rest) > 0 {
		if len(b.Records) == wal.MaxShipRecords {
			return nil, fmt.Errorf("wire: ship batch carries more than %d records", wal.MaxShipRecords)
		}
		rec, n, err := wal.DecodeRecord(rest)
		if err != nil {
			return nil, fmt.Errorf("wire: ship record %d: %w", len(b.Records), err)
		}
		b.Frames, b.Records = append(b.Frames, rest[:n]), append(b.Records, rec)
		rest = rest[n:]
	}
	return &b, nil
}

func validCursor(c ShipCursor) error {
	if c.Seg < 0 || c.Rec < 0 {
		return fmt.Errorf("negative field in cursor %+v", c)
	}
	return nil
}
